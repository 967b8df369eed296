(* The journal's byte path: the record writer against a reference encoder
   (the string_of_int / Int64 formulation the format was defined with),
   decode after encode, the in-place record reader against the field-list
   reader it replaced, slicing-by-8 CRC-32 against a bytewise reference,
   committed golden files the writer must reproduce byte for byte, the
   writer's O(1) segment bookkeeping, and the request classification and
   parsing that feed it: the batch scanner's exact timestamp reader, the
   batch path against the line path, and the batch path's allocation
   budget. *)

open Dvbp_service
module Vec = Dvbp_vec.Vec
module Crc32 = Dvbp_tracestore.Crc32

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EC0 |]) t
let ok_or_fail = function Ok x -> x | Error e -> Alcotest.fail e

let with_tmp_dir f =
  let dir = Filename.temp_file "dvbp_record" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* {1 Reference encoder}

   A record as [Buffer], [string_of_int] and boxed [Int64] arithmetic
   write it: slow, but obviously the format. *)

let ref_hex_digits = "0123456789abcdef"

let ref_time buf v =
  let bits = Int64.bits_of_float v in
  if Int64.logand bits Int64.min_int <> 0L then Buffer.add_char buf '-';
  let e = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let m = Int64.logand bits 0xF_FFFF_FFFF_FFFFL in
  if e = 0x7ff then Buffer.add_string buf (if m = 0L then "inf" else "nan")
  else if e = 0 && m = 0L then Buffer.add_string buf "0x0p+0"
  else begin
    let lead, exp = if e = 0 then ('0', -1022) else ('1', e - 1023) in
    Buffer.add_string buf "0x";
    Buffer.add_char buf lead;
    if m <> 0L then begin
      Buffer.add_char buf '.';
      let nib i = Int64.to_int (Int64.shift_right_logical m ((12 - i) * 4)) land 0xf in
      let last = ref 12 in
      while nib !last = 0 do decr last done;
      for i = 0 to !last do Buffer.add_char buf ref_hex_digits.[nib i] done
    end;
    Buffer.add_char buf 'p';
    if exp >= 0 then Buffer.add_char buf '+';
    Buffer.add_string buf (string_of_int exp)
  end

let ref_encode e =
  let buf = Buffer.create 64 in
  let int n = Buffer.add_string buf (string_of_int n) in
  (match e with
  | Journal.Arrive { tenant; time; item_id; size; bin_id; opened_new_bin } ->
      Buffer.add_string buf ("arrive," ^ tenant ^ ",");
      ref_time buf time;
      Buffer.add_char buf ',';
      int item_id;
      Buffer.add_char buf ',';
      int bin_id;
      Buffer.add_string buf (if opened_new_bin then ",1" else ",0");
      Array.iter
        (fun s ->
          Buffer.add_char buf ',';
          int s)
        (Vec.to_array size)
  | Journal.Depart { tenant; time; item_id } ->
      Buffer.add_string buf ("depart," ^ tenant ^ ",");
      ref_time buf time;
      Buffer.add_char buf ',';
      int item_id);
  let body = Buffer.contents buf in
  let sum = String.fold_left (fun acc c -> ((acc * 31) + Char.code c) land 0xffff) 0 body in
  Printf.sprintf "%s,~%04x" body sum

(* {1 Generators} *)

let tenant_chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-"

let tenant_gen =
  QCheck2.Gen.(
    let* n = oneof [ 1 -- 12; return 64; 60 -- 64 ] in
    let* cs = list_repeat n (map (String.get tenant_chars) (0 -- (String.length tenant_chars - 1))) in
    return (String.of_seq (List.to_seq cs)))

let int_gen =
  QCheck2.Gen.(
    oneof
      [
        oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 1; -10; 10; 9; -9 ];
        int;
        -1000 -- 1000;
        map (fun k -> (1 lsl k) - 1) (0 -- 62);
        map (fun k -> -(1 lsl k)) (0 -- 62);
      ])

let time_gen =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [ 0.0; -0.0; Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan;
            Float.min_float; Float.max_float; 4.9e-324; -4.9e-324; 1.0; 0.1; 1.0 /. 3.0 ];
        (* subnormals and raw bit patterns, which cover every exponent *)
        map (fun m -> Int64.float_of_bits (Int64.of_int m)) (0 -- 0xF_FFFF_FFFF_FFFF);
        map Int64.float_of_bits ui64;
        float;
        map float_of_int (-100_000 -- 100_000);
      ])

let event_gen ~ints ~times =
  QCheck2.Gen.(
    let* tenant = tenant_gen in
    let* time = times in
    let* item_id = ints in
    let* is_arrive = bool in
    if is_arrive then
      let* d = 1 -- 8 in
      let* sizes = list_repeat d (map (fun n -> n land max_int) ints) in
      let* bin_id = ints in
      let* opened_new_bin = bool in
      return
        (Journal.Arrive
           { tenant; time; item_id; size = Vec.of_list sizes; bin_id; opened_new_bin })
    else return (Journal.Depart { tenant; time; item_id }))

let print_event e = ref_encode e

(* {1 Encoder properties} *)

let prop_matches_reference =
  QCheck2.Test.make ~name:"encode_event is byte-identical to the reference encoder"
    ~count:3000 ~print:print_event
    (event_gen ~ints:int_gen ~times:time_gen)
    (fun e -> String.equal (Journal.encode_event e) (ref_encode e))

(* records appended after others in one reused buffer: the checksum span
   and the terminator are per record, wherever the record starts *)
let prop_buffer_concatenates =
  QCheck2.Test.make ~name:"add_record into a reused buffer concatenates reference lines"
    ~count:500
    QCheck2.Gen.(list_size (1 -- 20) (event_gen ~ints:int_gen ~times:time_gen))
    (fun events ->
      let b = Record.Buf.create 8 in
      Record.add_record b (List.hd events);
      Record.Buf.clear b;
      List.iter (Record.add_record b) events;
      String.equal (Record.Buf.contents b)
        (String.concat "" (List.map (fun e -> ref_encode e ^ "\n") events)))

let prop_put_int =
  QCheck2.Test.make ~name:"put_int writes string_of_int, int_width is its length"
    ~count:2000 int_gen (fun n ->
      let w = Record.int_width n in
      let b = Bytes.make (w + 2) '#' in
      let stop = Record.put_int b 1 n in
      stop = w + 1
      && String.equal (Bytes.to_string b) ("#" ^ string_of_int n ^ "#"))

(* the one bounds check per record must cover the longest fields *)
let prop_record_fits_bound =
  QCheck2.Test.make ~name:"a sealed record never exceeds max_record_bytes" ~count:2000
    (event_gen ~ints:int_gen ~times:time_gen)
    (fun e -> String.length (Journal.encode_event e) + 1 <= Record.max_record_bytes e)

(* decodable events: finite times, non-negative sizes, valid tenants *)
let prop_round_trip =
  QCheck2.Test.make ~name:"decode (encode e) = e" ~count:3000 ~print:print_event
    (event_gen
       ~ints:QCheck2.Gen.(map (fun n -> n land max_int) int_gen)
       ~times:QCheck2.Gen.(map (fun t -> if Float.is_finite t then t else 0.5) time_gen))
    (fun e ->
      match Journal.decode_event (Journal.encode_event e) with
      | Ok e' -> Journal.equal_event e e'
      | Error msg -> QCheck2.Test.fail_report msg)

let prop_negative_ids_round_trip =
  QCheck2.Test.make ~name:"negative and extreme ids round-trip" ~count:500
    QCheck2.Gen.(pair tenant_gen int_gen)
    (fun (tenant, item_id) ->
      let e = Journal.Depart { tenant; time = -0.0; item_id } in
      match Journal.decode_event (Journal.encode_event e) with
      | Ok e' -> Journal.equal_event e e'
      | Error _ -> false)

let buf_tests =
  [
    Alcotest.test_case "reset empties, and hands back storage grown past the cap" `Quick
      (fun () ->
        let b = Record.Buf.create 16 in
        Record.Buf.add_string b (String.make 100 'x');
        Record.Buf.reset b ~cap:1000;
        check_int "emptied" 0 (Record.Buf.length b);
        check_bool "under the cap: kept" true (Bytes.length b.Record.Buf.bytes >= 100);
        Record.Buf.add_string b (String.make 5000 'y');
        check_string "contents" (String.make 5000 'y') (Record.Buf.contents b);
        Record.Buf.reset b ~cap:1000;
        check_int "over the cap: back to the initial size" 16
          (Bytes.length b.Record.Buf.bytes);
        Record.Buf.add_string b "after";
        check_string "usable again" "after" (Record.Buf.contents b));
  ]

(* {1 CRC-32} *)

let ref_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let ref_crc crc b ~pos ~len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := ref_table.((!c lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let prop_crc_matches_bytewise =
  QCheck2.Test.make ~name:"slicing-by-8 CRC-32 equals the bytewise reference"
    ~count:3000
    QCheck2.Gen.(
      let* data = string_size (0 -- 80) in
      let* pos = 0 -- String.length data in
      let* len = oneof [ 0 -- 7; 0 -- (String.length data - pos) ] in
      let len = min len (String.length data - pos) in
      let* crc = map (fun x -> x land 0xFFFFFFFF) int in
      return (data, pos, len, crc))
    (fun (data, pos, len, crc) ->
      let b = Bytes.of_string data in
      Crc32.update crc b ~pos ~len = ref_crc crc b ~pos ~len)

let crc_tests =
  [
    Alcotest.test_case "standard check value" `Quick (fun () ->
        check_int "crc32(123456789)" 0xCBF43926 (Crc32.string "123456789");
        check_int "empty" 0 (Crc32.string ""));
    Alcotest.test_case "every length and alignment up to 40 bytes" `Quick (fun () ->
        let b = Bytes.init 64 (fun i -> Char.chr (((i * 37) + 11) land 0xff)) in
        for pos = 0 to 15 do
          for len = 0 to 40 do
            check_int
              (Printf.sprintf "pos %d len %d" pos len)
              (ref_crc 0x1234 b ~pos ~len) (Crc32.update 0x1234 b ~pos ~len)
          done
        done);
    Alcotest.test_case "split updates chain" `Quick (fun () ->
        let s = Bytes.of_string "The quick brown fox jumps over the lazy dog" in
        let whole = Crc32.bytes s in
        check_int "known value" 0x414FA339 whole;
        for cut = 0 to Bytes.length s do
          let c = Crc32.update 0 s ~pos:0 ~len:cut in
          check_int "chained" whole (Crc32.update c s ~pos:cut ~len:(Bytes.length s - cut))
        done);
    Alcotest.test_case "out-of-range arguments are rejected" `Quick (fun () ->
        let b = Bytes.create 8 in
        List.iter
          (fun (pos, len) ->
            check_bool
              (Printf.sprintf "pos %d len %d" pos len)
              true
              (try
                 ignore (Crc32.update 0 b ~pos ~len);
                 false
               with Invalid_argument _ -> true))
          [ (-1, 2); (0, 9); (4, 5); (0, -1) ]);
    qcheck prop_crc_matches_bytewise;
  ]

(* {1 Golden files}

   [golden/] holds a journal (four sealed segments and the active one)
   and a snapshot written by the record writer the format was defined
   with. The events mix every path: streaming appends, group commits that
   roll segments, extreme ids, subnormal, negative and signed-zero times,
   and a 64-character tenant. The writer must reproduce them byte for
   byte. *)

(* next to the test binary under [dune test]; in the source tree when the
   binary is run by hand from the repository root *)
let golden_dir =
  let beside = Filename.concat (Filename.dirname Sys.executable_name) "golden" in
  if Sys.file_exists beside then beside else Filename.concat "test" "golden"
let golden_tenants = [| Tenant.default; "t1"; "edge.tenant-2_X"; String.make 64 'z' |]
let golden_capacity = Vec.of_list [ 100; 100; 2000 ]

let golden_time i =
  match i mod 5 with
  | 0 -> float_of_int i
  | 1 -> float_of_int i /. 3.0
  | 2 -> Float.ldexp 1.0 (i - 1074)
  | 3 -> -.float_of_int i *. 1e10
  | _ -> if i = 4 then -0.0 else 0.1 *. float_of_int i

let golden_events =
  List.init 40 (fun i ->
      let tenant = golden_tenants.(i mod 4) and time = golden_time i in
      if i mod 3 = 2 then Journal.Depart { tenant; time; item_id = (i * 7919) - 100_000 }
      else
        Journal.Arrive
          {
            tenant;
            time;
            item_id = (if i = 0 then max_int else if i = 1 then min_int else i);
            size = Vec.of_list [ i; 100 - i; i * i ];
            bin_id = (i / 2) - 3;
            opened_new_bin = i mod 2 = 0;
          })

let golden_header = { Journal.policy = "mtf"; seed = 42; capacity = golden_capacity; base = 5 }

(* ten streaming appends, then group commits of seven *)
let write_golden_journal path =
  let w = Journal.create ~fsync_every:4 ~segment_bytes:512 ~path golden_header in
  List.iteri (fun i e -> if i < 10 then Journal.append w e) golden_events;
  let rec commits = function
    | [] -> ()
    | l ->
        Journal.append_batch w (List.filteri (fun i _ -> i < 7) l);
        commits (List.filteri (fun i _ -> i >= 7) l)
  in
  commits (List.filteri (fun i _ -> i >= 10) golden_events);
  Journal.close w

let golden_snapshot =
  {
    Snapshot.policy = "mtf";
    seed = 42;
    capacity = golden_capacity;
    digests =
      [
        { Snapshot.tenant = "t1"; clock = 2.5; cost = 1.0 /. 3.0; bins_opened = 3;
          open_bins = [ (0, [ 1; 4 ]); (2, []) ] };
        { Snapshot.tenant = Tenant.default; clock = 0.0; cost = 0.0; bins_opened = 0;
          open_bins = [] };
      ];
    history = golden_events;
  }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let sorted_entries dir =
  List.sort String.compare (Array.to_list (Sys.readdir dir))

let golden_tests =
  [
    Alcotest.test_case "the writer reproduces the golden journal byte for byte" `Quick
      (fun () ->
        with_tmp_dir (fun dir ->
            write_golden_journal (Filename.concat dir "journal");
            let want =
              List.filter
                (fun f -> String.starts_with ~prefix:"journal." f)
                (sorted_entries golden_dir)
            in
            check_int "five segment files" 5 (List.length want);
            check_bool "same file names" true (want = sorted_entries dir);
            List.iter
              (fun f ->
                check_string f
                  (read_file (Filename.concat golden_dir f))
                  (read_file (Filename.concat dir f)))
              want));
    Alcotest.test_case "the golden journal reads back as its events" `Quick (fun () ->
        let r = ok_or_fail (Journal.read_file (Filename.concat golden_dir "journal")) in
        check_int "base" 5 r.Journal.header.Journal.base;
        check_bool "events" true (List.equal Journal.equal_event golden_events r.Journal.events));
    Alcotest.test_case "the snapshot writer reproduces the golden snapshot" `Quick
      (fun () ->
        check_string "bytes"
          (read_file (Filename.concat golden_dir "snapshot"))
          (Snapshot.to_string golden_snapshot));
    Alcotest.test_case "resume-time region rewrite reproduces the golden bytes" `Quick
      (fun () ->
        (* tear the active segment's last record: append_to drops it and
           rewrites the region through the record writer *)
        with_tmp_dir (fun dir ->
            write_golden_journal (Filename.concat dir "journal");
            let active = Filename.concat dir "journal.000004.seg.open" in
            let full = read_file active in
            Out_channel.with_open_bin active (fun oc ->
                output_string oc (String.sub full 0 (String.length full - 3)));
            let w, r =
              ok_or_fail (Journal.append_to ~path:(Filename.concat dir "journal") golden_header)
            in
            let last = List.nth golden_events 39 in
            check_int "one record dropped" 39 (List.length r.Journal.events);
            Journal.append w last;
            Journal.close w;
            check_string "healed and re-appended" full (read_file active)));
  ]

(* {1 Writer bookkeeping} *)

let check_accounting what dir w =
  let entries = sorted_entries dir in
  let sealed = List.filter (fun f -> Filename.check_suffix f ".seg") entries in
  let bytes =
    List.fold_left (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size) 0 entries
  in
  check_int (what ^ ": sealed_segments") (List.length sealed) (Journal.sealed_segments w);
  check_int (what ^ ": live_bytes") bytes (Journal.live_bytes w)

let writer_tests =
  [
    Alcotest.test_case "sealed count and live bytes track the files across seal, retire, truncate"
      `Quick (fun () ->
        with_tmp_dir (fun dir ->
            let path = Filename.concat dir "j" in
            let header = { golden_header with Journal.base = 0 } in
            let w = Journal.create ~segment_bytes:200 ~path header in
            check_accounting "fresh" dir w;
            List.iteri (fun i e -> if i < 12 then Journal.append w e) golden_events;
            check_accounting "after seals" dir w;
            check_bool "several sealed" true (Journal.sealed_segments w >= 3);
            ignore (Journal.retire_sealed ~max_segments:2 w ~upto:(Journal.frontier w));
            check_accounting "after a bounded retire" dir w;
            Journal.append_batch w (List.filteri (fun i _ -> i >= 12 && i < 30) golden_events);
            check_accounting "after a group commit" dir w;
            ignore (Journal.retire_sealed w ~upto:(Journal.frontier w));
            check_accounting "after retiring all covered" dir w;
            Journal.append_batch w (List.filteri (fun i _ -> i >= 30) golden_events);
            Journal.truncate w ~new_base:(Journal.frontier w);
            check_accounting "after truncate" dir w;
            check_int "none sealed" 0 (Journal.sealed_segments w);
            List.iteri (fun i e -> if i < 6 then Journal.append w e) golden_events;
            Journal.close w;
            let w, _ = ok_or_fail (Journal.append_to ~segment_bytes:200 ~path header) in
            check_accounting "after resume" dir w;
            Journal.close w));
  ]

(* {1 Request classification and parsing} *)

let kind_tests =
  [
    Alcotest.test_case "kind_of_line classifies by the first token" `Quick (fun () ->
        List.iter
          (fun (line, want) ->
            check_string (Printf.sprintf "%S" line) (Metrics.kind_name want)
              (Metrics.kind_name (Metrics.kind_of_line line)))
          [
            ("ARRIVE", Metrics.Arrive);
            ("ARRIVE\r", Metrics.Arrive);
            ("ARRIVE 1 2 5,5", Metrics.Arrive);
            ("ARRIVEX 1", Metrics.Other);
            ("ARRIV", Metrics.Other);
            ("", Metrics.Other);
            (" ARRIVE", Metrics.Other);
            ("\rARRIVE", Metrics.Other);
            ("DEPART t 1 2", Metrics.Depart);
            ("STATS\r", Metrics.Stats);
            ("STATS", Metrics.Stats);
            ("STATSX", Metrics.Other);
            ("SNAPSHOT", Metrics.Snapshot);
            ("METRICS extra", Metrics.Metrics);
            ("arrive 1 2 5,5", Metrics.Other);
            ("QUIT", Metrics.Other);
          ]);
  ]

let fresh_server () =
  ok_or_fail
    (Server.create ~metrics:(Metrics.noop ())
       {
         Server.policy = "mtf";
         seed = 7;
         capacity = Vec.of_list [ 100; 100 ];
         journal = None;
         snapshot = None;
         snapshot_every = None;
         fsync_every = 64;
         jobs = 1;
         segment_bytes = None;
         retain_segments = None;
       })

(* lines a client can send that sit on the edge of the grammar; run in
   order, so departures have items to find *)
let edge_corpus =
  [|
    "ARRIVE 0 1 5,5";
    "ARRIVE nan 2 5,5";
    "ARRIVE inf 3 5,5";
    "ARRIVE -inf 4 5,5";
    "ARRIVE +inf 5 5,5";
    "ARRIVE 1e400 6 5,5";
    "ARRIVE -1e400 7 5,5";
    "ARRIVE NaN 8 5,5";
    "ARRIVE +5 9 5,5";
    "ARRIVE 5 +10 5,5";
    "ARRIVE 5 -0 5,5";
    "ARRIVE -0 11 5,5";
    "ARRIVE 5 12 +5,5";
    "ARRIVE 5 13 -5,5";
    "ARRIVE 6 14 5,5\r";
    "ARRIVE  6   15  5,5";
    "ARRIVE 6 16 5,5 ";
    "ARRIVE 6 1234567890123456789 5,5";
    "ARRIVE 6 9999999999999999999 5,5";
    "ARRIVE 6 123456789012345678 5,5";
    "ARRIVE t1 6 17 5,5";
    "ARRIVE bad/tenant 6 18 5,5";
    "ARRIVE zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz 6 19 5,5";
    "ARRIVE t1 nan 20 5,5";
    "ARRIVE 6 21";
    "ARRIVE 6 22 5,5 extra more";
    "ARRIVE";
    "ARRIVE 6 23 5,,5";
    "ARRIVE 6 24 ,5";
    "ARRIVE 6 25 5,5,5";
    "ARRIVE 6 26 500,5";
    "ARRIVE 0x1p+3 27 5,5";
    "ARRIVE 2 28 5,5";
    "DEPART nan 1";
    "DEPART inf 1";
    "DEPART 1e400 1";
    "DEPART t1 nan 17";
    "DEPART 8 1";
    "DEPART 8 1";
    "DEPART 8 -0";
    "DEPART 9 1234567890123456789\r";
    "DEPART t1 9 17";
    "DEPART 9";
    "DEPART 9 1 2 3";
    "DEPART bad/tenant 9 1";
    " ARRIVE 10 40 5,5";
    "";
    "BOGUS";
  |]

let parser_tests =
  [
    Alcotest.test_case "handle_batch and handle_line agree on the edge corpus" `Quick
      (fun () ->
        let whole = fresh_server () and each = fresh_server () and single = fresh_server () in
        let batch = Server.handle_batch whole edge_corpus in
        Array.iteri
          (fun i line ->
            let want, _ = Server.handle_line each line in
            check_string (Printf.sprintf "%S in one batch" line) want (fst batch.(i));
            let one = Server.handle_batch single [| line |] in
            check_string (Printf.sprintf "%S alone" line) want (fst one.(0)))
          edge_corpus;
        let m s = Server.metrics s in
        List.iter
          (fun (what, f) ->
            check_int (what ^ " (one batch)") (f (m each)) (f (m whole));
            check_int (what ^ " (alone)") (f (m each)) (f (m single)))
          [
            ("requests", fun m -> m.Server.requests);
            ("placements", fun m -> m.Server.placements);
            ("rejections", fun m -> m.Server.rejections);
            ("departures", fun m -> m.Server.departures);
            ("errors", fun m -> m.Server.errors);
            ("events", fun m -> m.Server.events);
          ]);
    Alcotest.test_case "non-finite timestamps are parse errors on both paths" `Quick
      (fun () ->
        List.iter
          (fun line ->
            let reply = fst (Server.handle_batch (fresh_server ()) [| line |]).(0) in
            check_bool (Printf.sprintf "%S -> %S" line reply) true
              (String.starts_with ~prefix:"ERR bad timestamp" reply))
          [ "ARRIVE nan 2 5,5"; "ARRIVE inf 2 5,5"; "ARRIVE -inf 2 5,5";
            "ARRIVE 1e400 2 5,5"; "DEPART nan 1"; "DEPART t1 inf 1" ]);
    Alcotest.test_case "placed replies spell the bin and the new-bin flag" `Quick
      (fun () ->
        let s = fresh_server () in
        let replies =
          Server.handle_batch s
            (Array.init 25 (fun i -> Printf.sprintf "ARRIVE 0 %d 60,60" i))
        in
        Array.iteri
          (fun i (r, _) -> check_string "reply" (Printf.sprintf "PLACED %d 1" i) r)
          replies;
        let reuse = fst (Server.handle_line s "ARRIVE 0 99 10,10") in
        let bin, fresh = Scanf.sscanf reuse "PLACED %d %d" (fun b f -> (b, f)) in
        check_string "reuse" (Printf.sprintf "PLACED %d 0" bin) reuse;
        check_int "an open bin" 0 fresh;
        check_bool "one of the 25" true (bin >= 0 && bin < 25));
  ]

(* {1 One parser, columns and the batch path} *)

(* the tenant names a server holds, in first-appearance order *)
let tenant_names s = List.map fst (Server.sessions s)

let phantom_lines =
  [| "ARRIVE newt 1.0 5 abc"; "ARRIVE t3 1.0 5 1,x"; "ARRIVE other 1.0 5 5,5";
     "DEPART newd 1.0 x"; "ARRIVE bad/x 1.0 5 5,5"; "DEPART t4 nan 1" |]

let phantom_tests =
  [
    Alcotest.test_case "a malformed line creates no tenant on either path" `Quick (fun () ->
        let lines = Array.append edge_corpus phantom_lines in
        let whole = fresh_server () and each = fresh_server () and single = fresh_server () in
        ignore (Server.handle_batch whole lines);
        Array.iter
          (fun line ->
            ignore (Server.handle_line each line);
            ignore (Server.handle_batch single [| line |]))
          lines;
        let want = tenant_names each in
        Alcotest.(check (list string)) "handle_line tenants" [ "default"; "t1"; "other" ] want;
        Alcotest.(check (list string)) "one batch" want (tenant_names whole);
        Alcotest.(check (list string)) "line by line batches" want (tenant_names single));
  ]

(* {2 Exact readers} *)

let digit_string n =
  QCheck2.Gen.(map (fun l -> String.of_seq (List.to_seq l)) (list_repeat n (char_range '0' '9')))

let decimal_gen =
  QCheck2.Gen.(
    oneof
      [
        (let* int_digits = 1 -- 20 in
         let* frac_digits = 0 -- 25 in
         let* i = digit_string int_digits in
         let* f = digit_string frac_digits in
         return (if frac_digits = 0 then i else i ^ "." ^ f));
        (* 19-digit integers: past the exact range *)
        map (fun d -> "1" ^ d) (digit_string 18);
        map (fun d -> "9" ^ d) (digit_string 18);
        oneofl
          [ "+5"; "-0"; ".5"; "5."; "1e5"; "1_0.5"; "0x1p3"; "inf"; "nan"; "1e400";
            "1234567890123456789"; "9999999999999999999"; "0"; "0.0"; "00.000";
            "0.0000000000000000000001"; "0.00000000000000000000001"; "999999999999999";
            "9999999999999999"; "123456789012345.5"; "1.5.5"; ""; "1a" ];
      ])

let bits = Int64.bits_of_float

let prop_decimal_time =
  QCheck2.Test.make ~name:"decimal timestamps read bit-identically to float_of_string"
    ~count:5000 ~print:Fun.id decimal_gen (fun s ->
      match (Server.decimal_time s, float_of_string_opt s) with
      | Some x, Some y -> Int64.equal (bits x) (bits y)
      | Some _, None -> false
      | None, _ ->
          (* left to float_of_string: only spellings outside
             digits[.digits] with <= 15 significant and <= 22 fraction
             digits *)
          let plain =
            s <> ""
            && String.for_all (fun c -> c = '.' || (c >= '0' && c <= '9')) s
            && (match String.index_opt s '.' with
               | None -> true
               | Some i ->
                   i > 0 && i < String.length s - 1 && not (String.contains_from s (i + 1) '.'))
          in
          let sig_digits =
            let seen = ref false and n = ref 0 in
            String.iter
              (fun c ->
                if c <> '.' && (!seen || c <> '0') then begin
                  seen := true;
                  incr n
                end)
              s;
            !n
          in
          let frac =
            match String.index_opt s '.' with Some i -> String.length s - i - 1 | None -> 0
          in
          not (plain && sig_digits <= 15 && frac <= 22))

let decimal_corpus_tests =
  [
    Alcotest.test_case "signs, exponents and other spellings are left to float_of_string"
      `Quick (fun () ->
        List.iter
          (fun s -> check_bool s true (Server.decimal_time s = None))
          [ "+5"; "-0"; ".5"; "5."; "1e5"; "1_0.5"; "0x1p3"; "inf"; "nan"; "1e400";
            "1234567890123456789" ];
        List.iter
          (fun (s, want) ->
            match Server.decimal_time s with
            | Some x -> check_bool s true (Int64.equal (bits x) (bits want))
            | None -> Alcotest.failf "%S should take the exact path" s)
          [ ("1.2500", 1.25); ("0.1", 0.1); ("3", 3.0); ("0", 0.0); ("000.5", 0.5);
            ("999999999999999", 999999999999999.0) ]);
  ]

let time_text v =
  let b = Bytes.create Record.max_time_bytes in
  Bytes.sub_string b 0 (Record.put_time b 0 v)

let prop_hex_time =
  QCheck2.Test.make ~name:"hex-float record times read bit-identically to float_of_string"
    ~count:5000
    ~print:(fun b -> Printf.sprintf "%Lx -> %s" b (time_text (Int64.float_of_bits b)))
    QCheck2.Gen.(
      oneof
        [
          ui64;
          map Int64.of_int (0 -- 0xF_FFFF_FFFF_FFFF);
          map (fun e -> Int64.shift_left (Int64.of_int e) 52) (0 -- 0xFFF);
          oneofl [ 0L; Int64.min_int; bits 1.0; bits (-1.0); bits Float.max_float;
                   bits Float.min_float; bits Float.infinity; bits Float.nan ];
        ])
    (fun b ->
      let v = Int64.float_of_bits b in
      let s = time_text v in
      let len = String.length s in
      let fast = Record.hex_time s 0 len in
      (* the in-place path takes every normal float and only those *)
      Float.is_nan fast = (Float.classify_float v <> FP_normal)
      && (Float.is_nan fast || Int64.equal (bits fast) (bits (float_of_string s)))
      &&
      match Record.time_field "time" s 0 len with
      | x -> Float.is_finite v && Int64.equal (bits x) (bits (float_of_string s))
      | exception Record.Bad _ -> not (Float.is_finite v))

(* The field-list record reader the in-place one replaced, kept as the
   reference: [String.split_on_char], [String.trim] and
   [int_of_string_opt]/[float_of_string_opt] per field. *)
let ref_decode ~version line =
  let ( let* ) = Result.bind in
  let parse_int what s =
    match int_of_string_opt (String.trim s) with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "bad %s %S" what s)
  in
  let parse_float what s =
    match float_of_string_opt (String.trim s) with
    | Some x when Float.is_finite x -> Ok x
    | Some _ | None -> Error (Printf.sprintf "bad %s %S" what s)
  in
  let rec collect what = function
    | [] -> Ok []
    | s :: rest ->
        let* x = parse_int what s in
        let* xs = collect what rest in
        Ok (x :: xs)
  in
  let* body =
    match String.rindex_opt line ',' with
    | Some i
      when i + 1 < String.length line && line.[i + 1] = '~' && String.length line - i - 2 = 4
      -> (
        let hex = String.sub line (i + 2) 4 in
        match int_of_string_opt ("0x" ^ hex) with
        | Some sum when sum = Record.checksum (Bytes.of_string line) ~pos:0 ~len:i ->
            Ok (String.sub line 0 i)
        | Some _ -> Error "checksum mismatch"
        | None -> Error (Printf.sprintf "bad checksum field %S" hex))
    | _ -> Error "missing checksum field"
  in
  let tenant_of t =
    Result.map_error (fun _ -> Printf.sprintf "bad tenant %S" t) (Tenant.validate t)
  in
  let arrive ~tenant ~time ~item ~bin ~fresh ~sizes =
    let* tenant = tenant_of tenant in
    let* time = parse_float "arrival time" time in
    let* item_id = parse_int "item id" item in
    let* bin_id = parse_int "bin id" bin in
    let* fresh = parse_int "opened-new-bin flag" fresh in
    let* opened_new_bin =
      match fresh with
      | 0 -> Ok false
      | 1 -> Ok true
      | n -> Error (Printf.sprintf "opened-new-bin flag must be 0 or 1, got %d" n)
    in
    let* sizes = collect "size entry" sizes in
    match sizes with
    | [] -> Error "arrive record with no size"
    | _ when List.exists (fun s -> s < 0) sizes -> Error "negative size"
    | _ ->
        Ok
          (Journal.Arrive
             { tenant; time; item_id; size = Vec.of_list sizes; bin_id; opened_new_bin })
  in
  let depart ~tenant ~time ~item =
    let* tenant = tenant_of tenant in
    let* time = parse_float "departure time" time in
    let* item_id = parse_int "item id" item in
    Ok (Journal.Depart { tenant; time; item_id })
  in
  match (version, String.split_on_char ',' body) with
  | 2, "arrive" :: tenant :: time :: item :: bin :: fresh :: sizes ->
      arrive ~tenant ~time ~item ~bin ~fresh ~sizes
  | 2, [ "depart"; tenant; time; item ] -> depart ~tenant ~time ~item
  | 1, "arrive" :: time :: item :: bin :: fresh :: sizes ->
      arrive ~tenant:Tenant.default ~time ~item ~bin ~fresh ~sizes
  | 1, [ "depart"; time; item ] -> depart ~tenant:Tenant.default ~time ~item
  | _, ("arrive" | "depart") :: _ -> Error "malformed record"
  | _, kind :: _ -> Error (Printf.sprintf "unrecognised record kind %S" kind)
  | _, [] -> Error "empty record"

(* a record body with one edit, resealed with a valid checksum so the
   field readers see it (or, for the last edits, a damaged seal) *)
let mutated_gen =
  QCheck2.Gen.(
    let* e =
      event_gen
        ~ints:(map (fun n -> n land max_int) int_gen)
        ~times:(map (fun t -> if Float.is_finite t then t else 0.5) time_gen)
    in
    let body =
      let line = Journal.encode_event e in
      String.sub line 0 (String.rindex line ',')
    in
    let n = String.length body in
    let* pos = 0 -- n in
    let* piece =
      oneofl
        [ ","; " "; "-"; "+"; "0"; "00"; "1_0"; "x"; "p"; "."; "e5"; "0x"; "1e400"; "nan"; "/";
          "99999999999999999999"; "-9223372036854775808" ]
    in
    let* cut = 0 -- 3 in
    let* edit = 0 -- 5 in
    let edited =
      match edit with
      | 0 -> body
      | 1 | 2 -> String.sub body 0 pos ^ piece ^ String.sub body pos (n - pos)
      | 3 ->
          let rest = min n (pos + cut) in
          String.sub body 0 pos ^ piece ^ String.sub body rest (n - rest)
      | _ -> String.sub body 0 (max 0 (pos - cut)) ^ String.sub body pos (n - pos)
    in
    let sum = Record.checksum (Bytes.of_string edited) ~pos:0 ~len:(String.length edited) in
    let* seal =
      frequency
        [ (8, return (Printf.sprintf ",~%04x" sum)); (1, return (Printf.sprintf ",~%04X" sum));
          (1, return ",~12_3"); (1, return ",~zz"); (1, return "");
          (1, return (Printf.sprintf ",~%04x" ((sum + 1) land 0xffff))) ]
    in
    let* version = frequency [ (5, return 2); (1, return 1) ] in
    return (version, edited ^ seal))

let prop_reader_matches_reference =
  QCheck2.Test.make ~name:"the in-place record reader matches the field-list reader"
    ~count:20000
    ~print:(fun (v, l) -> Printf.sprintf "v%d %S" v l)
    mutated_gen
    (fun (version, line) ->
      match (Record.decode_event ~version line, ref_decode ~version line) with
      | Ok a, Ok b ->
          Journal.equal_event a b
          && Int64.equal (bits (Journal.event_time a)) (bits (Journal.event_time b))
      | Error a, Error b -> String.equal a b || QCheck2.Test.fail_reportf "%S vs %S" a b
      | Ok _, Error b -> QCheck2.Test.fail_reportf "accepted, reference says %S" b
      | Error a, Ok _ -> QCheck2.Test.fail_reportf "%S, reference accepts" a)

(* {2 Batch against line} *)

let request_gen =
  QCheck2.Gen.(
    let tenant = oneofl [ ""; "t1 "; "t2 "; "default " ] in
    let time i =
      let t = float_of_int i *. 0.25 in
      oneof
        [
          return (Printf.sprintf "%.4f" t);
          return (Printf.sprintf "%g" t);
          return (Printf.sprintf "%.17g" t);
          return (Printf.sprintf "+%g" t);
          return "0";
        ]
    in
    let size =
      oneof [ map string_of_int (1 -- 60); map string_of_int (90 -- 150); return "+5"; return "05" ]
    in
    let sizes =
      oneof
        [
          map2 (Printf.sprintf "%s,%s") size size;
          size;
          map3 (Printf.sprintf "%s,%s,%s") size size size;
        ]
    in
    let item = oneof [ map string_of_int (0 -- 40); return "-0"; return "+7"; return "x" ] in
    let malformed =
      oneofl
        [ "ARRIVE newt 1.0 5 abc"; "ARRIVE t3 1.0 5 1,x"; "ARRIVE bad/t 1 2 3,3";
          "DEPART t1 nan 3"; "DEPART"; "ARRIVE 1 2"; "DEPART t9 1.0 x"; "ARRIVE t1 1 2 5,,5";
          "ARRIVE\r1 2 3"; "DEPART t1 1.0 1234567890123456789"; "ARRIVE t1 inf 3 5,5";
          "ARRIVE t1 1e400 4 5,5"; "BOGUS"; ""; " ARRIVE 1 50 5,5"; "ARRIVE  t2  1  51  5,5 " ]
    in
    fun i ->
      frequency
        [
          (5, map3 (fun tn t (id, sz) -> Printf.sprintf "ARRIVE %s%s %s %s" tn t id sz)
                tenant (time i) (pair item sizes));
          (3, map3 (fun tn t id -> Printf.sprintf "DEPART %s%s %s" tn t id) tenant (time i) item);
          (2, malformed);
          (1, return "STATS");
          (1, map2 (fun tn id -> Printf.sprintf "ARRIVE %s%d %d 5,5\r" tn i id) tenant (0 -- 40));
        ])

let mix_gen =
  QCheck2.Gen.(
    let* n = 1 -- 60 in
    let rec lines i acc =
      if i = n then return (Array.of_list (List.rev acc))
      else
        let* l = request_gen i in
        lines (i + 1) (l :: acc)
    in
    let* mix = lines 0 [] in
    let* cuts = list_size (0 -- 4) (0 -- n) in
    return (mix, List.sort_uniq compare cuts))

let served ~dir ~name ~jobs =
  ok_or_fail
    (Server.create ~metrics:(Metrics.noop ())
       {
         Server.policy = "mtf";
         seed = 7;
         capacity = Vec.of_list [ 100; 100 ];
         journal = Some (Filename.concat dir name);
         snapshot = None;
         snapshot_every = None;
         fsync_every = 16;
         jobs;
         segment_bytes = None;
         retain_segments = None;
       })

(* every file of the journal called [name], keyed by what follows it *)
let journal_files dir name =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix:(name ^ ".") f)
  |> List.sort compare
  |> List.map (fun f ->
         let ic = open_in_bin (Filename.concat dir f) in
         let text = really_input_string ic (in_channel_length ic) in
         close_in ic;
         (String.sub f (String.length name) (String.length f - String.length name), text))

let in_batches s lines cuts =
  let bounds = (0 :: cuts) @ [ Array.length lines ] in
  let rec go acc = function
    | a :: (b :: _ as rest) ->
        let replies = Server.handle_batch s (Array.sub lines a (b - a)) in
        go (acc @ Array.to_list (Array.map fst replies)) rest
    | [ _ ] | [] -> acc
  in
  go [] bounds

let prop_batch_matches_line =
  QCheck2.Test.make ~name:"handle_batch (whole, split, jobs 1 and 4) matches handle_line"
    ~count:150
    ~print:(fun (mix, cuts) ->
      String.concat "\n" (Array.to_list (Array.map (Printf.sprintf "%S") mix))
      ^ "\ncuts: " ^ String.concat "," (List.map string_of_int cuts))
    mix_gen
    (fun (mix, cuts) ->
      with_tmp_dir (fun dir ->
          let line = served ~dir ~name:"line" ~jobs:1 in
          let whole = served ~dir ~name:"whole" ~jobs:1 in
          let split = served ~dir ~name:"split" ~jobs:1 in
          let wide = served ~dir ~name:"wide" ~jobs:4 in
          let want = Array.to_list (Array.map (fun l -> fst (Server.handle_line line l)) mix) in
          let runs =
            [
              ("whole", whole, Array.to_list (Array.map fst (Server.handle_batch whole mix)));
              ("split", split, in_batches split mix cuts);
              ("jobs 4", wide, Array.to_list (Array.map fst (Server.handle_batch wide mix)));
            ]
          in
          let fingerprints s =
            List.map
              (fun (n, sess) -> (n, Dvbp_engine.Session.fingerprint sess))
              (Server.sessions s)
          in
          List.iter Server.close [ line; whole; split; wide ];
          List.iter
            (fun (what, s, replies) ->
              if replies <> want then QCheck2.Test.fail_reportf "%s: replies differ" what;
              if Server.metrics s <> Server.metrics line then
                QCheck2.Test.fail_reportf "%s: metrics differ" what;
              if tenant_names s <> tenant_names line then
                QCheck2.Test.fail_reportf "%s: tenants %s, not %s" what
                  (String.concat ";" (tenant_names s))
                  (String.concat ";" (tenant_names line));
              if fingerprints s <> fingerprints line then
                QCheck2.Test.fail_reportf "%s: fingerprints differ" what)
            runs;
          let want_files = journal_files dir "line" in
          List.iter
            (fun name ->
              if journal_files dir name <> want_files then
                QCheck2.Test.fail_reportf "%s: journal files differ" name)
            [ "whole"; "split"; "wide" ];
          true))

(* {2 Allocation budget} *)

(* two tenants, as the served benchmark sends them: 32 items live per
   tenant; once full, each departure comes at the instant of the
   tenant's next arrival *)
let budget_lines n =
  let rng = Dvbp_prelude.Rng.create ~seed:5 in
  let live = Array.make 2 [] and next = Array.make 2 0 and departed = Array.make 2 false in
  Array.init n (fun i ->
      let t = i mod 2 in
      let tenant = if t = 0 then "t0" else "t1" in
      let time = float_of_int next.(t) *. 0.3125 in
      if List.length live.(t) = 32 && not departed.(t) then begin
        let victim = List.nth live.(t) (Dvbp_prelude.Rng.int rng 32) in
        live.(t) <- List.filter (( <> ) victim) live.(t);
        departed.(t) <- true;
        Printf.sprintf "DEPART %s %.4f %d" tenant time victim
      end
      else begin
        let id = next.(t) in
        next.(t) <- id + 1;
        live.(t) <- id :: live.(t);
        departed.(t) <- false;
        Printf.sprintf "ARRIVE %s %.4f %d %d,%d" tenant time id
          (1 + Dvbp_prelude.Rng.int rng 100)
          (1 + Dvbp_prelude.Rng.int rng 100)
      end)

let budget_tests =
  [
    Alcotest.test_case "a 16,384-line batch allocates at most 48 minor words per event" `Quick
      (fun () ->
        let s =
          ok_or_fail
            (Server.create
               {
                 Server.policy = "mtf";
                 seed = 7;
                 capacity = Vec.of_list [ 100; 100 ];
                 journal = None;
                 snapshot = None;
                 snapshot_every = None;
                 fsync_every = 1 lsl 20;
                 jobs = 1;
                 segment_bytes = None;
                 retain_segments = None;
               })
        in
        let n = 16_384 in
        let lines = budget_lines (2 * n) in
        (* the first half warms both tenants and their tables up *)
        ignore (Server.handle_batch s (Array.sub lines 0 n));
        let batch = Array.sub lines n n in
        let w0 = Gc.minor_words () in
        let replies = Server.handle_batch s batch in
        let words = (Gc.minor_words () -. w0) /. float_of_int n in
        let refused =
          Array.to_list replies
          |> List.filter (fun (r, _) -> not (String.starts_with ~prefix:"PLACED" r || r = "OK"))
        in
        Alcotest.(check (list string)) "every request applied" [] (List.map fst refused);
        Printf.printf "%.1f minor words per event\n" words;
        if words > 48.0 then Alcotest.failf "%.1f minor words per event" words);
  ]

let suites =
  [
    ( "service.record",
      List.map qcheck
        [ prop_matches_reference; prop_buffer_concatenates; prop_put_int; prop_record_fits_bound;
          prop_round_trip;
          prop_negative_ids_round_trip ]
      @ buf_tests );
    ("service.golden", golden_tests);
    ("service.writer", writer_tests);
    ("service.protocol", kind_tests @ parser_tests @ phantom_tests @ decimal_corpus_tests);
    ( "service.columns",
      List.map qcheck
        [ prop_decimal_time; prop_hex_time; prop_reader_matches_reference;
          prop_batch_matches_line ]
      @ budget_tests );
    ("tracestore.crc32", crc_tests);
  ]
