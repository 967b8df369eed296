module Vec = Dvbp_vec.Vec

type header = { policy : string; seed : int; capacity : Vec.t; base : int }

type event =
  | Arrive of {
      tenant : string;
      time : float;
      item_id : int;
      size : Vec.t;
      bin_id : int;
      opened_new_bin : bool;
    }
  | Depart of { tenant : string; time : float; item_id : int }

let event_time = function Arrive { time; _ } | Depart { time; _ } -> time
let event_item = function Arrive { item_id; _ } | Depart { item_id; _ } -> item_id
let event_tenant = function Arrive { tenant; _ } | Depart { tenant; _ } -> tenant

let equal_event a b =
  match (a, b) with
  | Arrive a, Arrive b ->
      String.equal a.tenant b.tenant && a.time = b.time && a.item_id = b.item_id
      && Vec.equal a.size b.size && a.bin_id = b.bin_id
      && a.opened_new_bin = b.opened_new_bin
  | Depart a, Depart b ->
      String.equal a.tenant b.tenant && a.time = b.time && a.item_id = b.item_id
  | Arrive _, Depart _ | Depart _, Arrive _ -> false

let pp_tenant ppf tenant =
  if not (String.equal tenant Tenant.default) then
    Format.fprintf ppf "tenant=%s " tenant

let pp_event ppf = function
  | Arrive { tenant; time; item_id; size; bin_id; opened_new_bin } ->
      Format.fprintf ppf "arrive %at=%g item=%d size=%a -> bin %d%s" pp_tenant
        tenant time item_id Vec.pp size bin_id
        (if opened_new_bin then " (new)" else "")
  | Depart { tenant; time; item_id } ->
      Format.fprintf ppf "depart %at=%g item=%d" pp_tenant tenant time item_id

(* ---------- record codec ---------- *)

(* 16-bit rolling checksum over the record body [b.(pos .. pos+len-1)]:
   enough to tell a torn final record from a complete one (a truncated
   prefix that still passes both the syntax check and the checksum is a
   1-in-65536 coincidence per crash, vs certainty of misparse for records
   whose prefix is valid). The writer runs it over the bytes it just
   encoded, the reader over the line it read, so there is one definition.

   The sum is [Σ c_i · 31^(len-1-i) mod 2^16]. Native ints wrap modulo
   2^63, a multiple of 2^16, so one reduction at the end gives the same
   value as reducing every step, and folding four bytes per step with
   the powers 31^1..31^4 shortens the chain of dependent multiplies. *)
let byte b i = Char.code (Bytes.unsafe_get b i)

let checksum b ~pos ~len =
  let acc = ref 0 and i = ref pos and stop = pos + len in
  while !i + 4 <= stop do
    let j = !i in
    acc :=
      (!acc * 923521) + (byte b j * 29791) + (byte b (j + 1) * 961)
      + (byte b (j + 2) * 31) + byte b (j + 3);
    i := j + 4
  done;
  while !i < stop do
    acc := (!acc * 31) + byte b !i;
    incr i
  done;
  !acc land 0xffff

let hex_digits = "0123456789abcdef"

(* The [put_*] writers store a field at [b.(p ..)] and return the
   position after it; the caller has made room. Nothing allocates. *)

let put_char b p c =
  Bytes.unsafe_set b p c;
  p + 1

let put_string b p s =
  Bytes.unsafe_blit_string s 0 b p (String.length s);
  p + String.length s

(* at most 20 bytes: the sign and 19 digits of [min_int] *)
let max_int_bytes = 20

(* digits least significant first, then reversed in place; worked on the
   non-positive side so that [min_int] needs no special case *)
let put_int b p n =
  let p = if n < 0 then put_char b p '-' else p in
  let m = ref (if n < 0 then n else -n) and q = ref p in
  Bytes.unsafe_set b p (Char.unsafe_chr (48 - (!m mod 10)));
  m := !m / 10;
  incr q;
  while !m <> 0 do
    Bytes.unsafe_set b !q (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10;
    incr q
  done;
  let lo = ref p and hi = ref (!q - 1) in
  while !lo < !hi do
    let c = Bytes.unsafe_get b !lo in
    Bytes.unsafe_set b !lo (Bytes.unsafe_get b !hi);
    Bytes.unsafe_set b !hi c;
    incr lo;
    decr hi
  done;
  !q

(* decimal width of [n], sign included, for callers that size a string
   before writing it with [put_int] *)
let int_width n =
  let rec go w m = if m > -10 then w else go (w + 1) (m / 10) in
  if n < 0 then go 2 n else go 1 (-n)

(* at most 24 bytes: [-0x1.] and 13 hex digits, then [p-1022] *)
let max_time_bytes = 24

(* v2 times are hex floats (e.g. [0x1.8p+1] for 3.0): they round-trip
   exactly like ["%.17g"] but cost a fraction to format, and
   [float_of_string] reads both spellings, so v1 journals (decimal
   times) replay unchanged. Written nibble by nibble from the IEEE bits
   (sign and exponent are the top 12 bits; the 52-bit mantissa fits an
   immediate [int]) rather than via ["%h"], whose [Printf] dispatch alone
   costs more than the record's other fields combined. *)
let put_time b p v =
  let bits = Int64.bits_of_float v in
  let top = Int64.to_int (Int64.shift_right_logical bits 52) in
  let e = top land 0x7ff and m = Int64.to_int bits land 0xF_FFFF_FFFF_FFFF in
  let p = if top land 0x800 <> 0 then put_char b p '-' else p in
  if e = 0x7ff then put_string b p (if m = 0 then "inf" else "nan")
  else if e = 0 && m = 0 then put_string b p "0x0p+0"
  else begin
    (* subnormals keep the raw [0x0.<m>p-1022] form: still exact binary,
       still one [float_of_string] away from the original *)
    let p = put_string b p (if e = 0 then "0x0" else "0x1") in
    let p =
      if m = 0 then p
      else begin
        (* nibble [i] (0 = most significant) is [m lsr ((12 - i) * 4)];
           trailing zero nibbles are not written *)
        let last = ref 12 in
        while (m lsr ((12 - !last) * 4)) land 0xf = 0 do decr last done;
        let p = put_char b p '.' in
        for i = 0 to !last do
          Bytes.unsafe_set b (p + i)
            (String.unsafe_get hex_digits ((m lsr ((12 - i) * 4)) land 0xf))
        done;
        p + !last + 1
      end
    in
    let exp = if e = 0 then -1022 else e - 1023 in
    let p = put_char b p 'p' in
    put_int b (if exp >= 0 then put_char b p '+' else p) exp
  end

(* an upper bound on a sealed record's length, newline included *)
let max_record_bytes = function
  | Arrive { tenant; size; _ } ->
      String.length tenant + max_time_bytes
      + ((Vec.dim size + 2) * (max_int_bytes + 1))
      + 24
  | Depart { tenant; _ } -> String.length tenant + max_time_bytes + max_int_bytes + 24

let put_body b p = function
  | Arrive { tenant; time; item_id; size; bin_id; opened_new_bin } ->
      let p = put_string b (put_string b p "arrive,") tenant in
      let p = put_time b (put_char b p ',') time in
      let p = put_int b (put_char b p ',') item_id in
      let p = put_int b (put_char b p ',') bin_id in
      let p = ref (put_string b p (if opened_new_bin then ",1" else ",0")) in
      for i = 0 to Vec.dim size - 1 do
        p := put_int b (put_char b !p ',') (Vec.get size i)
      done;
      !p
  | Depart { tenant; time; item_id } ->
      let p = put_string b (put_string b p "depart,") tenant in
      let p = put_time b (put_char b p ',') time in
      put_int b (put_char b p ',') item_id

(* The record writer's buffer: growable bytes its owner reuses. Every
   journaled event pays encode cost before its reply can be released, so
   fields go straight into the bytes (no [string_of_int], no [Printf], no
   per-record [Buffer]). *)
module Buf = struct
  type t = { mutable bytes : Bytes.t; mutable len : int; initial : int }

  let create n = { bytes = Bytes.create n; len = 0; initial = n }
  let clear b = b.len <- 0
  let length b = b.len
  let contents b = Bytes.sub_string b.bytes 0 b.len

  let reserve b extra =
    if b.len + extra > Bytes.length b.bytes then begin
      let nb = Bytes.create (max (b.len + extra) (2 * Bytes.length b.bytes)) in
      Bytes.blit b.bytes 0 nb 0 b.len;
      b.bytes <- nb
    end

  let add_char b c =
    reserve b 1;
    b.len <- put_char b.bytes b.len c

  let add_string b s =
    reserve b (String.length s);
    b.len <- put_string b.bytes b.len s

  let add_int b n =
    reserve b max_int_bytes;
    b.len <- put_int b.bytes b.len n

  (* empty the buffer, giving back storage a large batch grew past [cap]
     bytes, so an idle writer holds at most [cap] however big its largest
     commit was *)
  let reset b ~cap =
    b.len <- 0;
    if Bytes.length b.bytes > cap then b.bytes <- Bytes.create b.initial
end

(* Append one sealed record line — [body ^ ",~%04x\n"] of the body
   checksum — to [b]: one bounds check, the fields, then the checksum
   over the record's span in place. The only record writer: the journal's
   group commit and streaming append, resume-time region rewrites and
   snapshot history all go through it. *)
let add_record b e =
  Buf.reserve b (max_record_bytes e);
  let out = b.Buf.bytes and start = b.Buf.len in
  let p = put_body out start e in
  let sum = checksum out ~pos:start ~len:(p - start) in
  Bytes.unsafe_set out p ',';
  Bytes.unsafe_set out (p + 1) '~';
  Bytes.unsafe_set out (p + 2) (String.unsafe_get hex_digits ((sum lsr 12) land 0xf));
  Bytes.unsafe_set out (p + 3) (String.unsafe_get hex_digits ((sum lsr 8) land 0xf));
  Bytes.unsafe_set out (p + 4) (String.unsafe_get hex_digits ((sum lsr 4) land 0xf));
  Bytes.unsafe_set out (p + 5) (String.unsafe_get hex_digits (sum land 0xf));
  Bytes.unsafe_set out (p + 6) '\n';
  b.Buf.len <- p + 7

let encode_event e =
  let b = Buf.create 64 in
  add_record b e;
  Bytes.sub_string b.Buf.bytes 0 (b.Buf.len - 1)

let ( let* ) = Result.bind

let parse_int what s =
  match int_of_string_opt (String.trim s) with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "bad %s %S" what s)

let parse_float what s =
  match float_of_string_opt (String.trim s) with
  | Some x when Float.is_finite x -> Ok x
  | Some _ | None -> Error (Printf.sprintf "bad %s %S" what s)

let rec collect_ints what = function
  | [] -> Ok []
  | s :: rest ->
      let* x = parse_int what s in
      let* xs = collect_ints what rest in
      Ok (x :: xs)

let split_checksum line =
  match String.rindex_opt line ',' with
  | Some i
    when i + 1 < String.length line
         && line.[i + 1] = '~'
         && String.length line - i - 2 = 4 -> (
      let hex = String.sub line (i + 2) 4 in
      match int_of_string_opt ("0x" ^ hex) with
      | Some sum when sum = checksum (Bytes.unsafe_of_string line) ~pos:0 ~len:i ->
          Ok (String.sub line 0 i)
      | Some _ -> Error "checksum mismatch"
      | None -> Error (Printf.sprintf "bad checksum field %S" hex))
  | _ -> Error "missing checksum field"

(* v1 records carry no tenant field (they all belong to [Tenant.default]);
   v2 records put the tenant right after the kind. The version comes from
   the file's magic line — the two grammars are not self-distinguishing
   (a v1 arrive's timestamp sits where a v2 tenant would). *)
let decode_event ?(version = 2) line =
  let* body = split_checksum line in
  let parse_tenant tenant =
    Result.map_error (fun _ -> Printf.sprintf "bad tenant %S" tenant)
      (Tenant.validate tenant)
  in
  let arrive ~tenant ~time ~item ~bin ~fresh ~sizes =
    let* tenant = parse_tenant tenant in
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
    let* sizes = collect_ints "size entry" sizes in
    match sizes with
    | [] -> Error "arrive record with no size"
    | _ ->
        if List.exists (fun s -> s < 0) sizes then Error "negative size"
        else
          Ok
            (Arrive
               { tenant; time; item_id; size = Vec.of_list sizes; bin_id; opened_new_bin })
  in
  let depart ~tenant ~time ~item =
    let* tenant = parse_tenant tenant in
    let* time = parse_float "departure time" time in
    let* item_id = parse_int "item id" item in
    Ok (Depart { tenant; time; item_id })
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

(* ---------- header rows (shared by the legacy file and segment formats) ---------- *)

let header_rows h =
  let buf = Buffer.create 96 in
  Buffer.add_string buf (Printf.sprintf "policy,%s\n" h.policy);
  Buffer.add_string buf (Printf.sprintf "seed,%d\n" h.seed);
  Buffer.add_string buf "capacity";
  Array.iter (fun c -> Buffer.add_string buf (Printf.sprintf ",%d" c)) (Vec.to_array h.capacity);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "base,%d\n" h.base);
  Buffer.contents buf

type partial_header = {
  mutable p_policy : string option;
  mutable p_seed : int option;
  mutable p_capacity : Vec.t option;
  mutable p_base : int option;
}

let empty_partial () =
  { p_policy = None; p_seed = None; p_capacity = None; p_base = None }

let finish_header p =
  match (p.p_policy, p.p_seed, p.p_capacity, p.p_base) with
  | Some policy, Some seed, Some capacity, Some base ->
      if base < 0 then Error "negative base" else Ok { policy; seed; capacity; base }
  | None, _, _, _ -> Error "incomplete header: missing policy row"
  | _, None, _, _ -> Error "incomplete header: missing seed row"
  | _, _, None, _ -> Error "incomplete header: missing capacity row"
  | _, _, _, None -> Error "incomplete header: missing base row"

let header_row ~line p trimmed =
  let dup what = Error (Printf.sprintf "line %d: duplicate %s row" line what) in
  match String.split_on_char ',' trimmed with
  | "policy" :: [ name ] ->
      if p.p_policy <> None then dup "policy"
      else if String.trim name = "" then Error (Printf.sprintf "line %d: empty policy" line)
      else (p.p_policy <- Some (String.trim name); Ok ())
  | "seed" :: [ s ] ->
      if p.p_seed <> None then dup "seed"
      else
        let* seed = Result.map_error (Printf.sprintf "line %d: %s" line) (parse_int "seed" s) in
        p.p_seed <- Some seed;
        Ok ()
  | "capacity" :: fields -> (
      if p.p_capacity <> None then dup "capacity"
      else
        let* cs =
          Result.map_error (Printf.sprintf "line %d: %s" line)
            (collect_ints "capacity entry" fields)
        in
        match cs with
        | [] -> Error (Printf.sprintf "line %d: empty capacity" line)
        | _ ->
            if List.exists (fun c -> c <= 0) cs then
              Error (Printf.sprintf "line %d: non-positive capacity" line)
            else (p.p_capacity <- Some (Vec.of_list cs); Ok ()))
  | "base" :: [ s ] ->
      if p.p_base <> None then dup "base"
      else
        let* base = Result.map_error (Printf.sprintf "line %d: %s" line) (parse_int "base" s) in
        p.p_base <- Some base;
        Ok ()
  | _ -> Error (Printf.sprintf "line %d: unrecognised header row %S" line trimmed)

let is_record trimmed =
  String.length trimmed >= 7
  && (String.sub trimmed 0 7 = "arrive," || String.sub trimmed 0 7 = "depart,")
