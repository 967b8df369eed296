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
   costs more than the record's other fields combined. The bits come in
   as two immediates ([top], [m]) so that a time read from a [float array]
   column is never boxed on its way here. *)
let put_time_bits b p ~top ~m =
  let e = top land 0x7ff in
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

(* {2 Record columns}

   A batch of records as parallel arrays, one row per record: what the
   server's group commit fills while it parses and places a batch, and
   what the journal encodes without building an [event] per row. Row [k]
   is an arrival record when [kind.[k] = 'A'], a departure record when it
   is ['D']; any other byte marks a row with no record (a refused or
   malformed request), which the writer skips. [tenant.(k)] indexes
   [names]. *)
type columns = {
  mutable kind : Bytes.t;
  mutable tenant : int array;
  mutable time : float array;
  mutable item : int array;
  mutable bin : int array;  (* arrivals: the bin the policy chose *)
  mutable fresh : Bytes.t;  (* arrivals: ['1'] opened a new bin, ['0'] did not *)
  mutable size : Vec.t array;  (* arrivals *)
  mutable names : string array;  (* the tenant-name table [tenant] indexes *)
}

let no_size = Vec.zero ~dim:1

let columns n =
  let n = max n 1 in
  {
    kind = Bytes.make n ' ';
    tenant = Array.make n 0;
    time = Array.make n 0.0;
    item = Array.make n 0;
    bin = Array.make n 0;
    fresh = Bytes.make n '0';
    size = Array.make n no_size;
    names = [||];
  }

(* room for [n] rows; contents are not kept (every batch fills its rows
   afresh), only [names] is *)
let ensure_rows c n =
  if Bytes.length c.kind < n then begin
    let n = max n (2 * Bytes.length c.kind) in
    c.kind <- Bytes.make n ' ';
    c.tenant <- Array.make n 0;
    c.time <- Array.make n 0.0;
    c.item <- Array.make n 0;
    c.bin <- Array.make n 0;
    c.fresh <- Bytes.make n '0';
    c.size <- Array.make n no_size
  end

(* row [k] := [e], its tenant in [names.(k)] *)
let set_event c k e =
  if k >= Array.length c.names then begin
    let names = Array.make (max (k + 1) (2 * Array.length c.names)) "" in
    Array.blit c.names 0 names 0 (Array.length c.names);
    c.names <- names
  end;
  c.tenant.(k) <- k;
  match e with
  | Arrive { tenant; time; item_id; size; bin_id; opened_new_bin } ->
      Bytes.set c.kind k 'A';
      c.names.(k) <- tenant;
      c.time.(k) <- time;
      c.item.(k) <- item_id;
      c.bin.(k) <- bin_id;
      Bytes.set c.fresh k (if opened_new_bin then '1' else '0');
      c.size.(k) <- size
  | Depart { tenant; time; item_id } ->
      Bytes.set c.kind k 'D';
      c.names.(k) <- tenant;
      c.time.(k) <- time;
      c.item.(k) <- item_id

(* an upper bound on a sealed record's length, newline included *)
let record_bound ~tenant ~dims =
  String.length tenant + max_time_bytes + ((dims + 2) * (max_int_bytes + 1)) + 24

let max_record_bytes = function
  | Arrive { tenant; size; _ } -> record_bound ~tenant ~dims:(Vec.dim size)
  | Depart { tenant; _ } -> record_bound ~tenant ~dims:0

(* the IEEE bits of a time as [put_time_bits] takes them; small enough to
   be inlined, so a time read from a [float array] is never boxed *)
let time_top v = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 52)
let time_mantissa v = Int64.to_int (Int64.bits_of_float v) land 0xF_FFFF_FFFF_FFFF
let put_time b p v = put_time_bits b p ~top:(time_top v) ~m:(time_mantissa v)

(* Append one sealed record line — [body ^ ",~%04x\n"] of the body
   checksum — to [b]: one bounds check, the fields, then the checksum over
   the record's span in place. The only place the record format is
   written: the journal's group commit ([add_row], from columns) and
   streaming append, resume-time region rewrites and snapshot history
   ([add_record], from an event) all go through it. A departure has no
   bin, flag or size. *)
let put_record b ~arrive ~tenant ~top ~m ~item ~bin ~fresh ~size =
  let dims = if arrive then Vec.dim size else 0 in
  Buf.reserve b (record_bound ~tenant ~dims);
  let out = b.Buf.bytes and start = b.Buf.len in
  let p = put_string out start (if arrive then "arrive," else "depart,") in
  let p = put_char out (put_string out p tenant) ',' in
  let p = put_time_bits out p ~top ~m in
  let p = put_int out (put_char out p ',') item in
  let p =
    if not arrive then p
    else begin
      let p = put_int out (put_char out p ',') bin in
      let p = ref (put_char out (put_char out p ',') fresh) in
      for i = 0 to dims - 1 do
        p := put_int out (put_char out !p ',') (Vec.get size i)
      done;
      !p
    end
  in
  let sum = checksum out ~pos:start ~len:(p - start) in
  Bytes.unsafe_set out p ',';
  Bytes.unsafe_set out (p + 1) '~';
  Bytes.unsafe_set out (p + 2) (String.unsafe_get hex_digits ((sum lsr 12) land 0xf));
  Bytes.unsafe_set out (p + 3) (String.unsafe_get hex_digits ((sum lsr 8) land 0xf));
  Bytes.unsafe_set out (p + 4) (String.unsafe_get hex_digits ((sum lsr 4) land 0xf));
  Bytes.unsafe_set out (p + 5) (String.unsafe_get hex_digits (sum land 0xf));
  Bytes.unsafe_set out (p + 6) '\n';
  b.Buf.len <- p + 7

(* row [k]'s record; false (nothing written) for a row with no record *)
let add_row b c k =
  let kind = Bytes.unsafe_get c.kind k in
  (kind = 'A' || kind = 'D')
  &&
  let time = c.time.(k) in
  put_record b ~arrive:(kind = 'A') ~tenant:c.names.(c.tenant.(k)) ~top:(time_top time)
    ~m:(time_mantissa time) ~item:c.item.(k) ~bin:c.bin.(k)
    ~fresh:(Bytes.unsafe_get c.fresh k) ~size:c.size.(k);
  true

let add_record b = function
  | Arrive { tenant; time; item_id; size; bin_id; opened_new_bin } ->
      put_record b ~arrive:true ~tenant ~top:(time_top time) ~m:(time_mantissa time)
        ~item:item_id ~bin:bin_id ~fresh:(if opened_new_bin then '1' else '0') ~size
  | Depart { tenant; time; item_id } ->
      put_record b ~arrive:false ~tenant ~top:(time_top time) ~m:(time_mantissa time)
        ~item:item_id ~bin:0 ~fresh:'0' ~size:no_size

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

(* {2 In-place record reader}

   Recovery reads every journaled record, so fields are scanned where
   they lie in the segment text: no [String.split_on_char], no per-field
   [String.sub]. A field the scanner does not read in one pass (a sign, an
   overlong number, blanks, a non-canonical time) goes to [parse_int] or
   [parse_float] on its substring, so every value and every error text is
   what the field-list reader produced. *)

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> -1

(* [-]digits in [s, e), at most 18 of them; [min_int] (which 18 digits
   cannot spell) when the field is anything else *)
let plain_int text s e =
  let neg = e > s && String.unsafe_get text s = '-' in
  let s' = if neg then s + 1 else s in
  if e <= s' || e - s' > 18 then min_int
  else begin
    let v = ref 0 and j = ref s' in
    while !j < e && (let d = Char.code (String.unsafe_get text !j) - 48 in d >= 0 && d <= 9) do
      v := (!v * 10) + Char.code (String.unsafe_get text !j) - 48;
      incr j
    done;
    if !j < e then min_int else if neg then - !v else !v
  end

(* The canonical spelling [put_time] gives a normal float —
   [[-]0x1[.h...]p(+|-)d...], at most 13 nibbles, exponent within
   [-1022, 1023] — decoded exactly from its mantissa and exponent; nan for
   anything else (zeros, subnormals, inf, nan, decimal v1 times), which the
   caller reads with [float_of_string]. *)
let hex_time text s e =
  let neg = e > s && String.unsafe_get text s = '-' in
  let i = if neg then s + 1 else s in
  if
    e - i < 5
    || String.unsafe_get text i <> '0'
    || String.unsafe_get text (i + 1) <> 'x'
    || String.unsafe_get text (i + 2) <> '1'
  then Float.nan
  else begin
    let j = ref (i + 3) and m = ref 0 and nibbles = ref 0 and ok = ref true in
    if String.unsafe_get text !j = '.' then begin
      incr j;
      while !j < e && hex_value (String.unsafe_get text !j) >= 0 do
        m := (!m lsl 4) lor hex_value (String.unsafe_get text !j);
        incr nibbles;
        incr j
      done;
      if !nibbles = 0 || !nibbles > 13 then ok := false
    end;
    if (not !ok) || !j >= e - 2 || String.unsafe_get text !j <> 'p' then Float.nan
    else begin
      let sign = String.unsafe_get text (!j + 1) in
      (* digits only: [plain_int] would also take a second sign *)
      let exp = if String.unsafe_get text (!j + 2) = '-' then -1 else plain_int text (!j + 2) e in
      if (sign <> '+' && sign <> '-') || exp < 0 || exp > 1023 then Float.nan
      else begin
        let exp = if sign = '-' then -exp else exp in
        if exp < -1022 then Float.nan
        else
          let bits =
            Int64.logor
              (Int64.shift_left (Int64.of_int (exp + 1023)) 52)
              (Int64.of_int (!m lsl (4 * (13 - !nibbles))))
          in
          let v = Int64.float_of_bits bits in
          if neg then -.v else v
      end
    end
  end

(* A field the reader cannot take raises [Bad] with the error text;
   [decode_sub] turns it back into an [Error]. *)
exception Bad of string

let ok_or_bad = function Ok v -> v | Error msg -> raise (Bad msg)

(* a record time field: canonical hex decoded in place, anything else
   through [parse_float] *)
let time_field what text s e =
  let v = hex_time text s e in
  if Float.is_nan v then ok_or_bad (parse_float what (String.sub text s (e - s))) else v

let int_field what text s e =
  let v = plain_int text s e in
  if v = min_int then ok_or_bad (parse_int what (String.sub text s (e - s))) else v

(* end of the comma-separated field starting at [s], stopping at [stop] *)
let field_end text s stop =
  let j = ref s in
  while !j < stop && String.unsafe_get text !j <> ',' do incr j done;
  !j

let same_sub text s e kw =
  e - s = String.length kw
  &&
  let j = ref 0 in
  while !j < e - s && String.unsafe_get text (s + !j) = String.unsafe_get kw !j do incr j done;
  !j = e - s

(* What a reader keeps from record to record: the last few tenant names
   it has seen, so the same bytes give back the same string, and the
   array the size entries are read into. *)
type reader = {
  seen : string array;
  mutable count : int;
  mutable next : int;
  mutable sizes : int array;
}

let reader () = { seen = Array.make 8 ""; count = 0; next = 0; sizes = [||] }

let tenant_name r text s e =
  let i = ref 0 in
  while !i < r.count && not (same_sub text s e r.seen.(!i)) do incr i done;
  if !i < r.count then r.seen.(!i)
  else begin
    let name = String.sub text s (e - s) in
    r.seen.(r.next) <- name;
    r.next <- (r.next + 1) mod Array.length r.seen;
    r.count <- min (r.count + 1) (Array.length r.seen);
    name
  end

let tenant_field r text s e =
  if Tenant.valid_sub text ~pos:s ~len:(e - s) then tenant_name r text s e
  else raise (Bad (Printf.sprintf "bad tenant %S" (String.sub text s (e - s))))

(* [sum] of the four checksum characters in [s, s + 4), or [-1] *)
let hex4 text s =
  let a = hex_value (String.unsafe_get text s)
  and b = hex_value (String.unsafe_get text (s + 1))
  and c = hex_value (String.unsafe_get text (s + 2))
  and d = hex_value (String.unsafe_get text (s + 3)) in
  if a < 0 || b < 0 || c < 0 || d < 0 then -1 else (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

(* the body's end (the position of [",~"]) once the checksum holds *)
let check_sum text pos stop =
  let i = ref (stop - 1) in
  while !i >= pos && String.unsafe_get text !i <> ',' do decr i done;
  let i = !i in
  if i >= pos && i + 1 < stop && String.unsafe_get text (i + 1) = '~' && stop - i - 2 = 4
  then begin
    let sum =
      match hex4 text (i + 2) with
      | -1 -> (
          let hex = String.sub text (i + 2) 4 in
          match int_of_string_opt ("0x" ^ hex) with
          | Some v -> v
          | None -> raise (Bad (Printf.sprintf "bad checksum field %S" hex)))
      | v -> v
    in
    if sum <> checksum (Bytes.unsafe_of_string text) ~pos ~len:(i - pos) then
      raise (Bad "checksum mismatch");
    i
  end
  else raise (Bad "missing checksum field")

(* arrive, after the kind (and tenant): fields from [s] to [stop] *)
let arrive_fields r text ~tenant s stop ~dims =
  let e = field_end text s stop in
  let time = time_field "arrival time" text s e in
  let s = e + 1 in
  let e = field_end text s stop in
  let item_id = int_field "item id" text s e in
  let s = e + 1 in
  let e = field_end text s stop in
  let bin_id = int_field "bin id" text s e in
  let s = e + 1 in
  let e = field_end text s stop in
  let opened_new_bin =
    match int_field "opened-new-bin flag" text s e with
    | 0 -> false
    | 1 -> true
    | n -> raise (Bad (Printf.sprintf "opened-new-bin flag must be 0 or 1, got %d" n))
  in
  if Array.length r.sizes <> dims then r.sizes <- Array.make dims 0;
  let sizes = r.sizes and s = ref (e + 1) and negative = ref false in
  for i = 0 to dims - 1 do
    let e = field_end text !s stop in
    let x = int_field "size entry" text !s e in
    if x < 0 then negative := true;
    sizes.(i) <- x;
    s := e + 1
  done;
  if dims = 0 then raise (Bad "arrive record with no size");
  if !negative then raise (Bad "negative size");
  Arrive { tenant; time; item_id; size = Vec.of_array sizes; bin_id; opened_new_bin }

(* v1 records carry no tenant field (they all belong to [Tenant.default]);
   v2 records put the tenant right after the kind. The version comes from
   the file's magic line — the two grammars are not self-distinguishing
   (a v1 arrive's timestamp sits where a v2 tenant would). *)
let decode_sub ?(version = 2) r text ~pos ~len =
  match
    let stop = check_sum text pos (pos + len) in
    let fields = ref 1 in
    for j = pos to stop - 1 do
      if String.unsafe_get text j = ',' then incr fields
    done;
    let fields = !fields in
    let kind_end = field_end text pos stop in
    let arrive = same_sub text pos kind_end "arrive"
    and depart = same_sub text pos kind_end "depart" in
    let known = version = 1 || version = 2 in
    (* the fields before the time: the kind, and the tenant in v2 *)
    let lead = if version = 2 then 2 else 1 in
    if known && ((arrive && fields >= lead + 4) || (depart && fields = lead + 2)) then begin
      let tenant_end = if version = 2 then field_end text (kind_end + 1) stop else kind_end in
      let tenant =
        if version = 2 then tenant_field r text (kind_end + 1) tenant_end else Tenant.default
      in
      let s = tenant_end + 1 in
      if arrive then arrive_fields r text ~tenant s stop ~dims:(fields - lead - 4)
      else
        let e = field_end text s stop in
        let time = time_field "departure time" text s e in
        Depart { tenant; time; item_id = int_field "item id" text (e + 1) stop }
    end
    else if arrive || depart then raise (Bad "malformed record")
    else
      raise
        (Bad (Printf.sprintf "unrecognised record kind %S" (String.sub text pos (kind_end - pos))))
  with
  | e -> Ok e
  | exception Bad msg -> Error msg

let decode_event ?version line =
  decode_sub ?version (reader ()) line ~pos:0 ~len:(String.length line)

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

(* whether [text.[pos .. pos+len)] starts like a record, read in place *)
let record_at text ~pos ~len =
  len >= 7
  && (same_sub text pos (pos + 7) "arrive," || same_sub text pos (pos + 7) "depart,")

let is_record trimmed = record_at trimmed ~pos:0 ~len:(String.length trimmed)

(* String.trim's blanks *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* the bounds [String.trim] would keep of [text.[pos .. stop)] *)
let trim_start text pos stop =
  let i = ref pos in
  while !i < stop && is_blank (String.unsafe_get text !i) do incr i done;
  !i

let trim_stop text pos stop =
  let i = ref stop in
  while !i > pos && is_blank (String.unsafe_get text (!i - 1)) do decr i done;
  !i

(* where the line starting at [pos] ends: its newline, or the end of
   [text] *)
let line_stop text pos =
  let n = String.length text and i = ref pos in
  while !i < n && String.unsafe_get text !i <> '\n' do incr i done;
  !i
