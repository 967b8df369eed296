(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.
   Kept dependency-free: the trace store must be readable by tools that
   link nothing but the stdlib.

   [tables] holds eight 256-entry tables back to back: table 0 is the
   classic byte-at-a-time table, and table [k] advances a byte through [k]
   further zero bytes, so one step folds eight input bytes with eight
   lookups instead of eight dependent ones. The tables are built once, at
   module initialisation. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let update crc bytes ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length bytes then
    invalid_arg "Crc32.update: range out of bounds";
  let t = tables in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    (* eight bytes, little-endian: the low word meets the running crc *)
    let w = get64u bytes !i in
    let w = if Sys.big_endian then bswap64 w else w in
    let lo = (Int64.to_int w land 0xFFFFFFFF) lxor !c in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (hi land 0xFF))
      lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get bytes j)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  update 0 b ~pos ~len

let string s = bytes (Bytes.unsafe_of_string s)
