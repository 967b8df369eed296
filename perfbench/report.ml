(* What one benchmark run prints.

   Every metric goes to standard output as a [metric <name> <value> <unit>]
   line, every correctness check as a [check <name> ok|FAILED <detail>]
   line, and the run's context (seed, nproc, OCaml version, per-library
   line counts) as one [meta] JSON line. The last line is the JSON result
   object: [correct], [attempted], [failed], and the metrics asked for. *)

type t = {
  mutable metrics : (string * float * string) list;  (* newest first *)
  mutable checks : (string * bool) list;
  mutable attempted : int;
  mutable failed : int;
}

let create () = { metrics = []; checks = []; attempted = 0; failed = 0 }

let add t name ~unit_ value =
  t.metrics <- (name, value, unit_) :: List.filter (fun (n, _, _) -> n <> name) t.metrics;
  Printf.printf "metric %-40s %18.6f %s\n%!" name value unit_

let find t name =
  List.find_map (fun (n, v, _) -> if n = name then Some v else None) t.metrics

(* [attempted] operations of which [failed] went wrong *)
let count t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

let check t name ok detail =
  t.checks <- (name, ok) :: t.checks;
  Printf.printf "check  %-40s %s %s\n%!" name (if ok then "ok" else "FAILED") detail

let correct t = t.failed = 0 && List.for_all snd t.checks && t.checks <> []

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* {1 Run context} *)

(* Peak resident set of this process, from the kernel's high-water mark. *)
let rss_peak_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
             | _ -> None)
      |> Option.value ~default:nan
  | exception Sys_error _ -> nan

(* Non-blank source lines per library under [root/lib], the way gnatmetric
   counts lines: simplicity changes show their deletions next to their
   performance. *)
let line_counts root =
  let lib = Filename.concat root "lib" in
  let dirs = try Sys.readdir lib with Sys_error _ -> [||] in
  Array.sort compare dirs;
  Array.to_list dirs
  |> List.filter_map (fun d ->
         let dir = Filename.concat lib d in
         if not (Sys.is_directory dir) then None
         else
           let files =
             Sys.readdir dir |> Array.to_list
             |> List.filter (fun f ->
                    Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
           in
           let count f =
             In_channel.with_open_text (Filename.concat dir f) In_channel.input_all
             |> String.split_on_char '\n'
             |> List.filter (fun l -> String.trim l <> "")
             |> List.length
           in
           Some (d, List.fold_left (fun acc f -> acc + count f) 0 files))

let print_meta ~workload ~seed ~seconds ~trace ~extra =
  let fields =
    [
      ("workload", json_string workload);
      ("seed", string_of_int seed);
      ("seconds", json_number seconds);
      ("trace", string_of_bool trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version);
      ( "lines_per_library",
        "{"
        ^ String.concat ", "
            (List.map
               (fun (d, n) -> Printf.sprintf "%s: %d" (json_string d) n)
               (line_counts "."))
        ^ "}" );
    ]
    @ extra
  in
  Printf.printf "meta {%s}\n%!"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) v) fields))

(* The result line: exactly the metrics named in [wanted], each of which
   must have been measured. *)
let result_line t ~wanted =
  if t.attempted < 1 then failwith "no operation was attempted";
  let missing = List.filter (fun (n, _) -> find t n = None) wanted in
  if missing <> [] then
    failwith
      ("metrics not measured: " ^ String.concat ", " (List.map fst missing));
  let metrics =
    List.map
      (fun (name, unit_) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (json_number (Option.get (find t name)))
          (json_string unit_))
      wanted
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct t) t.attempted t.failed (String.concat ", " metrics)
