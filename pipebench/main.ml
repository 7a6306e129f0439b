(* Pipeline benchmark: generate -> plan -> verify jobs under memory caps.

   Usage: main.exe --workload (rand-sweep|tiled-pipeline|tiled-minmin)
                   [--seed N] [--seconds S] [--trace 0|1]

   Run from the root of the checkout (pipebench/run.sh builds and runs it).
   BENCHMARK.json lists rand-sweep and tiled-pipeline; tiled-minmin runs
   by name, as a probe of MemMinMin on wide ready sets.
   Prints a machine block, notes and every metric by name and unit, then
   as its last line one JSON object {correct, attempted, failed, metrics}:
   the end-to-end metrics with --trace 0, the per-layer metrics of a
   traced run with --trace 1.  Job verdicts are checked against
   pipebench/digests.txt; a traced run writes its spans to
   .pipebench_out/trace_<workload>_<seed>.jsonl. *)

open Pipebench

let digests_file = "pipebench/digests.txt"
let trace_dir = ".pipebench_out"

let usage () =
  prerr_endline
    "usage: main.exe --workload (rand-sweep|tiled-pipeline|tiled-minmin) [--seed N] [--seconds S] \
     [--trace 0|1]";
  exit 2

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("pipebench: " ^ m);
      exit 2)
    fmt

(* Cache sizes come from getconf, which asks the CPU itself. *)
let getconf name =
  let ic = Unix.open_process_args_in "getconf" [| "getconf"; name |] in
  let v = String.trim (In_channel.input_all ic) in
  match Unix.close_process_in ic with Unix.WEXITED 0 when v <> "" -> v | _ -> "?"

let () =
  (* The defaults are BENCHMARK.json's: the stored digests' seed and its
     run_seconds, the run length the bounds were measured at. *)
  let workload = ref None and seed = ref 2014 and seconds = ref 55. and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (match Jobs.workload_of_string v with
      | Some w -> workload := Some w
      | None -> die "unknown workload %s" v);
      parse rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some n -> seed := n | None -> die "--seed: not an integer: %s" v);
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when Float.is_finite s && s >= 0. -> seconds := s
      | _ -> die "--seconds: not a non-negative number: %s" v);
      parse rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := false
      | "1" -> trace := true
      | _ -> die "--trace: expected 0 or 1, got %s" v);
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload = match !workload with Some w -> w | None -> usage () in
  let stored =
    try Jobs.parse_digests (In_channel.with_open_text digests_file In_channel.input_all) with
    | Sys_error e -> die "%s" e
    | Failure e -> die "%s: %s" digests_file e
  in
  Printf.printf "machine: nproc %d, l2_bytes %s, l3_bytes %s, ocaml %s, OCAMLRUNPARAM %s\n"
    (Domain.recommended_domain_count ())
    (getconf "LEVEL2_CACHE_SIZE") (getconf "LEVEL3_CACHE_SIZE") Sys.ocaml_version
    (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"(unset)");
  let report =
    Measure.run
      { Measure.workload;
        scale = Jobs.Full;
        seed = !seed;
        seconds = !seconds;
        trace = !trace;
        expected_digest = List.assoc_opt (Jobs.workload_name workload, !seed) stored }
  in
  List.iter print_endline report.Measure.notes;
  List.iter
    (fun x -> Printf.printf "%s = %.6g %s\n" x.Measure.name x.Measure.value x.Measure.unit)
    report.Measure.metrics;
  (match report.Measure.spans with
  | Some sp ->
    if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
    let path =
      Filename.concat trace_dir (Printf.sprintf "trace_%s_%d.jsonl" (Jobs.workload_name workload) !seed)
    in
    Spans.write sp path;
    Printf.printf "spans: %d written to %s\n" (Spans.length sp) path
  | None -> ());
  print_endline (Measure.render_json report)
