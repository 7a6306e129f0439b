(* Clock, order statistics and the best-of-k reduction every timing metric
   of the benchmark is built from. *)

let now () = Unix.gettimeofday ()

(* Nearest-rank percentile: the smallest sample with at least [p * n]
   samples at or below it.  Always an observed value, never an
   interpolation between two jobs. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Timing.percentile: no samples";
  if not (p > 0. && p <= 1.) then invalid_arg "Timing.percentile: p outside (0, 1]";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  s.(Int.max 0 (Int.min (n - 1) (rank - 1)))

let median xs = percentile 0.5 xs
let minimum xs = percentile Float.epsilon xs

(* [best] holds, per job, the fastest time seen so far; [infinity] until a
   pass has timed that job. *)
let best_create n = Array.make n infinity

let best_record best times =
  if Array.length best <> Array.length times then invalid_arg "Timing.best_record: length mismatch";
  Array.iteri (fun i t -> if t < best.(i) then best.(i) <- t) times

(* A fixed integer loop with no allocation or memory traffic: a slow
   reading flags a host that was slow for reasons outside the program.  It
   is recorded beside each run and never used to scale a metric. *)
let spin_ms () =
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 20_000_000 do
    x := ((!x * 1103515245) + i) land 0x3fff_ffff
  done;
  ignore (Sys.opaque_identity !x);
  (now () -. t0) *. 1000.
