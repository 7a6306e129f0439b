type task = { id : int; name : string; w_blue : float; w_red : float }
type edge = { eid : int; src : int; dst : int; size : float; comm : float }

(* The one stored form of a graph, built once at [finalize]: task names, SoA
   task and edge attributes, CSR adjacency rows, topological layers and the
   cached topological order.  The packed edge ids of each row are in
   ascending eid order (insertion order), so every fold over a row
   accumulates floats in a fixed, documented order.  The [task]/[edge]
   records and the [pred]/[children]/[parents] lists are views built
   from these arrays on demand. *)
type t = {
  names : string array;
  w_blue : float array;  (* SoA task attributes, indexed by task id *)
  w_red : float array;
  e_src : int array;  (* SoA edge attributes, indexed by eid *)
  e_dst : int array;
  e_size : float array;
  e_comm : float array;
  succ_off : int array;  (* length n+1: row [i] is [succ_off.(i) .. succ_off.(i+1) - 1] *)
  succ_eid : int array;  (* packed outgoing edge ids, ascending eid within a row *)
  succ_dst : int array;  (* dst of the edge at the same packed index *)
  pred_off : int array;
  pred_eid : int array;  (* packed incoming edge ids, ascending eid within a row *)
  pred_src : int array;
  in_sz : float array;  (* total input / output file size per task *)
  out_sz : float array;
  layer_of : int array;  (* topological depth: 0 for sources, 1 + max parent depth *)
  layer_off : int array;  (* length n_layers+1 into [layer_tasks] *)
  layer_tasks : int array;  (* task ids grouped by layer, ascending within a layer *)
  topo : int array;  (* cached topological order *)
}

module Builder = struct
  (* Growable SoA columns; only the first [ntasks] / [nedges] slots are
     live.  [finalize] trims them to their exact lengths. *)
  type t = {
    mutable names : string array;
    mutable w_blue : float array;
    mutable w_red : float array;
    mutable ntasks : int;
    mutable e_src : int array;
    mutable e_dst : int array;
    mutable e_size : float array;
    mutable e_comm : float array;
    mutable nedges : int;
  }

  let create () =
    { names = [||]; w_blue = [||]; w_red = [||]; ntasks = 0;
      e_src = [||]; e_dst = [||]; e_size = [||]; e_comm = [||]; nedges = 0 }

  (* Doubling growth keeps appends amortised O(1). *)
  let grow a len fill =
    let b = Array.make (max 16 (2 * len)) fill in
    Array.blit a 0 b 0 len;
    b

  let add_task b ?name ~w_blue ~w_red () =
    Fp.check_finite ~what:"Dag.Builder.add_task: processing time" w_blue;
    Fp.check_finite ~what:"Dag.Builder.add_task: processing time" w_red;
    if w_blue < 0. || w_red < 0. then invalid_arg "Dag.Builder.add_task: negative time";
    let id = b.ntasks in
    if id = Array.length b.names then begin
      b.names <- grow b.names id "";
      b.w_blue <- grow b.w_blue id 0.;
      b.w_red <- grow b.w_red id 0.
    end;
    b.names.(id) <- (match name with Some n -> n | None -> "t" ^ Int.to_string id);
    b.w_blue.(id) <- w_blue;
    b.w_red.(id) <- w_red;
    b.ntasks <- id + 1;
    id

  let add_edge b ~src ~dst ~size ~comm =
    if src < 0 || src >= b.ntasks || dst < 0 || dst >= b.ntasks then
      invalid_arg "Dag.Builder.add_edge: dangling endpoint";
    if src = dst then invalid_arg "Dag.Builder.add_edge: self-loop";
    Fp.check_finite ~what:"Dag.Builder.add_edge: file size" size;
    Fp.check_finite ~what:"Dag.Builder.add_edge: transfer time" comm;
    if size < 0. || comm < 0. then invalid_arg "Dag.Builder.add_edge: negative attribute";
    let k = b.nedges in
    if k = Array.length b.e_src then begin
      b.e_src <- grow b.e_src k 0;
      b.e_dst <- grow b.e_dst k 0;
      b.e_size <- grow b.e_size k 0.;
      b.e_comm <- grow b.e_comm k 0.
    end;
    b.e_src.(k) <- src;
    b.e_dst.(k) <- dst;
    b.e_size.(k) <- size;
    b.e_comm.(k) <- comm;
    b.nedges <- k + 1

  (* Two-pass counting sort of the ids [0 .. length key - 1] by [key]:
     returns the row offsets and the packed ids.  Scanning ids in ascending
     order through the row cursors packs each row in ascending id order. *)
  let pack ~n key =
    let off = Array.make (n + 1) 0 in
    Array.iter (fun v -> off.(v + 1) <- off.(v + 1) + 1) key;
    for i = 1 to n do
      off.(i) <- off.(i) + off.(i - 1)
    done;
    let packed = Array.make (Array.length key) 0 in
    let cur = Array.sub off 0 n in
    Array.iteri
      (fun k v ->
        packed.(cur.(v)) <- k;
        cur.(v) <- cur.(v) + 1)
      key;
    (off, packed)

  (* One stamp per task: [stamp.(d) = i] once row [i] has reached [d], so a
     second visit within the same row is a duplicate (src, dst) pair. *)
  let check_no_duplicates ~n ~succ_off ~succ_dst =
    let stamp = Array.make n (-1) in
    for i = 0 to n - 1 do
      for p = succ_off.(i) to succ_off.(i + 1) - 1 do
        let d = succ_dst.(p) in
        if stamp.(d) = i then invalid_arg "Dag.Builder.finalize: duplicate edge";
        stamp.(d) <- i
      done
    done

  (* Kahn's algorithm over the successor rows; the priority queue pops the
     smallest ready id first, making the order deterministic. *)
  let topo_sort ~n ~succ_off ~succ_dst ~pred_off =
    let indeg = Array.init n (fun i -> pred_off.(i + 1) - pred_off.(i)) in
    let ready = Pqueue.create ~cmp:Int.compare in
    for i = 0 to n - 1 do
      if indeg.(i) = 0 then Pqueue.push ready i
    done;
    let order = Array.make n (-1) in
    let k = ref 0 in
    while not (Pqueue.is_empty ready) do
      let i = Pqueue.pop_exn ready in
      order.(!k) <- i;
      incr k;
      for p = succ_off.(i) to succ_off.(i + 1) - 1 do
        let d = succ_dst.(p) in
        indeg.(d) <- indeg.(d) - 1;
        if indeg.(d) = 0 then Pqueue.push ready d
      done
    done;
    if !k <> n then invalid_arg "Dag.Builder.finalize: graph has a cycle";
    order

  (* Left folds of the edge sizes over each row, in row (= eid) order. *)
  let row_sums ~n ~off ~eid ~e_size =
    Array.init n (fun i ->
        let acc = ref 0. in
        for k = off.(i) to off.(i + 1) - 1 do
          acc := !acc +. e_size.(eid.(k))
        done;
        !acc)

  let layers ~n ~pred_off ~pred_src ~topo =
    let layer_of = Array.make n 0 in
    let n_layers = ref (if n = 0 then 0 else 1) in
    Array.iter
      (fun i ->
        let d = ref 0 in
        for k = pred_off.(i) to pred_off.(i + 1) - 1 do
          let dp = layer_of.(pred_src.(k)) + 1 in
          if dp > !d then d := dp
        done;
        layer_of.(i) <- !d;
        if !d + 1 > !n_layers then n_layers := !d + 1)
      topo;
    let layer_off, layer_tasks = pack ~n:!n_layers layer_of in
    (layer_of, layer_off, layer_tasks)

  let finalize b =
    let n = b.ntasks and m = b.nedges in
    let e_src = Array.sub b.e_src 0 m and e_dst = Array.sub b.e_dst 0 m in
    let e_size = Array.sub b.e_size 0 m and e_comm = Array.sub b.e_comm 0 m in
    let succ_off, succ_eid = pack ~n e_src in
    let succ_dst = Array.map (Array.get e_dst) succ_eid in
    check_no_duplicates ~n ~succ_off ~succ_dst;
    let pred_off, pred_eid = pack ~n e_dst in
    let pred_src = Array.map (Array.get e_src) pred_eid in
    let topo = topo_sort ~n ~succ_off ~succ_dst ~pred_off in
    let layer_of, layer_off, layer_tasks = layers ~n ~pred_off ~pred_src ~topo in
    let in_sz = row_sums ~n ~off:pred_off ~eid:pred_eid ~e_size in
    let out_sz = row_sums ~n ~off:succ_off ~eid:succ_eid ~e_size in
    let names = Array.sub b.names 0 n in
    let w_blue = Array.sub b.w_blue 0 n and w_red = Array.sub b.w_red 0 n in
    { names; w_blue; w_red; e_src; e_dst; e_size; e_comm; succ_off; succ_eid; succ_dst;
      pred_off; pred_eid; pred_src; in_sz; out_sz; layer_of; layer_off; layer_tasks; topo }
end

let n_tasks g = Array.length g.names
let n_edges g = Array.length g.e_src
let name g i = g.names.(i)
let task g i = { id = i; name = g.names.(i); w_blue = g.w_blue.(i); w_red = g.w_red.(i) }

let edge g k =
  { eid = k; src = g.e_src.(k); dst = g.e_dst.(k); size = g.e_size.(k); comm = g.e_comm.(k) }

let tasks g = Array.init (n_tasks g) (task g)
let edges g = Array.init (n_edges g) (edge g)

(* A packed row as a fresh list, in row order. *)
let row_list off packed f i =
  let acc = ref [] in
  for p = off.(i + 1) - 1 downto off.(i) do
    acc := f packed.(p) :: !acc
  done;
  !acc

let pred g i = row_list g.pred_off g.pred_eid (edge g) i
let children g i = row_list g.succ_off g.succ_dst Fun.id i
let parents g i = row_list g.pred_off g.pred_src Fun.id i

let find_edge g ~src ~dst =
  if src < 0 || src >= n_tasks g then None
  else begin
    let rec scan p =
      if p >= g.succ_off.(src + 1) then None
      else if g.succ_dst.(p) = dst then Some (edge g g.succ_eid.(p))
      else scan (p + 1)
    in
    scan g.succ_off.(src)
  end

(* Tasks whose [off] row is empty, ascending. *)
let empty_rows off =
  let acc = ref [] in
  for i = Array.length off - 2 downto 0 do
    if off.(i) = off.(i + 1) then acc := i :: !acc
  done;
  !acc

let sources g = empty_rows g.pred_off
let sinks g = empty_rows g.succ_off
let in_size g i = g.in_sz.(i)
let out_size g i = g.out_sz.(i)
let mem_req g i = in_size g i +. out_size g i
let total_file_size g = Array.fold_left ( +. ) 0. g.e_size

(* Read-only views of the arena.  The contract (enforced by the
   [order-stability] lint rule fencing raw [Array.unsafe_*] outside this
   file, and by test_csr's naive-scan oracle) is: packed rows are in
   ascending eid order. *)
module Csr = struct
  let succ_off g = g.succ_off
  let succ_eid g = g.succ_eid
  let succ_dst g = g.succ_dst
  let pred_off g = g.pred_off
  let pred_eid g = g.pred_eid
  let pred_src g = g.pred_src
  let e_src g = g.e_src
  let e_dst g = g.e_dst
  let e_size g = g.e_size
  let e_comm g = g.e_comm
  let w_blue g = g.w_blue
  let w_red g = g.w_red
  let in_sz g = g.in_sz
  let out_sz g = g.out_sz
  let in_degree g i = g.pred_off.(i + 1) - g.pred_off.(i)
  let out_degree g i = g.succ_off.(i + 1) - g.succ_off.(i)

  let max_in_degree g =
    let d = ref 0 in
    for i = 0 to n_tasks g - 1 do
      let di = in_degree g i in
      if di > !d then d := di
    done;
    !d

  let n_layers g = Array.length g.layer_off - 1
  let layer_of g = g.layer_of
  let layer_off g = g.layer_off
  let layer_tasks g = g.layer_tasks
end

let w_min g i = Float.min g.w_blue.(i) g.w_red.(i)
let topological_order g = Array.copy g.topo

let is_topological g order =
  let n = n_tasks g in
  if Array.length order <> n then false
  else begin
    let pos = Array.make n (-1) in
    let ok = ref true in
    Array.iteri
      (fun k i -> if i < 0 || i >= n || pos.(i) >= 0 then ok := false else pos.(i) <- k)
      order;
    let rec edges_ok k =
      k >= n_edges g || (pos.(g.e_src.(k)) < pos.(g.e_dst.(k)) && edges_ok (k + 1))
    in
    !ok && edges_ok 0
  end

let longest_path g ~node_weight ~edge_weight =
  let n = n_tasks g in
  if n = 0 then 0.
  else begin
    let dist = Array.make n neg_infinity in
    Array.iter
      (fun i ->
        let acc = ref 0. in
        for p = g.pred_off.(i) to g.pred_off.(i + 1) - 1 do
          acc := Float.max !acc (dist.(g.pred_src.(p)) +. edge_weight g.pred_eid.(p))
        done;
        dist.(i) <- !acc +. node_weight i)
      g.topo;
    Array.fold_left Float.max neg_infinity dist
  end

let critical_path_min g = longest_path g ~node_weight:(w_min g) ~edge_weight:(fun _ -> 0.)

let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "dag %d %d\n" (n_tasks g) (n_edges g));
  (* The line format is whitespace-separated: keep names parseable. *)
  let safe_name n = String.map (fun c -> if c = ' ' || c = '\t' then '_' else c) n in
  for i = 0 to n_tasks g - 1 do
    Buffer.add_string buf
      (Printf.sprintf "task %d %s %.17g %.17g\n" i (safe_name g.names.(i)) g.w_blue.(i) g.w_red.(i))
  done;
  for k = 0 to n_edges g - 1 do
    Buffer.add_string buf
      (Printf.sprintf "edge %d %d %.17g %.17g\n" g.e_src.(k) g.e_dst.(k) g.e_size.(k) g.e_comm.(k))
  done;
  Buffer.contents buf

let of_string s =
  let fail fmt = Printf.ksprintf invalid_arg ("Dag.of_string: " ^^ fmt) in
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> fail "empty input"
  | header :: rest ->
    let n, m =
      match String.split_on_char ' ' header with
      | [ "dag"; n; m ] -> (
        match (int_of_string_opt n, int_of_string_opt m) with
        | Some n, Some m -> (n, m)
        | _ -> fail "bad header %S" header)
      | _ -> fail "bad header %S" header
    in
    let b = Builder.create () in
    let tasks_seen = ref 0 and edges_seen = ref 0 in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | "task" :: id :: name :: wb :: wr :: [] -> (
          match (int_of_string_opt id, float_of_string_opt wb, float_of_string_opt wr) with
          | Some id, Some wb, Some wr ->
            if id <> !tasks_seen then fail "task ids must be dense and in order";
            ignore (Builder.add_task b ~name ~w_blue:wb ~w_red:wr ());
            incr tasks_seen
          | _ -> fail "bad task line %S" line)
        | "edge" :: src :: dst :: size :: comm :: [] -> (
          match
            ( int_of_string_opt src,
              int_of_string_opt dst,
              float_of_string_opt size,
              float_of_string_opt comm )
          with
          | Some src, Some dst, Some size, Some comm ->
            Builder.add_edge b ~src ~dst ~size ~comm;
            incr edges_seen
          | _ -> fail "bad edge line %S" line)
        | _ -> fail "unknown line %S" line)
      rest;
    if !tasks_seen <> n then fail "expected %d tasks, got %d" n !tasks_seen;
    if !edges_seen <> m then fail "expected %d edges, got %d" m !edges_seen;
    Builder.finalize b

let to_dot ?highlight g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph dag {\n  rankdir=TB;\n  node [shape=box];\n";
  for i = 0 to n_tasks g - 1 do
    let fill =
      match highlight with
      | Some f -> (
        match f i with
        | Some color -> Printf.sprintf ", style=filled, fillcolor=\"%s\"" color
        | None -> "")
      | None -> ""
    in
    Buffer.add_string buf
      (Printf.sprintf "  n%d [label=\"%s\\nWb=%g Wr=%g\"%s];\n" i g.names.(i) g.w_blue.(i)
         g.w_red.(i) fill)
  done;
  for k = 0 to n_edges g - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  n%d -> n%d [label=\"F=%g C=%g\"];\n" g.e_src.(k) g.e_dst.(k) g.e_size.(k)
         g.e_comm.(k))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_stats ppf g =
  let n = n_tasks g in
  let max_deg = ref 0 in
  for i = 0 to n - 1 do
    max_deg := max !max_deg (Csr.out_degree g i)
  done;
  Format.fprintf ppf "tasks=%d edges=%d sources=%d sinks=%d max-out-degree=%d cp(min-w)=%g" n
    (n_edges g)
    (List.length (sources g))
    (List.length (sinks g))
    !max_deg (critical_path_min g)
