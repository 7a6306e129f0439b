(* The CSR / SoA arena is the only stored form of [Dag.t], so its adjacency
   contract is checked against an oracle that does not share its code: the
   expected rows, size folds, degrees and layers are rebuilt here by one
   naive scan over edge ids 0..m-1 (bucketed lists, no counting sort).  The
   property runs over the differential fuzzer's DAG families; the kernel
   families are also pinned to their serialised bytes and the hand-built
   cases to their builder inputs.  Further down: the builder/platform
   non-finite input guards and a 100k-task build smoke with allocation and
   retained-size bounds. *)

open Helpers

let check_int_list msg = Alcotest.(check (list int)) msg

(* Naive expected rows: scanning eids in ascending order and consing into
   per-task buckets, then reversing, lists each row in ascending eid. *)
let naive_rows n m key =
  let rows = Array.make n [] in
  for k = m - 1 downto 0 do
    rows.(key.(k)) <- k :: rows.(key.(k))
  done;
  rows

let check_csr_equiv g =
  let n = Dag.n_tasks g and m = Dag.n_edges g in
  let e_src = Dag.Csr.e_src g
  and e_dst = Dag.Csr.e_dst g
  and e_size = Dag.Csr.e_size g in
  check_int "e_src length" m (Array.length e_src);
  check_int "e_dst length" m (Array.length e_dst);
  let out_rows = naive_rows n m e_src and in_rows = naive_rows n m e_dst in
  let succ_off = Dag.Csr.succ_off g
  and succ_eid = Dag.Csr.succ_eid g
  and succ_dst = Dag.Csr.succ_dst g
  and pred_off = Dag.Csr.pred_off g
  and pred_eid = Dag.Csr.pred_eid g
  and pred_src = Dag.Csr.pred_src g in
  check_int "succ_off length" (n + 1) (Array.length succ_off);
  check_int "pred_off length" (n + 1) (Array.length pred_off);
  let in_sz = Dag.Csr.in_sz g and out_sz = Dag.Csr.out_sz g in
  let max_in = ref 0 in
  for i = 0 to n - 1 do
    let row off packed = Array.to_list (Array.sub packed off.(i) (off.(i + 1) - off.(i))) in
    let out_row = out_rows.(i) and in_row = in_rows.(i) in
    check_int_list "succ eids" out_row (row succ_off succ_eid);
    check_int_list "pred eids" in_row (row pred_off pred_eid);
    check_int_list "succ dsts" (List.map (fun k -> e_dst.(k)) out_row) (row succ_off succ_dst);
    check_int_list "pred srcs" (List.map (fun k -> e_src.(k)) in_row) (row pred_off pred_src);
    (* The allocating list views list the same rows in the same order. *)
    check_int_list "pred view" in_row (List.map (fun e -> e.Dag.eid) (Dag.pred g i));
    check_int_list "children view" (List.map (fun k -> e_dst.(k)) out_row) (Dag.children g i);
    check_int_list "parents view" (List.map (fun k -> e_src.(k)) in_row) (Dag.parents g i);
    (* Left folds in ascending eid order: exact equality. *)
    let sum row = List.fold_left (fun acc k -> acc +. e_size.(k)) 0. row in
    if not (Float.equal (sum in_row) in_sz.(i)) then
      Alcotest.failf "in_sz mismatch at task %d" i;
    if not (Float.equal (sum out_row) out_sz.(i)) then
      Alcotest.failf "out_sz mismatch at task %d" i;
    check_int "in_degree" (List.length in_row) (Dag.Csr.in_degree g i);
    check_int "out_degree" (List.length out_row) (Dag.Csr.out_degree g i);
    max_in := max !max_in (List.length in_row)
  done;
  check_int "max_in_degree" !max_in (Dag.Csr.max_in_degree g);
  (* Topological order: a permutation with every edge pointing forward. *)
  let topo = Dag.topological_order g in
  let pos = Array.make n (-1) in
  Array.iteri (fun k i -> pos.(i) <- k) topo;
  check_bool "topo is a permutation" true (Array.for_all (fun p -> p >= 0) pos);
  for k = 0 to m - 1 do
    if pos.(e_src.(k)) >= pos.(e_dst.(k)) then Alcotest.failf "edge %d points backwards in topo" k
  done;
  (* Topological layers: sources at 0, every other task one past its deepest
     parent (parents taken from the naive rows); the grouped index lists
     exactly the tasks of each layer, ascending. *)
  let layer_of = Dag.Csr.layer_of g
  and layer_off = Dag.Csr.layer_off g
  and layer_tasks = Dag.Csr.layer_tasks g in
  let n_layers = Dag.Csr.n_layers g in
  check_int "n_layers" (Array.fold_left (fun acc l -> max acc (l + 1)) 0 layer_of) n_layers;
  check_int "layer_off length" (n_layers + 1) (Array.length layer_off);
  check_int "layer_tasks length" n (Array.length layer_tasks);
  for i = 0 to n - 1 do
    let expect = List.fold_left (fun acc k -> max acc (layer_of.(e_src.(k)) + 1)) 0 in_rows.(i) in
    check_int "layer_of" expect layer_of.(i)
  done;
  for l = 0 to n_layers - 1 do
    let expect = List.filter (fun i -> layer_of.(i) = l) (List.init n Fun.id) in
    check_int_list "layer grouping" expect
      (Array.to_list (Array.sub layer_tasks layer_off.(l) (layer_off.(l + 1) - layer_off.(l))))
  done

(* The SoA attributes hold exactly what the builder was given, by id. *)
let check_inputs g ~tasks ~edges =
  List.iteri
    (fun i (name, w_blue, w_red) ->
      check_string "name" name (Dag.name g i);
      check_float "w_blue" w_blue (Dag.Csr.w_blue g).(i);
      check_float "w_red" w_red (Dag.Csr.w_red g).(i))
    tasks;
  List.iteri
    (fun k (src, dst, size, comm) ->
      check_int "e_src" src (Dag.Csr.e_src g).(k);
      check_int "e_dst" dst (Dag.Csr.e_dst g).(k);
      check_float "e_size" size (Dag.Csr.e_size g).(k);
      check_float "e_comm" comm (Dag.Csr.e_comm g).(k))
    edges;
  check_int "n_tasks" (List.length tasks) (Dag.n_tasks g);
  check_int "n_edges" (List.length edges) (Dag.n_edges g)

let check_built ~tasks ~edges =
  let g = build_dag ~tasks ~edges in
  check_inputs g ~tasks ~edges;
  check_csr_equiv g

let csr_fuzz_property =
  qtest ~count:60 "CSR = list adjacency on fuzz families" seed_arb (fun seed ->
      let inst = Fuzz_gen.instance (Rng.create seed) in
      check_csr_equiv inst.Fuzz_instance.dag;
      true)

(* Serialised bytes of the kernel families, as produced by the builder
   before the arena became the only stored form. *)
let kernel_digests =
  [ ("lu8", (fun () -> Lu.generate ~n:8 ()), "9981b6db22cfe493e243949c5fad09b7");
    ( "lu8 without broadcasts",
      (fun () -> Lu.generate ~pipeline_broadcasts:false ~n:8 ()),
      "d3d32b4967da8a1470cf48d21c072133" );
    ("cholesky8", (fun () -> Cholesky.generate ~n:8 ()), "4ec1884e098563d22be106e5d03ccb19");
    ( "cholesky8 without broadcasts",
      (fun () -> Cholesky.generate ~pipeline_broadcasts:false ~n:8 ()),
      "6e4d7adfe1eb3e0466badd0779730d78" ) ]

let test_csr_kernels () =
  List.iter
    (fun (label, gen, digest) ->
      let g = gen () in
      check_string label digest (Digest.to_hex (Digest.string (Dag.to_string g)));
      check_csr_equiv g)
    kernel_digests;
  let star_tasks =
    ("src", 1., 1.) :: List.init 7 (fun k -> (Printf.sprintf "c%d" (k + 1), 1., 1.))
  in
  check_built ~tasks:star_tasks ~edges:(List.init 7 (fun k -> (0, k + 1, 2., 3.)));
  check_built ~tasks:[ ("solo", 1., 2.) ] ~edges:[];
  (* Edges inserted out of endpoint order: rows still list ascending eids. *)
  check_built
    ~tasks:[ ("a", 1., 2.); ("b", 3., 4.); ("c", 5., 6.); ("d", 7., 8.) ]
    ~edges:[ (2, 3, 1.5, 0.5); (0, 2, 2., 1.); (0, 1, 0.25, 4.); (1, 3, 3., 2.); (0, 3, 1., 1.) ]

(* {2 Non-finite input rejection} *)

let expect_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: accepted a non-finite value" msg

let test_builder_rejects_non_finite () =
  let fresh () = Dag.Builder.create () in
  expect_invalid "add_task nan w_blue" (fun () ->
      Dag.Builder.add_task (fresh ()) ~w_blue:nan ~w_red:1. ());
  expect_invalid "add_task nan w_red" (fun () ->
      Dag.Builder.add_task (fresh ()) ~w_blue:1. ~w_red:nan ());
  expect_invalid "add_task inf w_blue" (fun () ->
      Dag.Builder.add_task (fresh ()) ~w_blue:infinity ~w_red:1. ());
  expect_invalid "add_task -inf w_red" (fun () ->
      Dag.Builder.add_task (fresh ()) ~w_blue:1. ~w_red:neg_infinity ());
  let two_tasks () =
    let b = fresh () in
    ignore (Dag.Builder.add_task b ~w_blue:1. ~w_red:1. ());
    ignore (Dag.Builder.add_task b ~w_blue:1. ~w_red:1. ());
    b
  in
  expect_invalid "add_edge nan size" (fun () ->
      Dag.Builder.add_edge (two_tasks ()) ~src:0 ~dst:1 ~size:nan ~comm:0.);
  expect_invalid "add_edge inf size" (fun () ->
      Dag.Builder.add_edge (two_tasks ()) ~src:0 ~dst:1 ~size:infinity ~comm:0.);
  expect_invalid "add_edge nan comm" (fun () ->
      Dag.Builder.add_edge (two_tasks ()) ~src:0 ~dst:1 ~size:1. ~comm:nan);
  expect_invalid "add_edge inf comm" (fun () ->
      Dag.Builder.add_edge (two_tasks ()) ~src:0 ~dst:1 ~size:1. ~comm:infinity);
  (* Historical guards still hold alongside the finite checks. *)
  expect_invalid "add_task negative" (fun () ->
      Dag.Builder.add_task (fresh ()) ~w_blue:(-1.) ~w_red:1. ());
  expect_invalid "add_edge negative" (fun () ->
      Dag.Builder.add_edge (two_tasks ()) ~src:0 ~dst:1 ~size:(-1.) ~comm:0.)

let test_platform_rejects_nan () =
  expect_invalid "m_blue nan" (fun () ->
      Platform.make ~p_blue:1 ~p_red:1 ~m_blue:nan ~m_red:1.);
  expect_invalid "m_red nan" (fun () ->
      Platform.make ~p_blue:1 ~p_red:1 ~m_blue:1. ~m_red:nan);
  (* An infinite capacity means "unbounded" and stays legal. *)
  let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:infinity ~m_red:infinity in
  check_float "inf cap kept" infinity (Platform.capacity p Platform.Blue)

(* {2 100k-task construction smoke}

   A layered mesh of 1000 x 100 tasks (each wired to two tasks of the next
   layer): building it must stay linear in tasks + edges, and the finished
   graph must cost no more than its arrays.  Two bounds, per task + edge:
   the bytes allocated by the whole build (add_task + add_edge + finalize),
   and the heap words the graph retains (live words after [Gc.compact] with
   the graph held, minus those before the build). *)

let build_mesh ~layers ~width =
  let n = layers * width in
  let b = Dag.Builder.create () in
  for _ = 1 to n do
    ignore (Dag.Builder.add_task b ~w_blue:1. ~w_red:2. ())
  done;
  for l = 0 to layers - 2 do
    for k = 0 to width - 1 do
      let src = (l * width) + k in
      Dag.Builder.add_edge b ~src ~dst:(((l + 1) * width) + k) ~size:1. ~comm:1.;
      Dag.Builder.add_edge b
        ~src
        ~dst:(((l + 1) * width) + ((k + 1) mod width))
        ~size:2. ~comm:1.
    done
  done;
  Dag.Builder.finalize b

let build_bytes_bound = 240.
let retained_words_bound = 11.

let test_build_100k () =
  let layers = 1000 and width = 100 in
  Gc.compact ();
  let live_before = (Gc.stat ()).Gc.live_words in
  let before = Gc.allocated_bytes () in
  let g = build_mesh ~layers ~width in
  let allocated = Gc.allocated_bytes () -. before in
  Gc.compact ();
  let retained = (Gc.stat ()).Gc.live_words - live_before in
  check_int "n_tasks" (layers * width) (Dag.n_tasks g);
  check_int "n_edges" (2 * width * (layers - 1)) (Dag.n_edges g);
  check_int "n_layers" layers (Dag.Csr.n_layers g);
  check_int "max_in_degree" 2 (Dag.Csr.max_in_degree g);
  let elems = float_of_int (Dag.n_tasks g + Dag.n_edges g) in
  Printf.printf "100k build: %.1f B allocated, %.2f words retained per task+edge\n"
    (allocated /. elems) (float_of_int retained /. elems);
  if allocated > build_bytes_bound *. elems then
    Alcotest.failf "the build allocated %.0f bytes (%.0f per task+edge, bound %.0f)" allocated
      (allocated /. elems) build_bytes_bound;
  if float_of_int retained > retained_words_bound *. elems then
    Alcotest.failf "the graph retains %d words (%.2f per task+edge, bound %.1f)" retained
      (float_of_int retained /. elems) retained_words_bound

let () =
  Alcotest.run "csr"
    [ ( "adjacency",
        [ csr_fuzz_property; Alcotest.test_case "kernel families" `Quick test_csr_kernels ] );
      ( "validation",
        [ Alcotest.test_case "builder non-finite" `Quick test_builder_rejects_non_finite;
          Alcotest.test_case "platform nan" `Quick test_platform_rejects_nan ] );
      ("scale", [ Alcotest.test_case "100k-task build" `Quick test_build_100k ]) ]
