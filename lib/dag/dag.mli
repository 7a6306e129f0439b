(** Application model: a directed acyclic task graph (§3 of the paper).

    Each task [i] carries two processing times, [w_blue] (on a blue / CPU-side
    processor) and [w_red] (on a red / accelerator-side processor).  Each edge
    [(i, j)] carries a data file of size [F(i,j)] produced by [i] and consumed
    by [j], and a transfer time [C(i,j)] paid when [i] and [j] execute on
    different memories.

    Graphs are immutable once finalised; build them with {!Builder}.  A
    graph is stored one way only: task names, structure-of-arrays task and
    edge attributes, and CSR adjacency rows (see {!Csr}).  The {!task} and
    {!edge} records and the [list] accessors are views built from those
    arrays on every call; they allocate, and hot loops read {!Csr}
    instead. *)

type task = {
  id : int;
  name : string;
  w_blue : float;  (** processing time on a blue processor, [W^(1)] *)
  w_red : float;  (** processing time on a red processor, [W^(2)] *)
}

type edge = {
  eid : int;
  src : int;
  dst : int;
  size : float;  (** file size [F(i,j)] held in memory *)
  comm : float;  (** transfer time [C(i,j)] across memories *)
}

type t

(** {1 Construction} *)

module Builder : sig
  type dag := t
  type t

  val create : unit -> t

  val add_task : t -> ?name:string -> w_blue:float -> w_red:float -> unit -> int
  (** Returns the new task id (dense, starting at 0).  Processing times must
      be non-negative. *)

  val add_edge : t -> src:int -> dst:int -> size:float -> comm:float -> unit
  (** Adds a dependency edge with its file size and transfer time.
      @raise Invalid_argument on a dangling endpoint, a self-loop, or a
      non-finite or negative attribute. *)

  val finalize : t -> dag
  (** Packs the CSR rows, rejects duplicate [(src, dst)] pairs (one stamp
      per task over each successor row, O(tasks + edges)) and cycles, and
      freezes the graph.
      @raise Invalid_argument ["Dag.Builder.finalize: duplicate edge"] or
      ["Dag.Builder.finalize: graph has a cycle"]. *)
end

(** {1 Accessors}

    [n_tasks], [n_edges], [name], the sizes and [w_min] read the arrays
    directly.  [task], [edge], [tasks], [edges], [pred], [children] and
    [parents] build fresh records or lists on every call: they serve
    printing, serialisation and the reference implementations, not hot
    loops. *)

val n_tasks : t -> int
val n_edges : t -> int

val name : t -> int -> string
val task : t -> int -> task
val edge : t -> int -> edge
val tasks : t -> task array
val edges : t -> edge array

val pred : t -> int -> edge list
(** Incoming edges of a task, in edge-insertion order (allocates). *)

val children : t -> int -> int list
(** Child task ids, in edge-insertion order (allocates). *)

val parents : t -> int -> int list
(** Parent task ids, in edge-insertion order (allocates). *)

val find_edge : t -> src:int -> dst:int -> edge option
(** Scans the successor row of [src]. *)

val sources : t -> int list
(** Tasks without predecessors. *)

val sinks : t -> int list
(** Tasks without successors. *)

val mem_req : t -> int -> float
(** [mem_req g i] is the paper's [MemReq(i)]: the total size of input plus
    output files of task [i], i.e. the minimum memory any execution of [i]
    needs. *)

val in_size : t -> int -> float
(** Total size of the input files of a task. *)

val out_size : t -> int -> float
(** Total size of the output files of a task. *)

val total_file_size : t -> float

val w_min : t -> int -> float
(** [min w_blue w_red] for a task. *)

(** {1 The stored arrays (CSR / SoA)}

    These arrays are the graph: every accessor above reads them.  They are
    built once at {!Builder.finalize} and are READ-ONLY: mutating them
    corrupts the graph.  Packed adjacency rows are in ascending edge-id
    order (edge-insertion order), so a fold over a row accumulates floats
    in a fixed order; {!pred}/{!children}/{!parents} list the same rows in
    the same order. *)

module Csr : sig
  val succ_off : t -> int array
  (** Length [n_tasks + 1]; outgoing row of task [i] is the packed index
      range [succ_off.(i) .. succ_off.(i+1) - 1]. *)

  val succ_eid : t -> int array
  (** Packed outgoing edge ids (ascending within a row). *)

  val succ_dst : t -> int array
  (** Destination task of the packed edge at the same index. *)

  val pred_off : t -> int array
  val pred_eid : t -> int array

  val pred_src : t -> int array
  (** Source task of the packed incoming edge at the same index. *)

  val e_src : t -> int array
  (** Edge-attribute SoA, indexed by edge id. *)

  val e_dst : t -> int array
  val e_size : t -> float array
  val e_comm : t -> float array

  val w_blue : t -> float array
  (** Task-attribute SoA, indexed by task id. *)

  val w_red : t -> float array

  val in_sz : t -> float array
  (** Per-task total input / output file sizes ({!in_size} / {!out_size}
      precomputed). *)

  val out_sz : t -> float array
  val in_degree : t -> int -> int
  val out_degree : t -> int -> int
  val max_in_degree : t -> int

  val n_layers : t -> int
  (** Topological layers: layer 0 holds the sources, and each task sits at
      [1 + max] of its parents' layers.  Tasks within a layer are mutually
      independent. *)

  val layer_of : t -> int array
  (** Layer index of each task. *)

  val layer_off : t -> int array
  (** Length [n_layers + 1] offsets into {!layer_tasks}. *)

  val layer_tasks : t -> int array
  (** Task ids grouped by layer, ascending ids within a layer. *)
end

(** {1 Orders and paths} *)

val topological_order : t -> int array
(** A topological order (parents before children), stable w.r.t. task ids. *)

val is_topological : t -> int array -> bool

val longest_path : t -> node_weight:(int -> float) -> edge_weight:(int -> float) -> float
(** Weight of a heaviest source-to-sink path, counting node weights of every
    node on the path and edge weights of every edge.  [edge_weight] takes an
    edge id. *)

val critical_path_min : t -> float
(** Longest path using [min w_blue w_red] per task and zero edge weight: a
    makespan lower bound on any platform. *)

(** {1 Serialisation} *)

val to_string : t -> string
(** Line-oriented text format, re-read by {!of_string}. *)

val of_string : string -> t
(** @raise Invalid_argument on malformed input. *)

val to_dot : ?highlight:(int -> string option) -> t -> string
(** GraphViz rendering.  [highlight i] may return a fill colour for task
    [i]. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: node/edge counts, degree and cost ranges. *)
