(** Layered random DAG generator in the style of DAGGEN (§6.1.1).

    Nodes are organised in levels.  [width] controls the parallelism (the
    expected level width is [size ** width]: small values give chains,
    large values fork-join shapes), [density] the
    number of edges between consecutive levels, and [jumps] lets extra edges
    skip up to that many levels ahead.  Costs are drawn uniformly in the
    given integer ranges, as in the paper's two random sets. *)

type params = {
  size : int;  (** number of tasks *)
  width : float;  (** in (0, 1]: relative parallelism *)
  density : float;  (** in [0, 1]: inter-level edge density *)
  jumps : int;  (** maximum forward jump of skip edges (1 = none) *)
  w_range : int * int;  (** processing times, drawn per resource *)
  c_range : int * int;  (** transfer times *)
  f_range : int * int;  (** file sizes *)
}

val small_rand_params : params
(** SmallRandSet: size 30, width 0.3, density 0.5, jumps 5, W in [1,20],
    C and F in [1,10]. *)

val large_rand_params : params
(** LargeRandSet: size 1000, same shape, all costs in [1,100]. *)

val generate : Rng.t -> params -> Dag.t
(** Deterministic given the generator state.  Every non-first-level task has
    at least one parent, so level 0 holds every source.
    @raise Invalid_argument (["Daggen: ..."]) on out-of-range parameters,
    including a cost range with [lo < 0] or [lo > hi]. *)

val levels : Rng.t -> params -> int list
(** The level widths the generator would use (exposed for tests). *)
