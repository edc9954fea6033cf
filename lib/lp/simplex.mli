(** Bounded-variable simplex on one tableau, for one-off LPs and for
    sequences of LPs that differ only in bounds and right-hand sides.

    An LP here is [min c·x  s.t.  a_r·x <= b_r] (or [= b_r]),
    [lb <= x <= ub]. The tableau holds the [n] structural columns and one
    logical column [s_r] per row with [a_r·x + s_r = b_r], bounded by
    [[0, ∞)] for an inequality and [[0, 0]] for an equation, so its
    logical block is the basis inverse. Every nonbasic column rests on a
    finite bound.

    Every solve starts from the slack basis (every logical basic). That
    basis prices column [j] at [c_j], so it is dual feasible when each
    cost points at a finite bound — [c_j >= 0], or [ub_j] finite — and
    the bounded dual simplex runs straight to the optimum. Only a cost
    that points at an infinite bound needs more: {!solve} then runs the
    dual simplex with zero costs to reach a feasible basis, and a bounded
    primal simplex (whose ratio test includes the entering column's own
    bound flip) optimizes [c] from there.

    {!warm} and {!resolve} keep the tableau between solves — the probes of
    a dual-approximation binary search, where a makespan guess [T] closes
    variables and moves the load rows' right-hand side. Bound and
    right-hand-side changes never touch the reduced costs, so each
    re-solve is a dual simplex from the previous basis.

    Both simplex methods use Dantzig pricing with a switch to Bland's rule
    after a run of degenerate pivots, which guarantees termination.
    Optimal solutions are {e basic}, i.e. vertices of the polyhedron — a
    property the pseudo-forest rounding of Section 3.3 relies on.

    Metrics: every {!solve} and {!resolve} records an [lp.simplex.solve]
    phase and counts once in [lp.simplex.solves]. Dual pivots count in
    [lp.simplex.phase1_iters], primal pivots in [lp.simplex.phase2_iters];
    zero-step pivots (zero dual step in the dual, zero primal step in the
    primal) count in [lp.simplex.degenerate_pivots], switches to Bland's
    rule in [lp.simplex.bland_switches]. Callers that discard a warm
    verdict and re-solve cold count that in [lp.simplex.warm_fallbacks]
    ({!record_fallback}). *)

type row = (int * float) array
(** A sparse row [a_r]: (column, coefficient) pairs; a repeated column
    counts the sum of its coefficients. *)

type outcome =
  | Optimal of { objective : float; x : float array }
      (** an optimal vertex: [c·x] and the values of the [n] structural
          columns *)
  | Infeasible
  | Unbounded
  | Iteration_limit

val solve :
  rows:row array ->
  b:float array ->
  c:float array ->
  lb:float array ->
  ub:float array ->
  eq:bool array ->
  outcome
(** [solve ~rows ~b ~c ~lb ~ub ~eq] minimizes [c·x] subject to
    [a_r·x <= b_r] ([= b_r] where [eq.(r)]) and [lb <= x <= ub]. [lb] must
    be finite. Input arrays are not modified. Each simplex method gives up
    after [200 * (n + m + 1)] pivots with [Iteration_limit]. Raises
    [Invalid_argument] on shape mismatches, a column index out of range,
    or bounds that are not finite [lb <= ub]. *)

(** {1 Warm re-solves} *)

type warm
(** A tableau kept across the solves of one LP. *)

val warm :
  rows:row array ->
  b:float array ->
  c:float array ->
  lb:float array ->
  ub:float array ->
  eq:bool array ->
  warm
(** Start from the slack basis, which must be dual feasible: [lb] must be
    finite, and [ub] too where [c_j < 0]. Input arrays are copied. Raises
    [Invalid_argument] on shape mismatches, a column index out of range,
    or bounds that break these conditions. *)

val set_bounds : warm -> int -> lb:float -> ub:float -> unit
(** Change the bounds of structural column [j] for the next {!resolve}
    ([lb] finite, [lb <= ub]; [lb = ub] fixes the column). *)

val set_rhs : warm -> int -> float -> unit
(** Change the right-hand side of row [r] for the next {!resolve}. *)

type dual_outcome =
  | Primal of float array
      (** an optimal, hence feasible, vertex: values of the [n] structural
          columns, within [1e-9] (relative) of their bounds and rows *)
  | Farkas of float array
      (** the LP is infeasible; [y] (one entry per row) is row r of the
          basis inverse for the row r that proved it — check it with
          {!certifies_infeasible} *)
  | Stalled
      (** iteration limit, or a column whose reduced cost points at an
          infinite bound; the caller should solve cold *)

val resolve : warm -> dual_outcome
(** Re-solve after bound and right-hand-side changes with the bounded
    dual simplex, starting from the basis the previous call ended in.
    Bound and right-hand-side changes never touch the reduced costs, so
    the basis stays dual feasible and only primal infeasibilities are
    pivoted away. More than [200 * (n + m + 1)] pivots give [Stalled]. *)

val certifies_infeasible :
  rows:row array ->
  b:float array ->
  lb:float array ->
  ub:float array ->
  eq:bool array ->
  float array ->
  bool
(** [certifies_infeasible ~rows ~b ~lb ~ub ~eq y] recomputes the Farkas
    row [g = yᵀ[A | I]] from the original rows and holds when no point of
    the box [lb <= x <= ub], [s] within its logical bounds, reaches
    [g·(x, s) = y·b] — which every solution of [A x + s = b] would. The
    margin must exceed [1e-9] times the magnitude of the terms involved. *)

val record_fallback : unit -> unit
(** Count one warm verdict discarded in favour of a cold solve in
    [lp.simplex.warm_fallbacks]. *)
