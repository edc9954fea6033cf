(** Dense simplex on standard-form programs, with two entry points.

    {!solve} is a two-phase primal simplex for one-off LPs with an
    objective (the branch-and-bound nodes of {!Mip}, set cover, the
    relaxed LP of Section 3.3): phase 1 minimizes the sum of artificial
    variables (slack columns that can serve as an initial basis are used
    directly), phase 2 optimizes [c].

    {!warm} and {!resolve} serve sequences of LPs that share their rows
    and costs and differ only in column bounds and right-hand sides — the
    probes of a dual-approximation binary search, where a makespan guess
    [T] closes variables and moves the load rows' right-hand side. The
    tableau is kept between solves and each re-solve is a bounded-variable
    dual simplex from the previous basis, so no solve runs a phase 1.

    Both use Dantzig pricing with a switch to Bland's rule after a run of
    degenerate pivots, which guarantees termination. Optimal solutions are
    {e basic}, i.e. vertices of the polyhedron — a property the
    pseudo-forest rounding of Section 3.3 relies on.

    Metrics: every {!solve} and {!resolve} records an [lp.simplex.solve]
    phase and counts once in [lp.simplex.solves]. Primal phase-1 pivots
    and all dual pivots count in [lp.simplex.phase1_iters], phase-2 pivots
    in [lp.simplex.phase2_iters]; zero-step pivots (zero ratio in the
    primal, zero dual step in the dual) count in
    [lp.simplex.degenerate_pivots], switches to Bland's rule in
    [lp.simplex.bland_switches]. Callers that discard a warm verdict and
    re-solve cold count that in [lp.simplex.warm_fallbacks]
    ({!record_fallback}). *)

type outcome =
  | Optimal of { objective : float; x : float array; basis : int array }
      (** [basis] holds the column index of the basic variable of each row
          (columns [>= n] are slacks/artificials). *)
  | Infeasible
  | Unbounded
  | Iteration_limit

val solve :
  ?max_iters:int ->
  ?eps:float ->
  a:float array array ->
  b:float array ->
  c:float array ->
  unit ->
  outcome
(** [solve ~a ~b ~c ()] minimizes [c·x] subject to [A x = b], [x >= 0]
    with [a] of shape [m×n], [b] of length [m] (any sign; rows are
    normalized internally), [c] of length [n]. Input arrays are not
    modified. [eps] (default [1e-9]) is the feasibility/optimality
    tolerance; [max_iters] defaults to [200 * (m + n)]. Raises
    [Invalid_argument] on shape mismatches. *)

(** {1 Warm re-solves} *)

type warm
(** A tableau kept across the solves of one LP
    [min c·x  s.t.  a_r·x <= b_r] (or [= b_r]), [lb <= x <= ub]. Each row
    carries a logical column [s_r] with [a_r·x + s_r = b_r], bounded by
    [[0, ∞)] for an inequality and [[0, 0]] for an equation. The logical
    block of the tableau is the basis inverse. *)

type row = (int * float) array
(** A sparse row [a_r]: (column, coefficient) pairs; a repeated column
    counts the sum of its coefficients. *)

val warm :
  rows:row array ->
  b:float array ->
  c:float array ->
  lb:float array ->
  ub:float array ->
  eq:bool array ->
  warm
(** Start from the slack basis (every logical basic). That basis prices
    column [j] at [c_j], so it is dual feasible when each cost points at a
    finite bound: [lb] must be finite, and [ub] too where [c_j < 0].
    Input arrays are copied. Raises [Invalid_argument] on shape
    mismatches, a column index out of range, or bounds that break these
    conditions. *)

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
