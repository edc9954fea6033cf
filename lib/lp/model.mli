(** Linear-program model builder on top of {!Simplex}.

    Variables carry bounds and objective coefficients; constraints are
    linear with [<=], [>=] or [=]. The builder hands bounds and row senses
    to the tableau as column and logical bounds: a variable becomes one
    column with its own bounds (negated when only its upper bound is
    finite, split into two nonnegative columns when free), a [>=] row is
    negated into a [<=] row, and an equation's logical column is fixed at
    0. No row is added for a bound. Solution values are recovered in
    terms of the original variables. The tableau starts from the slack
    basis; its primal phase runs only when a cost points at an infinite
    bound (a maximized or negative cost on a variable without a finite
    upper bound, or any cost on a free variable). *)

type t
(** A mutable model under construction. *)

type var
(** A variable handle, valid only for the model that created it. *)

type relation = Le | Ge | Eq

val create : unit -> t

val add_var : ?lb:float -> ?ub:float -> ?obj:float -> t -> string -> var
(** [add_var t name] adds a variable. Defaults: [lb = 0.], [ub = infinity],
    [obj = 0.]. [lb = neg_infinity] makes the variable free. Raises
    [Invalid_argument] if [lb > ub] or a bound is NaN. *)

val add_constraint : t -> (float * var) list -> relation -> float -> unit
(** [add_constraint t terms rel rhs] adds [Σ coeff·var rel rhs]. Repeated
    variables in [terms] are summed. *)

val num_vars : t -> int
val num_constraints : t -> int
val var_name : t -> var -> string

val var_index : var -> int
(** Creation-order index of a variable (the index into {!values}). *)

val var_bounds : t -> var -> float * float

type solution

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Aborted  (** iteration limit / numerical breakdown *)

val solve :
  ?maximize:bool ->
  ?overrides:(var * (float * float)) list ->
  t ->
  result
(** Solve the model (default: minimize). The model may be solved repeatedly
    and extended between solves. [overrides] temporarily tightens variable
    bounds for this solve only — [(v, (lb, ub))] intersects [v]'s bounds
    with [[lb, ub]] — which is what branch and bound ({!Mip}) uses to fix
    variables without mutating the model; they reach the tableau as column
    bounds. Contradictory overrides yield [Infeasible]. *)

val objective_value : solution -> float

val value : solution -> var -> float
(** Value of a variable in the solution, clamped to its bounds to absorb
    simplex round-off. *)

val values : solution -> float array
(** All variable values, indexed by creation order. *)

val pp_solution : t -> Format.formatter -> solution -> unit
