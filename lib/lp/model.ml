type relation = Le | Ge | Eq

type var_info = { name : string; lb : float; ub : float; mutable obj : float }

type constr = { terms : (float * int) list; rel : relation; rhs : float }

type t = {
  mutable vars : var_info array;
  mutable nvars : int;
  mutable constrs : constr list; (* newest first *)
  mutable nconstrs : int;
}

type var = int

let create () = { vars = Array.make 16 { name = ""; lb = 0.; ub = 0.; obj = 0. }; nvars = 0; constrs = []; nconstrs = 0 }

let add_var ?(lb = 0.0) ?(ub = infinity) ?(obj = 0.0) t name =
  if Float.is_nan lb || Float.is_nan ub then
    invalid_arg "Lp.add_var: NaN bound";
  if lb > ub then invalid_arg "Lp.add_var: lb > ub";
  if t.nvars = Array.length t.vars then begin
    let bigger = Array.make (2 * t.nvars) t.vars.(0) in
    Array.blit t.vars 0 bigger 0 t.nvars;
    t.vars <- bigger
  end;
  t.vars.(t.nvars) <- { name; lb; ub; obj };
  t.nvars <- t.nvars + 1;
  t.nvars - 1

let add_constraint t terms rel rhs =
  List.iter
    (fun (_, v) ->
      if v < 0 || v >= t.nvars then
        invalid_arg "Lp.add_constraint: foreign variable")
    terms;
  let terms = List.map (fun (c, v) -> (c, (v : var :> int))) terms in
  t.constrs <- { terms; rel; rhs } :: t.constrs;
  t.nconstrs <- t.nconstrs + 1

let num_vars t = t.nvars
let num_constraints t = t.nconstrs
let var_name t v = t.vars.(v).name
let var_index v = (v : var)
let var_bounds t v = (t.vars.(v).lb, t.vars.(v).ub)

type solution = {
  objective : float;
  var_values : float array; (* original variables, creation order *)
}

type result = Optimal of solution | Infeasible | Unbounded | Aborted

let solve ?(maximize = false) ?(overrides = []) t =
  let eff_lb = Array.init t.nvars (fun v -> t.vars.(v).lb) in
  let eff_ub = Array.init t.nvars (fun v -> t.vars.(v).ub) in
  List.iter
    (fun (v, (lb, ub)) ->
      if v < 0 || v >= t.nvars then invalid_arg "Lp.solve: foreign override";
      if lb > ub then invalid_arg "Lp.solve: override lb > ub";
      eff_lb.(v) <- Float.max eff_lb.(v) lb;
      eff_ub.(v) <- Float.min eff_ub.(v) ub)
    overrides;
  let contradictory = ref false in
  for v = 0 to t.nvars - 1 do
    if eff_lb.(v) > eff_ub.(v) then contradictory := true
  done;
  if !contradictory then Infeasible
  else
  (* Each variable becomes tableau columns with a finite lower bound:
     itself, its negation when only its upper bound is finite, or the
     difference of two nonnegative columns when it is free. *)
  let cols = Array.make t.nvars [] and lb = ref [] and ub = ref [] in
  let next = ref 0 in
  let column sign l u =
    lb := l :: !lb;
    ub := u :: !ub;
    incr next;
    (!next - 1, sign)
  in
  for v = 0 to t.nvars - 1 do
    let l = eff_lb.(v) and u = eff_ub.(v) in
    cols.(v) <-
      (if l > neg_infinity then [ column 1.0 l u ]
       else if u < infinity then [ column (-1.0) (-.u) infinity ]
       else
         let plus = column 1.0 0.0 infinity in
         [ plus; column (-1.0) 0.0 infinity ])
  done;
  let lb = Array.of_list (List.rev !lb) and ub = Array.of_list (List.rev !ub) in
  let c = Array.make !next 0.0 in
  let sense = if maximize then -1.0 else 1.0 in
  Array.iteri
    (fun v cs ->
      List.iter (fun (col, sign) -> c.(col) <- sense *. sign *. t.vars.(v).obj) cs)
    cols;
  (* A [>=] row is negated into a [<=] row; an equation fixes its
     logical column at 0. *)
  let constrs = Array.of_list (List.rev t.constrs) in
  let flip { rel; _ } = if rel = Ge then -1.0 else 1.0 in
  let rows =
    Array.map
      (fun ({ terms; _ } as r) ->
        Array.of_list
          (List.concat_map
             (fun (coeff, v) ->
               List.map (fun (col, sign) -> (col, flip r *. sign *. coeff)) cols.(v))
             terms))
      constrs
  in
  let b = Array.map (fun r -> flip r *. r.rhs) constrs in
  let eq = Array.map (fun r -> r.rel = Eq) constrs in
  match Simplex.solve ~rows ~b ~c ~lb ~ub ~eq with
  | Simplex.Infeasible -> Infeasible
  | Simplex.Unbounded -> Unbounded
  | Simplex.Iteration_limit -> Aborted
  | Simplex.Optimal { x; _ } ->
      let var_values =
        Array.init t.nvars (fun v ->
            let raw =
              List.fold_left (fun acc (col, sign) -> acc +. (sign *. x.(col))) 0.0 cols.(v)
            in
            Float.min eff_ub.(v) (Float.max eff_lb.(v) raw))
      in
      let objective = ref 0.0 in
      for v = 0 to t.nvars - 1 do
        if t.vars.(v).obj <> 0.0 then
          objective := !objective +. (t.vars.(v).obj *. var_values.(v))
      done;
      Optimal { objective = !objective; var_values }

let objective_value s = s.objective
let value s v = s.var_values.(v)
let values s = Array.copy s.var_values

let pp_solution t ppf s =
  Format.fprintf ppf "@[<v>objective = %g@," s.objective;
  for v = 0 to t.nvars - 1 do
    if Float.abs s.var_values.(v) > 1e-12 then
      Format.fprintf ppf "%s = %g@," t.vars.(v).name s.var_values.(v)
  done;
  Format.fprintf ppf "@]"
