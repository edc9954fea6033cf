(* The two-phase primal simplex that solved every cold LP before the
   bounded tableau took them over, kept as an oracle that shares no code
   with it: dense standard form [min c·x  s.t.  A x = b, x >= 0], phase 1
   over artificial columns, Bland's rule after a run of degenerate
   pivots. Apart from dropping its pivot counters and trace phase, the
   code is as it was. [solve_model] at the end lowers a model to that
   form; test_lp's differential property and test_algos' ILP-UM search
   property compare verdicts through it. *)

type outcome =
  | Optimal of { objective : float; x : float array; basis : int array }
  | Infeasible
  | Unbounded
  | Iteration_limit

(* Internal mutable state: the tableau is kept in canonical form (basis
   columns are unit vectors) together with a reduced-cost row [z]. All hot
   loops use unsafe accesses; shapes are validated once in [solve]. *)
type state = {
  m : int;
  ncols : int;
  tab : float array array; (* m rows of length ncols *)
  rhs : float array; (* length m, kept >= -eps *)
  basis : int array; (* basic column of each row *)
  z : float array; (* reduced costs, length ncols *)
  banned : bool array; (* columns that may never enter (artificials) *)
  eps : float;
  nz : int array; (* scratch: nonzero columns of the pivot row *)
}

(* Rows of the LPs solved here are sparse, so a pivot collects the
   nonzeros of the pivot row once and eliminates over those alone; a zero
   entry would leave every other row unchanged anyway. *)
let pivot st r j =
  let row = st.tab.(r) in
  let piv = row.(j) in
  let inv = 1.0 /. piv in
  let nnz = ref 0 in
  for t = 0 to st.ncols - 1 do
    let v = Array.unsafe_get row t in
    if v <> 0.0 then begin
      Array.unsafe_set row t (v *. inv);
      Array.unsafe_set st.nz !nnz t;
      incr nnz
    end
  done;
  let nnz = !nnz in
  row.(j) <- 1.0;
  st.rhs.(r) <- st.rhs.(r) *. inv;
  let eliminate target f =
    for q = 0 to nnz - 1 do
      let t = Array.unsafe_get st.nz q in
      Array.unsafe_set target t
        (Array.unsafe_get target t -. (f *. Array.unsafe_get row t))
    done;
    target.(j) <- 0.0
  in
  for r' = 0 to st.m - 1 do
    if r' <> r then begin
      let row' = st.tab.(r') in
      let f = Array.unsafe_get row' j in
      if f <> 0.0 then begin
        eliminate row' f;
        st.rhs.(r') <- st.rhs.(r') -. (f *. st.rhs.(r))
      end
    end
  done;
  let f = st.z.(j) in
  if f <> 0.0 then eliminate st.z f;
  st.basis.(r) <- j

(* Entering column: Dantzig unless [bland]. Returns -1 at optimality. *)
let entering st ~bland =
  if bland then (
    let j = ref (-1) in
    (try
       for t = 0 to st.ncols - 1 do
         if (not st.banned.(t)) && st.z.(t) < -.st.eps then begin
           j := t;
           raise Exit
         end
       done
     with Exit -> ());
    !j)
  else begin
    let best = ref (-.st.eps) and j = ref (-1) in
    for t = 0 to st.ncols - 1 do
      if (not st.banned.(t)) && st.z.(t) < !best then begin
        best := st.z.(t);
        j := t
      end
    done;
    !j
  end

(* Leaving row by the minimum-ratio test; ties broken towards the smallest
   basic column index so that Bland's rule is honoured. -1 = unbounded. *)
let leaving st j =
  let best_ratio = ref infinity and r = ref (-1) in
  for r' = 0 to st.m - 1 do
    let a = st.tab.(r').(j) in
    if a > st.eps then begin
      let ratio = st.rhs.(r') /. a in
      if
        ratio < !best_ratio -. st.eps
        || (ratio < !best_ratio +. st.eps
           && (!r < 0 || st.basis.(r') < st.basis.(!r)))
      then begin
        best_ratio := ratio;
        r := r'
      end
    end
  done;
  !r

type phase_result = P_optimal | P_unbounded | P_iterations

let run_phase st ~max_iters =
  let degenerate_run = ref 0 in
  let rec go iters =
    if iters > max_iters then P_iterations
    else
      let j = entering st ~bland:(!degenerate_run > 50) in
      if j < 0 then P_optimal
      else
        let r = leaving st j in
        if r < 0 then P_unbounded
        else begin
          if st.rhs.(r) <= st.eps then incr degenerate_run
          else degenerate_run := 0;
          pivot st r j;
          go (iters + 1)
        end
  in
  go 0

let objective_value st cost =
  let v = ref 0.0 in
  for r = 0 to st.m - 1 do
    let b = st.basis.(r) in
    if b < Array.length cost && cost.(b) <> 0.0 then
      v := !v +. (cost.(b) *. st.rhs.(r))
  done;
  !v

(* Recompute the reduced-cost row from scratch for the given cost vector
   (costs of columns >= its length are zero). *)
let set_costs st cost =
  for t = 0 to st.ncols - 1 do
    st.z.(t) <- (if t < Array.length cost then cost.(t) else 0.0)
  done;
  for r = 0 to st.m - 1 do
    let b = st.basis.(r) in
    let cb = if b < Array.length cost then cost.(b) else 0.0 in
    if cb <> 0.0 then begin
      let row = st.tab.(r) in
      for t = 0 to st.ncols - 1 do
        Array.unsafe_set st.z t
          (Array.unsafe_get st.z t -. (cb *. Array.unsafe_get row t))
      done
    end
  done;
  (* Clamp basic columns to an exact zero reduced cost. *)
  for r = 0 to st.m - 1 do
    st.z.(st.basis.(r)) <- 0.0
  done

let solve ?max_iters ?(eps = 1e-9) ~a ~b ~c () =
  let flush result = result in
  let m = Array.length a in
  let n = Array.length c in
  if Array.length b <> m then invalid_arg "Simplex.solve: |b| must equal rows";
  Array.iteri
    (fun r row ->
      if Array.length row <> n then
        invalid_arg (Printf.sprintf "Simplex.solve: row %d has wrong width" r))
    a;
  let max_iters =
    match max_iters with Some v -> v | None -> 200 * (m + n + 1)
  in
  (* Normalized working copies with rhs >= 0. *)
  let sign = Array.init m (fun r -> if b.(r) < 0.0 then -1.0 else 1.0) in
  let rhs = Array.init m (fun r -> sign.(r) *. b.(r)) in
  let rows = Array.init m (fun r -> Array.map (fun x -> sign.(r) *. x) a.(r)) in
  (* Detect singleton columns usable as an initial basis (slacks). *)
  let basis = Array.make m (-1) in
  let col_rows = Array.make n (-2) in
  (* -2 = empty, -1 = multiple, r = singleton in row r *)
  for r = 0 to m - 1 do
    for j = 0 to n - 1 do
      if Float.abs rows.(r).(j) > eps then
        col_rows.(j) <- (if col_rows.(j) = -2 then r else -1)
    done
  done;
  for j = 0 to n - 1 do
    let r = col_rows.(j) in
    if r >= 0 && basis.(r) < 0 && rows.(r).(j) > eps then basis.(r) <- j
  done;
  let nart = ref 0 in
  for r = 0 to m - 1 do
    if basis.(r) < 0 then incr nart
  done;
  let ncols = n + !nart in
  let tab = Array.make_matrix m ncols 0.0 in
  for r = 0 to m - 1 do
    Array.blit rows.(r) 0 tab.(r) 0 n
  done;
  let next_art = ref n in
  for r = 0 to m - 1 do
    if basis.(r) < 0 then begin
      tab.(r).(!next_art) <- 1.0;
      basis.(r) <- !next_art;
      incr next_art
    end
    else begin
      (* Scale the row so the basis coefficient is exactly 1. *)
      let v = tab.(r).(basis.(r)) in
      if v <> 1.0 then begin
        let inv = 1.0 /. v in
        for t = 0 to ncols - 1 do
          tab.(r).(t) <- tab.(r).(t) *. inv
        done;
        rhs.(r) <- rhs.(r) *. inv
      end
    end
  done;
  let st =
    {
      m;
      ncols;
      tab;
      rhs;
      basis;
      z = Array.make ncols 0.0;
      banned = Array.make ncols false;
      eps;
      nz = Array.make ncols 0;
    }
  in
  (* Phase 1: minimize the sum of artificials. *)
  let phase1_cost = Array.init ncols (fun t -> if t >= n then 1.0 else 0.0) in
  let outcome =
    if !nart = 0 then P_optimal
    else begin
      set_costs st phase1_cost;
      run_phase st ~max_iters
    end
  in
  match outcome with
  | P_iterations -> flush Iteration_limit
  | P_unbounded ->
      (* The phase-1 objective is bounded below by 0; reaching this branch
         means numerical breakdown. *)
      flush Iteration_limit
  | P_optimal ->
      let feas_tol =
        eps *. float_of_int (m + 1)
        *. Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1.0 b
      in
      if !nart > 0 && objective_value st phase1_cost > feas_tol then
        flush Infeasible
      else begin
        (* Drive basic artificials out where possible; rows where no
           original column has a nonzero entry are redundant and keep their
           zero-valued artificial. *)
        for r = 0 to m - 1 do
          if st.basis.(r) >= n then begin
            let j = ref (-1) in
            (try
               for t = 0 to n - 1 do
                 if Float.abs st.tab.(r).(t) > sqrt eps then begin
                   j := t;
                   raise Exit
                 end
               done
             with Exit -> ());
            if !j >= 0 then pivot st r !j
          end
        done;
        for t = n to ncols - 1 do
          st.banned.(t) <- true
        done;
        set_costs st c;
        match run_phase st ~max_iters with
        | P_iterations -> flush Iteration_limit
        | P_unbounded -> flush Unbounded
        | P_optimal ->
            let x = Array.make n 0.0 in
            for r = 0 to m - 1 do
              if st.basis.(r) < n then
                x.(st.basis.(r)) <- Float.max 0.0 st.rhs.(r)
            done;
            let objective = ref 0.0 in
            for t = 0 to n - 1 do
              objective := !objective +. (c.(t) *. x.(t))
            done;
            flush
              (Optimal
                 { objective = !objective; x; basis = Array.copy st.basis })
      end

(* --- Models ------------------------------------------------------------- *)

(* An LP in the model builder's terms: variables with bounds and costs,
   rows [Σ coeff · x_v (<=, >= or =) rhs] over variable indices. *)
type var = { lb : float; ub : float; obj : float }

type row = { coeffs : (int * float) list; rel : Lp.relation; rhs : float }

(* Lowered to standard form as the model builder did it before the
   bounded tableau: lower bounds shifted out, a variable with no finite
   lower bound split into two nonnegative columns, one [x <= ub] row per
   finite upper bound and one slack per inequality; the verdict carries
   the objective in the model's terms. *)
let solve_model vars rows =
  let nv = Array.length vars in
  let col = Array.make nv 0 and split = Array.make nv false and next = ref 0 in
  Array.iteri
    (fun v d ->
      col.(v) <- !next;
      split.(v) <- d.lb = neg_infinity;
      next := !next + if split.(v) then 2 else 1)
    vars;
  let ub_rows =
    List.filter_map
      (fun v ->
        if vars.(v).ub < infinity then
          Some { coeffs = [ (v, 1.0) ]; rel = Lp.Le; rhs = vars.(v).ub }
        else None)
      (List.init nv Fun.id)
  in
  let all = rows @ ub_rows in
  let nslack = List.length (List.filter (fun r -> r.rel <> Lp.Eq) all) in
  let ncols = !next + nslack in
  let a = Array.make_matrix (List.length all) ncols 0.0 in
  let b = Array.make (List.length all) 0.0 and slack = ref !next in
  List.iteri
    (fun r { coeffs; rel; rhs } ->
      b.(r) <- rhs;
      List.iter
        (fun (v, c) ->
          a.(r).(col.(v)) <- a.(r).(col.(v)) +. c;
          if split.(v) then a.(r).(col.(v) + 1) <- a.(r).(col.(v) + 1) -. c
          else b.(r) <- b.(r) -. (c *. vars.(v).lb))
        coeffs;
      if rel <> Lp.Eq then begin
        a.(r).(!slack) <- (if rel = Lp.Le then 1.0 else -1.0);
        incr slack
      end)
    all;
  let c = Array.make ncols 0.0 and shift = ref 0.0 in
  Array.iteri
    (fun v d ->
      c.(col.(v)) <- d.obj;
      if split.(v) then c.(col.(v) + 1) <- -.d.obj
      else shift := !shift +. (d.obj *. d.lb))
    vars;
  match solve ~a ~b ~c () with
  | Optimal { objective; _ } -> `Optimal (objective +. !shift)
  | Infeasible -> `Infeasible
  | Unbounded -> `Unbounded
  | Iteration_limit -> `Limit
