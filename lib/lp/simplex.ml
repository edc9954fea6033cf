type outcome =
  | Optimal of { objective : float; x : float array; basis : int array }
  | Infeasible
  | Unbounded
  | Iteration_limit

let c_solves = Obs.Counter.make "lp.simplex.solves"
let c_phase1_iters = Obs.Counter.make "lp.simplex.phase1_iters"
let c_phase2_iters = Obs.Counter.make "lp.simplex.phase2_iters"
let c_degenerate = Obs.Counter.make "lp.simplex.degenerate_pivots"
let c_bland = Obs.Counter.make "lp.simplex.bland_switches"

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

(* Per-phase pivot statistics, accumulated locally and flushed to the
   process-wide counters once per [solve] so the pivot loop never touches
   shared memory. *)
type phase_counts = {
  mutable iters : int;
  mutable degen : int;
  mutable bland : int;
}

let fresh_counts () = { iters = 0; degen = 0; bland = 0 }

let run_phase st ~max_iters ~counts =
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
          counts.iters <- counts.iters + 1;
          if st.rhs.(r) <= st.eps then begin
            incr degenerate_run;
            counts.degen <- counts.degen + 1;
            if !degenerate_run = 51 then counts.bland <- counts.bland + 1
          end
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
  let p1 = fresh_counts () and p2 = fresh_counts () in
  Obs.Span.phase
    ~detail:
      (Printf.sprintf "rows=%d cols=%d" (Array.length a) (Array.length c))
    ~result_detail:(fun _ ->
      Printf.sprintf "rows=%d cols=%d iters=%d" (Array.length a)
        (Array.length c) (p1.iters + p2.iters))
    "lp.simplex.solve"
  @@ fun () ->
  (* single exit point for the counter flush *)
  let flush result =
    Obs.Counter.incr c_solves;
    Obs.Counter.add c_phase1_iters p1.iters;
    Obs.Counter.add c_phase2_iters p2.iters;
    Obs.Counter.add c_degenerate (p1.degen + p2.degen);
    Obs.Counter.add c_bland (p1.bland + p2.bland);
    result
  in
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
      run_phase st ~max_iters ~counts:p1
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
        match run_phase st ~max_iters ~counts:p2 with
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

(* --- warm re-solves: bounded-variable dual simplex ----------------------- *)

(* The tableau spans [n] structural columns and one logical column per
   row ([a_r·x + s_r = b_r]), so its logical block is the basis inverse:
   [rhs] is B⁻¹b and row r of that block is a Farkas multiplier when row
   r proves infeasibility. Nonbasic columns rest at a finite bound chosen
   by the sign of their reduced cost, which keeps the basis dual feasible
   whatever the bounds and right-hand side are; only primal feasibility
   is lost by a change, and the dual simplex restores it. *)
type warm = {
  w : state;
  wn : int;
  wb : float array; (* current right-hand side *)
  wlb : float array; (* current bounds of all n + m columns *)
  wub : float array;
  at_ub : bool array; (* nonbasic columns resting at their upper bound *)
  row_of : int array; (* row of each basic column, -1 when nonbasic *)
  xb : float array; (* value of each row's basic column *)
}

type row = (int * float) array

type dual_outcome =
  | Primal of float array
  | Farkas of float array
  | Stalled

let c_warm_fallbacks = Obs.Counter.make "lp.simplex.warm_fallbacks"
let record_fallback () = Obs.Counter.incr c_warm_fallbacks

(* Feasibility/optimality tolerance of warm re-solves and certificates,
   as [solve]'s default. *)
let warm_eps = 1e-9

let warm ~rows ~b ~c ~lb ~ub ~eq =
  let m = Array.length rows and n = Array.length c in
  if Array.length b <> m || Array.length eq <> m then
    invalid_arg "Simplex.warm: |b| and |eq| must equal rows";
  if Array.length lb <> n || Array.length ub <> n then
    invalid_arg "Simplex.warm: |lb| and |ub| must equal columns";
  let ncols = n + m in
  let tab =
    Array.init m (fun r ->
        let row = Array.make ncols 0.0 in
        Array.iter
          (fun (j, v) ->
            if j < 0 || j >= n then
              invalid_arg
                (Printf.sprintf "Simplex.warm: row %d names column %d" r j);
            row.(j) <- row.(j) +. v)
          rows.(r);
        row.(n + r) <- 1.0;
        row)
  in
  let wlb = Array.make ncols 0.0 and wub = Array.make ncols infinity in
  for j = 0 to n - 1 do
    if not (Float.is_finite lb.(j)) || lb.(j) > ub.(j) then
      invalid_arg "Simplex.warm: bounds must satisfy finite lb <= ub";
    (* the slack basis prices column j at c_j, so it is dual feasible only
       when c_j points at a finite bound *)
    if c.(j) < 0.0 && ub.(j) = infinity then
      invalid_arg "Simplex.warm: a negative cost needs a finite upper bound";
    wlb.(j) <- lb.(j);
    wub.(j) <- ub.(j)
  done;
  for r = 0 to m - 1 do
    if eq.(r) then wub.(n + r) <- 0.0
  done;
  let z = Array.make ncols 0.0 in
  Array.blit c 0 z 0 n;
  let st =
    {
      m;
      ncols;
      tab;
      rhs = Array.copy b;
      basis = Array.init m (fun r -> n + r);
      z;
      banned = Array.make ncols false;
      eps = warm_eps;
      nz = Array.make ncols 0;
    }
  in
  {
    w = st;
    wn = n;
    wb = Array.copy b;
    wlb;
    wub;
    at_ub = Array.init ncols (fun j -> j < n && c.(j) < 0.0);
    row_of = Array.init ncols (fun j -> if j < n then -1 else j - n);
    xb = Array.make m 0.0;
  }

let set_bounds w j ~lb ~ub =
  if j < 0 || j >= w.wn then invalid_arg "Simplex.set_bounds: not a column";
  if not (Float.is_finite lb) || lb > ub then
    invalid_arg "Simplex.set_bounds: bounds must satisfy finite lb <= ub";
  w.wlb.(j) <- lb;
  w.wub.(j) <- ub

let set_rhs w r v =
  let st = w.w in
  if r < 0 || r >= st.m then invalid_arg "Simplex.set_rhs: not a row";
  let delta = v -. w.wb.(r) in
  if delta <> 0.0 then begin
    (* B⁻¹ is the logical block: B⁻¹b moves by delta times its column r *)
    let col = w.wn + r in
    for r' = 0 to st.m - 1 do
      let f = st.tab.(r').(col) in
      if f <> 0.0 then st.rhs.(r') <- st.rhs.(r') +. (f *. delta)
    done;
    w.wb.(r) <- v
  end

let nonbasic_value w j = if w.at_ub.(j) then w.wub.(j) else w.wlb.(j)

(* Rest every nonbasic column on the bound its reduced cost asks for and
   recompute the basic values from B⁻¹b. False when some column would
   need an infinite bound, i.e. the basis is not dual feasible. *)
let place_nonbasics w =
  let st = w.w in
  let ok = ref true in
  for j = 0 to st.ncols - 1 do
    if w.row_of.(j) < 0 then begin
      let d = st.z.(j) in
      if w.wlb.(j) = w.wub.(j) then w.at_ub.(j) <- false
      else if d < -.st.eps then begin
        if w.wub.(j) = infinity then ok := false else w.at_ub.(j) <- true
      end
      else if d > st.eps || w.wub.(j) = infinity then w.at_ub.(j) <- false
    end
  done;
  Array.blit st.rhs 0 w.xb 0 st.m;
  for j = 0 to st.ncols - 1 do
    if w.row_of.(j) < 0 then begin
      let v = nonbasic_value w j in
      if v <> 0.0 then
        for r = 0 to st.m - 1 do
          let f = Array.unsafe_get st.tab.(r) j in
          if f <> 0.0 then w.xb.(r) <- w.xb.(r) -. (f *. v)
        done
    end
  done;
  !ok

(* Leaving row: the basic value furthest outside its bounds, or under
   Bland's rule the violated row whose basic column has the smallest
   index. -1 when the basis is primal feasible. *)
let dual_leaving w ~bland =
  let st = w.w in
  let best = ref 0.0 and r = ref (-1) in
  for r' = 0 to st.m - 1 do
    let p = st.basis.(r') in
    let v = w.xb.(r') in
    let lo = w.wlb.(p) and hi = w.wub.(p) in
    let viol =
      if v < lo then lo -. v else if v > hi then v -. hi else 0.0
    in
    let bound = if v < lo then lo else hi in
    if viol > st.eps *. (1.0 +. Float.abs bound) then
      if bland then begin
        if !r < 0 || p < st.basis.(!r) then r := r'
      end
      else if viol > !best then begin
        best := viol;
        r := r'
      end
  done;
  !r

(* Entering column by the dual ratio test on row r: among the columns
   whose move pushes the leaving value towards its violated bound, the
   smallest |d_j / alpha_rj| keeps every reduced cost on its side. Ties
   go to the larger |alpha| (stability), or the smaller index under
   Bland's rule. -1 when no column qualifies: row r proves infeasibility. *)
let dual_entering w r ~below ~bland =
  let st = w.w in
  let row = st.tab.(r) in
  let best = ref infinity and best_alpha = ref 0.0 and q = ref (-1) in
  for j = 0 to st.ncols - 1 do
    if w.row_of.(j) < 0 && w.wlb.(j) < w.wub.(j) then begin
      let alpha = Array.unsafe_get row j in
      let eligible =
        if alpha > st.eps then below = w.at_ub.(j)
        else if alpha < -.st.eps then below <> w.at_ub.(j)
        else false
      in
      if eligible then begin
        let a = Float.abs alpha in
        let ratio = Float.abs st.z.(j) /. a in
        if
          ratio < !best -. 1e-12
          || (ratio <= !best +. 1e-12 && (not bland) && a > !best_alpha)
        then begin
          best := ratio;
          best_alpha := a;
          q := j
        end
      end
    end
  done;
  !q

let resolve w =
  let st = w.w in
  let counts = fresh_counts () in
  let detail = Printf.sprintf "rows=%d cols=%d" st.m st.ncols in
  Obs.Span.phase ~detail
    ~result_detail:(fun _ -> Printf.sprintf "%s iters=%d" detail counts.iters)
    "lp.simplex.solve"
  @@ fun () ->
  let max_iters = 200 * (st.ncols + 1) in
  let flush result =
    Obs.Counter.incr c_solves;
    Obs.Counter.add c_phase1_iters counts.iters;
    Obs.Counter.add c_degenerate counts.degen;
    Obs.Counter.add c_bland counts.bland;
    result
  in
  let rec go iters degenerate_run =
    let bland = degenerate_run > 50 in
    let r = dual_leaving w ~bland in
    if r < 0 then begin
      let x = Array.init w.wn (fun j ->
          if w.row_of.(j) >= 0 then w.xb.(w.row_of.(j)) else nonbasic_value w j)
      in
      Primal x
    end
    else if iters >= max_iters then Stalled
    else
      let p = st.basis.(r) in
      let below = w.xb.(r) < w.wlb.(p) in
      let q = dual_entering w r ~below ~bland in
      if q < 0 then
        (* entries the ratio test treats as zero are dropped: a tiny one
           on an unbounded logical would void the certificate *)
        Farkas
          (Array.init st.m (fun r' ->
               let v = st.tab.(r).(w.wn + r') in
               if Float.abs v <= st.eps then 0.0 else v))
      else begin
        counts.iters <- counts.iters + 1;
        let degenerate = Float.abs st.z.(q) <= st.eps in
        if degenerate then begin
          counts.degen <- counts.degen + 1;
          if degenerate_run = 50 then counts.bland <- counts.bland + 1
        end;
        (* primal step: q moves until p sits on its violated bound *)
        let target = if below then w.wlb.(p) else w.wub.(p) in
        let delta = (w.xb.(r) -. target) /. st.tab.(r).(q) in
        let xq = nonbasic_value w q +. delta in
        for r' = 0 to st.m - 1 do
          let f = Array.unsafe_get st.tab.(r') q in
          if f <> 0.0 then w.xb.(r') <- w.xb.(r') -. (f *. delta)
        done;
        w.at_ub.(p) <- not below;
        w.row_of.(p) <- -1;
        pivot st r q;
        w.row_of.(q) <- r;
        w.xb.(r) <- xq;
        go (iters + 1) (if degenerate then degenerate_run + 1 else 0)
      end
  in
  flush (if place_nonbasics w then go 0 0 else Stalled)

let certifies_infeasible ~rows ~b ~lb ~ub ~eq y =
  let m = Array.length rows and n = Array.length lb in
  (* y·(A x + s) = y·b holds at every solution; the certificate is valid
     when no point of the box reaches y·b *)
  let lo = ref 0.0 and hi = ref 0.0 and scale = ref 1.0 in
  let add g l u =
    if g > 0.0 then begin
      lo := !lo +. (g *. l);
      hi := !hi +. (g *. u)
    end
    else if g < 0.0 then begin
      lo := !lo +. (g *. u);
      hi := !hi +. (g *. l)
    end;
    if g <> 0.0 then
      let finite_u = if Float.is_finite u then Float.abs u else 0.0 in
      scale := !scale +. (Float.abs g *. Float.max (Float.abs l) finite_u)
  in
  let g = Array.make n 0.0 in
  Array.iteri
    (fun r row ->
      if y.(r) <> 0.0 then
        Array.iter (fun (j, v) -> g.(j) <- g.(j) +. (y.(r) *. v)) row)
    rows;
  for j = 0 to n - 1 do
    add g.(j) lb.(j) ub.(j)
  done;
  let yb = ref 0.0 in
  for r = 0 to m - 1 do
    add y.(r) 0.0 (if eq.(r) then 0.0 else infinity);
    yb := !yb +. (y.(r) *. b.(r));
    scale := !scale +. Float.abs (y.(r) *. b.(r))
  done;
  let tol = warm_eps *. !scale in
  !yb < !lo -. tol || !yb > !hi +. tol
