type outcome =
  | Optimal of { objective : float; x : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit

type row = (int * float) array

type dual_outcome =
  | Primal of float array
  | Farkas of float array
  | Stalled

let c_solves = Obs.Counter.make "lp.simplex.solves"
let c_phase1_iters = Obs.Counter.make "lp.simplex.phase1_iters"
let c_phase2_iters = Obs.Counter.make "lp.simplex.phase2_iters"
let c_degenerate = Obs.Counter.make "lp.simplex.degenerate_pivots"
let c_bland = Obs.Counter.make "lp.simplex.bland_switches"
let c_warm_fallbacks = Obs.Counter.make "lp.simplex.warm_fallbacks"
let record_fallback () = Obs.Counter.incr c_warm_fallbacks

(* Feasibility/optimality tolerance of every solve and certificate. *)
let eps = 1e-9

(* The tableau spans [n] structural columns and one logical column per
   row ([a_r·x + s_r = b_r]), so its logical block is the basis inverse:
   [rhs] is B⁻¹b and row r of that block is a Farkas multiplier when row
   r proves infeasibility. It is kept in canonical form (basic columns are
   unit vectors) together with the reduced-cost row [z]. Every nonbasic
   column rests on a finite bound, [at_ub] says which, and [xb] holds the
   basic values that follow from them. All hot loops use unsafe accesses;
   shapes are validated once in [create]. *)
type warm = {
  m : int;
  n : int;
  ncols : int; (* n + m *)
  tab : float array array; (* m rows of length ncols *)
  rhs : float array; (* B⁻¹b *)
  basis : int array; (* basic column of each row *)
  z : float array; (* reduced costs, length ncols *)
  nz : int array; (* scratch: nonzero columns of the pivot row *)
  b : float array; (* current right-hand side *)
  lb : float array; (* current bounds of all n + m columns *)
  ub : float array;
  at_ub : bool array; (* nonbasic columns resting at their upper bound *)
  row_of : int array; (* row of each basic column, -1 when nonbasic *)
  xb : float array; (* value of each row's basic column *)
}

(* Rows of the LPs solved here are sparse, so a pivot collects the
   nonzeros of the pivot row once and eliminates over those alone; a zero
   entry would leave every other row unchanged anyway. *)
let pivot w r j =
  let row = w.tab.(r) in
  let piv = row.(j) in
  let inv = 1.0 /. piv in
  let nnz = ref 0 in
  for t = 0 to w.ncols - 1 do
    let v = Array.unsafe_get row t in
    if v <> 0.0 then begin
      Array.unsafe_set row t (v *. inv);
      Array.unsafe_set w.nz !nnz t;
      incr nnz
    end
  done;
  let nnz = !nnz in
  row.(j) <- 1.0;
  w.rhs.(r) <- w.rhs.(r) *. inv;
  let eliminate target f =
    for q = 0 to nnz - 1 do
      let t = Array.unsafe_get w.nz q in
      Array.unsafe_set target t
        (Array.unsafe_get target t -. (f *. Array.unsafe_get row t))
    done;
    target.(j) <- 0.0
  in
  for r' = 0 to w.m - 1 do
    if r' <> r then begin
      let row' = w.tab.(r') in
      let f = Array.unsafe_get row' j in
      if f <> 0.0 then begin
        eliminate row' f;
        w.rhs.(r') <- w.rhs.(r') -. (f *. w.rhs.(r))
      end
    end
  done;
  let f = w.z.(j) in
  if f <> 0.0 then eliminate w.z f;
  w.basis.(r) <- j

(* Pivot statistics of one solve, accumulated locally and flushed to the
   process-wide counters once, so the pivot loops never touch shared
   memory. *)
type counts = {
  mutable iters : int;
  mutable degen : int;
  mutable bland : int;
}

let fresh_counts () = { iters = 0; degen = 0; bland = 0 }

let count_pivot counts ~degenerate ~degenerate_run =
  counts.iters <- counts.iters + 1;
  if degenerate then begin
    counts.degen <- counts.degen + 1;
    if degenerate_run = 50 then counts.bland <- counts.bland + 1
  end

(* Dual pivots count as phase 1, primal pivots as phase 2. *)
let flush ~dual ~primal =
  Obs.Counter.incr c_solves;
  Obs.Counter.add c_phase1_iters dual.iters;
  Obs.Counter.add c_phase2_iters primal.iters;
  Obs.Counter.add c_degenerate (dual.degen + primal.degen);
  Obs.Counter.add c_bland (dual.bland + primal.bland)

(* The slack basis prices column j at c_j, so it is dual feasible when
   every cost points at a finite bound ([lb] always is). *)
let slack_basis_dual_feasible ~c ~ub =
  let ok = ref true in
  Array.iteri (fun j cj -> if cj < 0.0 && ub.(j) = infinity then ok := false) c;
  !ok

(* The slack basis: every logical basic, every structural column on the
   bound its cost asks for. *)
let create name ~rows ~b ~c ~lb ~ub ~eq =
  let m = Array.length rows and n = Array.length c in
  if Array.length b <> m || Array.length eq <> m then
    invalid_arg (name ^ ": |b| and |eq| must equal rows");
  if Array.length lb <> n || Array.length ub <> n then
    invalid_arg (name ^ ": |lb| and |ub| must equal columns");
  let ncols = n + m in
  let tab =
    Array.init m (fun r ->
        let row = Array.make ncols 0.0 in
        Array.iter
          (fun (j, v) ->
            if j < 0 || j >= n then
              invalid_arg (Printf.sprintf "%s: row %d names column %d" name r j);
            row.(j) <- row.(j) +. v)
          rows.(r);
        row.(n + r) <- 1.0;
        row)
  in
  let wlb = Array.make ncols 0.0 and wub = Array.make ncols infinity in
  for j = 0 to n - 1 do
    if not (Float.is_finite lb.(j)) || lb.(j) > ub.(j) then
      invalid_arg (name ^ ": bounds must satisfy finite lb <= ub");
    wlb.(j) <- lb.(j);
    wub.(j) <- ub.(j)
  done;
  for r = 0 to m - 1 do
    if eq.(r) then wub.(n + r) <- 0.0
  done;
  let z = Array.make ncols 0.0 in
  Array.blit c 0 z 0 n;
  {
    m;
    n;
    ncols;
    tab;
    rhs = Array.copy b;
    basis = Array.init m (fun r -> n + r);
    z;
    nz = Array.make ncols 0;
    b = Array.copy b;
    lb = wlb;
    ub = wub;
    at_ub = Array.init ncols (fun j -> j < n && c.(j) < 0.0 && ub.(j) < infinity);
    row_of = Array.init ncols (fun j -> if j < n then -1 else j - n);
    xb = Array.make m 0.0;
  }

let warm ~rows ~b ~c ~lb ~ub ~eq =
  let w = create "Simplex.warm" ~rows ~b ~c ~lb ~ub ~eq in
  if not (slack_basis_dual_feasible ~c ~ub) then
    invalid_arg "Simplex.warm: a negative cost needs a finite upper bound";
  w

let set_bounds w j ~lb ~ub =
  if j < 0 || j >= w.n then invalid_arg "Simplex.set_bounds: not a column";
  if not (Float.is_finite lb) || lb > ub then
    invalid_arg "Simplex.set_bounds: bounds must satisfy finite lb <= ub";
  w.lb.(j) <- lb;
  w.ub.(j) <- ub

let set_rhs w r v =
  if r < 0 || r >= w.m then invalid_arg "Simplex.set_rhs: not a row";
  let delta = v -. w.b.(r) in
  if delta <> 0.0 then begin
    (* B⁻¹ is the logical block: B⁻¹b moves by delta times its column r *)
    let col = w.n + r in
    for r' = 0 to w.m - 1 do
      let f = w.tab.(r').(col) in
      if f <> 0.0 then w.rhs.(r') <- w.rhs.(r') +. (f *. delta)
    done;
    w.b.(r) <- v
  end

let nonbasic_value w j = if w.at_ub.(j) then w.ub.(j) else w.lb.(j)

let structural w =
  Array.init w.n (fun j ->
      if w.row_of.(j) >= 0 then w.xb.(w.row_of.(j)) else nonbasic_value w j)

(* --- bounded dual simplex ------------------------------------------------ *)

(* Rest every nonbasic column on the bound its reduced cost asks for and
   recompute the basic values from B⁻¹b. False when some column would
   need an infinite bound, i.e. the basis is not dual feasible. *)
let place_nonbasics w =
  let ok = ref true in
  for j = 0 to w.ncols - 1 do
    if w.row_of.(j) < 0 then begin
      let d = w.z.(j) in
      if w.lb.(j) = w.ub.(j) then w.at_ub.(j) <- false
      else if d < -.eps then begin
        if w.ub.(j) = infinity then ok := false else w.at_ub.(j) <- true
      end
      else if d > eps || w.ub.(j) = infinity then w.at_ub.(j) <- false
    end
  done;
  Array.blit w.rhs 0 w.xb 0 w.m;
  for j = 0 to w.ncols - 1 do
    if w.row_of.(j) < 0 then begin
      let v = nonbasic_value w j in
      if v <> 0.0 then
        for r = 0 to w.m - 1 do
          let f = Array.unsafe_get w.tab.(r) j in
          if f <> 0.0 then w.xb.(r) <- w.xb.(r) -. (f *. v)
        done
    end
  done;
  !ok

(* Leaving row: the basic value furthest outside its bounds, or under
   Bland's rule the violated row whose basic column has the smallest
   index. -1 when the basis is primal feasible. *)
let dual_leaving w ~bland =
  let best = ref 0.0 and r = ref (-1) in
  for r' = 0 to w.m - 1 do
    let p = w.basis.(r') in
    let v = w.xb.(r') in
    let lo = w.lb.(p) and hi = w.ub.(p) in
    let viol =
      if v < lo then lo -. v else if v > hi then v -. hi else 0.0
    in
    let bound = if v < lo then lo else hi in
    if viol > eps *. (1.0 +. Float.abs bound) then
      if bland then begin
        if !r < 0 || p < w.basis.(!r) then r := r'
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
  let row = w.tab.(r) in
  let best = ref infinity and best_alpha = ref 0.0 and q = ref (-1) in
  for j = 0 to w.ncols - 1 do
    if w.row_of.(j) < 0 && w.lb.(j) < w.ub.(j) then begin
      let alpha = Array.unsafe_get row j in
      let eligible =
        if alpha > eps then below = w.at_ub.(j)
        else if alpha < -.eps then below <> w.at_ub.(j)
        else false
      in
      if eligible then begin
        let a = Float.abs alpha in
        let ratio = Float.abs w.z.(j) /. a in
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

(* Move nonbasic column q by [delta] and, unless [r < 0], pivot it into
   row r, whose basic column leaves on its upper bound when [to_ub] and
   on its lower bound otherwise. *)
let move w q ~delta ~r ~to_ub =
  let xq = nonbasic_value w q +. delta in
  for r' = 0 to w.m - 1 do
    let f = Array.unsafe_get w.tab.(r') q in
    if f <> 0.0 then w.xb.(r') <- w.xb.(r') -. (f *. delta)
  done;
  if r >= 0 then begin
    let p = w.basis.(r) in
    w.at_ub.(p) <- to_ub;
    w.row_of.(p) <- -1;
    pivot w r q;
    w.row_of.(q) <- r;
    w.xb.(r) <- xq
  end

(* Where a simplex method stops: at an optimal basis, at a row proving
   the LP infeasible (dual), at an unbounded ray (primal), or at its
   pivot limit. *)
type stop = Done | Proof of int | Ray | Limit

(* From a dual feasible basis, pivot primal infeasibilities away: [Done]
   when the basis is primal feasible (hence optimal), [Proof r] when row
   r proves the LP infeasible, [Limit] after more than
   [200 * (n + m + 1)] pivots or when the basis is not dual feasible. *)
let dual w counts =
  let max_iters = 200 * (w.ncols + 1) in
  let rec go iters degenerate_run =
    let bland = degenerate_run > 50 in
    let r = dual_leaving w ~bland in
    if r < 0 then Done
    else if iters >= max_iters then Limit
    else
      let p = w.basis.(r) in
      let below = w.xb.(r) < w.lb.(p) in
      let q = dual_entering w r ~below ~bland in
      if q < 0 then Proof r
      else begin
        let degenerate = Float.abs w.z.(q) <= eps in
        count_pivot counts ~degenerate ~degenerate_run;
        (* primal step: q moves until p sits on its violated bound *)
        let target = if below then w.lb.(p) else w.ub.(p) in
        let delta = (w.xb.(r) -. target) /. w.tab.(r).(q) in
        move w q ~delta ~r ~to_ub:(not below);
        go (iters + 1) (if degenerate then degenerate_run + 1 else 0)
      end
  in
  if place_nonbasics w then go 0 0 else Limit

(* --- bounded primal simplex ---------------------------------------------- *)

(* Entering column: the nonbasic column whose move off its bound lowers
   the objective fastest (Dantzig), or under Bland's rule the first such
   column. -1 at optimality. *)
let primal_entering w ~bland =
  let best = ref eps and q = ref (-1) in
  (try
     for j = 0 to w.ncols - 1 do
       if w.row_of.(j) < 0 && w.lb.(j) < w.ub.(j) then begin
         let rate = if w.at_ub.(j) then w.z.(j) else -.w.z.(j) in
         if rate > !best then begin
           best := rate;
           q := j;
           if bland then raise Exit
         end
       end
     done
   with Exit -> ());
  !q

(* Ratio test for column q leaving its bound ([up]: from its lower
   bound): the row whose basic value reaches one of its bounds first, or
   -1 when q reaches its own other bound first (a bound flip, no pivot).
   Ties between rows go to the larger |alpha|, or under Bland's rule to
   the smaller basic column. An infinite step means the LP is unbounded. *)
let primal_ratio w q ~up ~bland =
  let step = ref (w.ub.(q) -. w.lb.(q)) and r = ref (-1) in
  let best_alpha = ref 0.0 in
  for r' = 0 to w.m - 1 do
    let alpha = Array.unsafe_get w.tab.(r') q in
    (* the basic value of row r' moves by -a per unit of step *)
    let a = if up then alpha else -.alpha in
    if Float.abs a > eps then begin
      let p = w.basis.(r') in
      let room = if a > 0.0 then w.xb.(r') -. w.lb.(p) else w.ub.(p) -. w.xb.(r') in
      let ratio = Float.max 0.0 room /. Float.abs a in
      if
        ratio < !step -. eps
        || ratio <= !step +. eps
           && !r >= 0
           && (if bland then p < w.basis.(!r) else Float.abs a > !best_alpha)
      then begin
        step := ratio;
        r := r';
        best_alpha := Float.abs a
      end
    end
  done;
  (!r, !step)

(* From a primal feasible basis, pivot until no reduced cost improves
   ([Done]), a ray proves the LP unbounded ([Ray]) or more than
   [200 * (n + m + 1)] pivots ([Limit]). *)
let primal w counts =
  let max_iters = 200 * (w.ncols + 1) in
  let rec go iters degenerate_run =
    let bland = degenerate_run > 50 in
    let q = primal_entering w ~bland in
    if q < 0 then Done
    else if iters >= max_iters then Limit
    else
      let up = not w.at_ub.(q) in
      let r, step = primal_ratio w q ~up ~bland in
      if step = infinity then Ray
      else begin
        let degenerate = step <= eps in
        count_pivot counts ~degenerate ~degenerate_run;
        (* row r's basic value changes by -alpha_rq times q's move, and
           leaves on its upper bound when that change is a rise *)
        let to_ub = r >= 0 && (w.tab.(r).(q) < 0.0) = up in
        move w q ~delta:(if up then step else -.step) ~r ~to_ub;
        (* no row blocks: q flips to its other bound *)
        if r < 0 then w.at_ub.(q) <- up;
        go (iters + 1) (if degenerate then degenerate_run + 1 else 0)
      end
  in
  go 0 0

(* Reduced costs of [c] (zero on logicals) in the current basis. *)
let price w c =
  Array.fill w.z 0 w.ncols 0.0;
  Array.blit c 0 w.z 0 w.n;
  for r = 0 to w.m - 1 do
    let p = w.basis.(r) in
    let cb = if p < w.n then c.(p) else 0.0 in
    if cb <> 0.0 then begin
      let row = w.tab.(r) in
      for t = 0 to w.ncols - 1 do
        Array.unsafe_set w.z t
          (Array.unsafe_get w.z t -. (cb *. Array.unsafe_get row t))
      done
    end
  done;
  Array.iter (fun p -> w.z.(p) <- 0.0) w.basis

let solve ~rows ~b ~c ~lb ~ub ~eq =
  let w = create "Simplex.solve" ~rows ~b ~c ~lb ~ub ~eq in
  let p1 = fresh_counts () and p2 = fresh_counts () in
  let detail = Printf.sprintf "rows=%d cols=%d" w.m w.ncols in
  Obs.Span.phase ~detail
    ~result_detail:(fun _ ->
      Printf.sprintf "%s iters=%d" detail (p1.iters + p2.iters))
    "lp.simplex.solve"
  @@ fun () ->
  let optimal () =
    let x = structural w in
    let objective = ref 0.0 in
    Array.iteri (fun j cj -> objective := !objective +. (cj *. x.(j))) c;
    Optimal { objective = !objective; x }
  in
  let stop =
    if slack_basis_dual_feasible ~c ~ub then dual w p1
    else begin
      (* zero costs make every basis dual feasible, so the dual pass
         reaches a feasible basis; the primal phase optimizes from there *)
      Array.fill w.z 0 w.ncols 0.0;
      match dual w p1 with
      | Done ->
          price w c;
          primal w p2
      | stop -> stop
    end
  in
  let result =
    match stop with
    | Done -> optimal ()
    | Proof _ -> Infeasible
    | Ray -> Unbounded
    | Limit -> Iteration_limit
  in
  flush ~dual:p1 ~primal:p2;
  result

let resolve w =
  let counts = fresh_counts () in
  let detail = Printf.sprintf "rows=%d cols=%d" w.m w.ncols in
  Obs.Span.phase ~detail
    ~result_detail:(fun _ -> Printf.sprintf "%s iters=%d" detail counts.iters)
    "lp.simplex.solve"
  @@ fun () ->
  let result =
    match dual w counts with
    | Done -> Primal (structural w)
    | Proof r ->
        (* entries the ratio test treats as zero are dropped: a tiny one
           on an unbounded logical would void the certificate *)
        Farkas
          (Array.init w.m (fun r' ->
               let v = w.tab.(r).(w.n + r') in
               if Float.abs v <= eps then 0.0 else v))
    | Ray | Limit -> Stalled
  in
  flush ~dual:counts ~primal:(fresh_counts ());
  result

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
  let tol = eps *. !scale in
  !yb < !lo -. tol || !yb > !hi +. tol
