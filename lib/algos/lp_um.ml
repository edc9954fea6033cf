type fractional = {
  makespan : float;
  x : float array array;
  y : float array array;
}

let log_src = Logs.Src.create "algos.lp_um" ~doc:"ILP-UM relaxation"

module Log = (val Logs.src_log log_src)

let feasible instance ~makespan:t =
  let n = Core.Instance.num_jobs instance in
  let m = Core.Instance.num_machines instance in
  let kk = Core.Instance.num_classes instance in
  let job_class = instance.Core.Instance.job_class in
  let lp = Lp.create () in
  (* Variables only for pairs that could appear in a schedule of makespan
     t: p_ij <= t (constraint (5)) and s_ik <= t (implied by (1)). *)
  let xv = Array.make_matrix m n None in
  let yv = Array.make_matrix m kk None in
  for i = 0 to m - 1 do
    for k = 0 to kk - 1 do
      if Core.Instance.setup_time instance i k <= t then
        yv.(i).(k) <-
          Some (Lp.add_var ~ub:1.0 lp (Printf.sprintf "y_%d_%d" i k))
    done;
    for j = 0 to n - 1 do
      let p = Core.Instance.ptime instance i j in
      if p <= t && yv.(i).(job_class.(j)) <> None then
        xv.(i).(j) <- Some (Lp.add_var lp (Printf.sprintf "x_%d_%d" i j))
    done
  done;
  (* (2): every job fully assigned *)
  let assignable = ref true in
  for j = 0 to n - 1 do
    let terms = ref [] in
    for i = 0 to m - 1 do
      match xv.(i).(j) with
      | Some v -> terms := (1.0, v) :: !terms
      | None -> ()
    done;
    if !terms = [] then assignable := false
    else Lp.add_constraint lp !terms Lp.Eq 1.0
  done;
  if not !assignable then None
  else begin
    (* (1): machine loads *)
    for i = 0 to m - 1 do
      let terms = ref [] in
      for j = 0 to n - 1 do
        match xv.(i).(j) with
        | Some v -> terms := (Core.Instance.ptime instance i j, v) :: !terms
        | None -> ()
      done;
      for k = 0 to kk - 1 do
        match yv.(i).(k) with
        | Some v ->
            terms := (Core.Instance.setup_time instance i k, v) :: !terms
        | None -> ()
      done;
      if !terms <> [] then Lp.add_constraint lp !terms Lp.Le t
    done;
    (* (4): setups dominate assignments *)
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        match xv.(i).(j) with
        | Some x -> (
            match yv.(i).(job_class.(j)) with
            | Some y -> Lp.add_constraint lp [ (1.0, y); (-1.0, x) ] Lp.Ge 0.0
            | None -> assert false (* x exists only when y does *))
        | None -> ()
      done
    done;
    match Lp.solve lp with
    | Lp.Optimal sol ->
        let x =
          Array.init m (fun i ->
              Array.init n (fun j ->
                  match xv.(i).(j) with
                  | Some v -> Lp.value sol v
                  | None -> 0.0))
        in
        let y =
          Array.init m (fun i ->
              Array.init kk (fun k ->
                  match yv.(i).(k) with
                  | Some v -> Lp.value sol v
                  | None -> 0.0))
        in
        Some { makespan = t; x; y }
    | Lp.Infeasible -> None
    | Lp.Unbounded -> assert false (* feasibility problem, zero objective *)
    | Lp.Aborted -> None
  end

type bound = { lower : float; solution : fractional; probes : int }

(* --- one LP per binary search ------------------------------------------- *)

(* The rows and columns of the relaxation at the top guess [hi], kept for
   the whole search: a probe at [t <= hi] closes (upper bound 0) every
   x_ij and y_ik that [t] filters out and moves the load rows'
   right-hand side to [t]. Rows: one equation (2) per job, one load row
   (1) per machine, one x_ij - y_ik <= 0 row (4) per x column. *)
type search = {
  inst : Core.Instance.t;
  xs : (int * int) array; (* (machine, job) of x column c *)
  ys : (int * int) array; (* (machine, class) of y column |xs| + c *)
  ycol : int array; (* the y column dominating x column c *)
  rows : Lp.Simplex.row array;
  b : float array;
  eq : bool array;
  c : float array;
  lb : float array; (* all 0 *)
  ub : float array; (* 1, or 0 for a pair the current guess filters out *)
  mutable lp : Lp.Simplex.warm; (* from the slack basis after a fallback *)
}

let search_lp instance ~hi =
  let n = Core.Instance.num_jobs instance in
  let m = Core.Instance.num_machines instance in
  let kk = Core.Instance.num_classes instance in
  let job_class = instance.Core.Instance.job_class in
  let ycol_of = Array.make_matrix m kk (-1) and ys = ref [] and ny = ref 0 in
  for i = 0 to m - 1 do
    for k = 0 to kk - 1 do
      if
        Core.Instance.jobs_of_class instance k <> []
        && Core.Instance.setup_time instance i k <= hi
      then begin
        ycol_of.(i).(k) <- !ny;
        ys := (i, k) :: !ys;
        incr ny
      end
    done
  done;
  let xs = ref [] in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      if
        ycol_of.(i).(job_class.(j)) >= 0
        && Core.Instance.ptime instance i j <= hi
      then xs := (i, j) :: !xs
    done
  done;
  let xs = Array.of_list (List.rev !xs) and ys = Array.of_list (List.rev !ys) in
  let nx = Array.length xs in
  let ncols = nx + Array.length ys in
  let ycol = Array.map (fun (i, j) -> nx + ycol_of.(i).(job_class.(j))) xs in
  let assign = Array.make n [] and load = Array.make m [] in
  Array.iteri
    (fun c (i, j) ->
      assign.(j) <- (c, 1.0) :: assign.(j);
      load.(i) <- (c, Core.Instance.ptime instance i j) :: load.(i))
    xs;
  Array.iteri
    (fun c (i, k) ->
      load.(i) <- (nx + c, Core.Instance.setup_time instance i k) :: load.(i))
    ys;
  let rows =
    Array.concat
      [
        Array.map Array.of_list assign;
        Array.map Array.of_list load;
        Array.mapi (fun c _ -> [| (c, 1.0); (ycol.(c), -1.0) |]) xs;
      ]
  in
  let nrows = Array.length rows in
  (* Small positive costs (1 plus the column's work relative to [hi]) make
     the slack basis dual feasible; among the feasible points they prefer
     the least work, with y_ik as low as its x_ij allow. *)
  let scale = if hi > 0.0 then hi else 1.0 in
  let c =
    Array.init ncols (fun col ->
        let work =
          if col < nx then
            let i, j = xs.(col) in
            Core.Instance.ptime instance i j
          else
            let i, k = ys.(col - nx) in
            Core.Instance.setup_time instance i k
        in
        1.0 +. (work /. scale))
  in
  let b =
    Array.init nrows (fun r ->
        if r < n then 1.0 else if r < n + m then hi else 0.0)
  and eq = Array.init nrows (fun r -> r < n)
  and lb = Array.make ncols 0.0
  and ub = Array.make ncols 1.0 in
  {
    inst = instance;
    xs;
    ys;
    ycol;
    rows;
    b;
    eq;
    c;
    lb;
    ub;
    lp = Lp.Simplex.warm ~rows ~b ~c ~lb ~ub ~eq;
  }

(* The warm verdict is trusted only after checking it against the
   original constraints (1), (2), (4) and the filters at [t]. *)
let checked_solution s t z =
  let inst = s.inst in
  let n = Core.Instance.num_jobs inst in
  let m = Core.Instance.num_machines inst in
  let kk = Core.Instance.num_classes inst in
  let nx = Array.length s.xs in
  let tol = 1e-6 in
  let ok = ref true in
  let value col =
    let v = z.(col) in
    if v < -.tol || v > s.ub.(col) +. tol then ok := false;
    Float.min s.ub.(col) (Float.max 0.0 v)
  in
  let x = Array.make_matrix m n 0.0 and y = Array.make_matrix m kk 0.0 in
  Array.iteri (fun c (i, j) -> x.(i).(j) <- value c) s.xs;
  Array.iteri (fun c (i, k) -> y.(i).(k) <- value (nx + c)) s.ys;
  for j = 0 to n - 1 do
    let sum = ref 0.0 in
    for i = 0 to m - 1 do
      sum := !sum +. x.(i).(j);
      if x.(i).(j) > y.(i).(inst.Core.Instance.job_class.(j)) +. tol then
        ok := false
    done;
    if Float.abs (!sum -. 1.0) > tol then ok := false
  done;
  for i = 0 to m - 1 do
    let load = ref 0.0 in
    for j = 0 to n - 1 do
      if x.(i).(j) > 0.0 then
        load := !load +. (x.(i).(j) *. Core.Instance.ptime inst i j)
    done;
    for k = 0 to kk - 1 do
      if y.(i).(k) > 0.0 then
        load := !load +. (y.(i).(k) *. Core.Instance.setup_time inst i k)
    done;
    if !load > t +. (tol *. (1.0 +. t)) then ok := false
  done;
  if !ok then Some { makespan = t; x; y } else None

let warm_feasible s t =
  let inst = s.inst in
  let n = Core.Instance.num_jobs inst in
  let m = Core.Instance.num_machines inst in
  let nx = Array.length s.xs in
  Array.iteri
    (fun c (i, k) ->
      s.ub.(nx + c) <-
        (if Core.Instance.setup_time inst i k <= t then 1.0 else 0.0))
    s.ys;
  let open_job = Array.make n false in
  Array.iteri
    (fun c (i, j) ->
      let o = s.ub.(s.ycol.(c)) > 0.0 && Core.Instance.ptime inst i j <= t in
      s.ub.(c) <- (if o then 1.0 else 0.0);
      if o then open_job.(j) <- true)
    s.xs;
  for i = 0 to m - 1 do
    s.b.(n + i) <- t
  done;
  (* a job with no pair left is infeasible without an LP, as in [feasible];
     its own row (2) is the certificate *)
  if not (Array.for_all Fun.id open_job) then None
  else begin
    Array.iteri
      (fun col u -> Lp.Simplex.set_bounds s.lp col ~lb:0.0 ~ub:u)
      s.ub;
    for i = 0 to m - 1 do
      Lp.Simplex.set_rhs s.lp (n + i) t
    done;
    let cold () =
      Lp.Simplex.record_fallback ();
      s.lp <-
        Lp.Simplex.warm ~rows:s.rows ~b:s.b ~c:s.c ~lb:s.lb ~ub:s.ub
          ~eq:s.eq;
      feasible inst ~makespan:t
    in
    match Lp.Simplex.resolve s.lp with
    | Lp.Simplex.Primal z -> (
        match checked_solution s t z with
        | Some sol -> Some sol
        | None -> cold ())
    | Lp.Simplex.Farkas y ->
        if
          Lp.Simplex.certifies_infeasible ~rows:s.rows ~b:s.b ~lb:s.lb
            ~ub:s.ub ~eq:s.eq y
        then None
        else cold ()
    | Lp.Simplex.Stalled -> cold ()
  end

let lower_bound ?(rel_tol = 0.02) instance =
  let lo = Core.Bounds.lower_bound instance in
  let hi = Core.Bounds.naive_upper_bound instance in
  if hi = infinity then invalid_arg "Lp_um.lower_bound: job eligible nowhere";
  let search = search_lp instance ~hi in
  let probes = ref 0 in
  let max_infeasible = ref lo in
  let probe t =
    incr probes;
    let answer = warm_feasible search t in
    Log.debug (fun f ->
        f "probe %d: T=%g %s" !probes t
          (match answer with Some _ -> "feasible" | None -> "infeasible"));
    (match answer with
    | None -> if t > !max_infeasible then max_infeasible := t
    | Some _ -> ());
    answer
  in
  match Core.Binary_search.min_feasible ~lo ~hi ~rel_tol probe with
  | Some (_, sol) ->
      { lower = !max_infeasible; solution = sol; probes = !probes }
  | None ->
      (* The naive upper bound is achievable integrally, so the LP cannot
         be infeasible there. *)
      assert false
