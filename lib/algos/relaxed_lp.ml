type solution = { makespan : float; xbar : float array array }

let solve ~workload ~setup ~max_job ~has_jobs ~num_machines ~num_classes
    ~makespan:t =
  let lp = Lp.create () in
  let xv = Array.make_matrix num_machines num_classes None in
  for i = 0 to num_machines - 1 do
    for k = 0 to num_classes - 1 do
      let p = workload i k and s = setup i k and big = max_job i k in
      (* (14) and the (16)-style filter; also require t > s so that α_ik is
         finite when the class has positive workload. A class without jobs
         needs no machine: it gets no variable and no row (12). *)
      if has_jobs k && p < infinity && s +. big <= t && (p = 0.0 || t > s) then
        xv.(i).(k) <- Some (Lp.add_var ~ub:1.0 lp (Printf.sprintf "xb_%d_%d" i k))
    done
  done;
  let feasible = ref true in
  (* (12) *)
  for k = 0 to num_classes - 1 do
    let terms = ref [] in
    for i = 0 to num_machines - 1 do
      match xv.(i).(k) with
      | Some v -> terms := (1.0, v) :: !terms
      | None -> ()
    done;
    if !terms <> [] then Lp.add_constraint lp !terms Lp.Eq 1.0
    else if has_jobs k then feasible := false
  done;
  if not !feasible then None
  else begin
    (* (11) *)
    for i = 0 to num_machines - 1 do
      let terms = ref [] in
      for k = 0 to num_classes - 1 do
        match xv.(i).(k) with
        | Some v ->
            let p = workload i k and s = setup i k in
            let alpha = if p <= 0.0 then 1.0 else Float.max 1.0 (p /. (t -. s)) in
            let coeff = p +. (alpha *. s) in
            if coeff > 0.0 then terms := (coeff, v) :: !terms
        | None -> ()
      done;
      if !terms <> [] then Lp.add_constraint lp !terms Lp.Le t
    done;
    match Lp.solve lp with
    | Lp.Optimal sol ->
        let xbar =
          Array.init num_machines (fun i ->
              Array.init num_classes (fun k ->
                  match xv.(i).(k) with
                  | Some v -> Float.min 1.0 (Float.max 0.0 (Lp.value sol v))
                  | None -> 0.0))
        in
        Some { makespan = t; xbar }
    | Lp.Infeasible -> None
    | Lp.Unbounded -> assert false (* all variables are boxed *)
    | Lp.Aborted -> None
  end

type split = {
  integral : (int * int) list;
  graph : Graphs.Pseudoforest.t;
}

let tol = 1e-7

let split_solution ~num_machines ~num_classes sol =
  let graph = Graphs.Pseudoforest.create ~num_classes ~num_machines in
  let integral = ref [] in
  for k = num_classes - 1 downto 0 do
    let home = ref (-1) in
    for i = 0 to num_machines - 1 do
      if sol.xbar.(i).(k) >= 1.0 -. tol then home := i
    done;
    if !home >= 0 then integral := (k, !home) :: !integral
    else
      for i = 0 to num_machines - 1 do
        if sol.xbar.(i).(k) > tol then
          Graphs.Pseudoforest.add_edge graph ~cls:k ~machine:i
      done
  done;
  { integral = !integral; graph }
