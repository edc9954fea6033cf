type env =
  | Identical
  | Uniform of float array
  | Restricted of bool array array
  | Unrelated of float array array

type t = {
  env : env;
  num_machines : int;
  num_classes : int;
  sizes : float array;
  job_class : int array;
  setups : float array;
  setup_matrix : float array array option;
}

let num_jobs t = Array.length t.sizes
let num_machines t = t.num_machines
let num_classes t = t.num_classes

let ptime t i j =
  match t.env with
  | Identical -> t.sizes.(j)
  | Uniform speeds -> t.sizes.(j) /. speeds.(i)
  | Restricted eligible -> if eligible.(i).(j) then t.sizes.(j) else infinity
  | Unrelated p -> p.(i).(j)

(* In the restricted environment a class is available on a machine iff some
   of its jobs is; precompute that on demand would need caching, but K and m
   are small in this code base, so a scan is fine. *)
let setup_time t i k =
  match t.setup_matrix with
  | Some s -> s.(i).(k)
  | None -> (
      match t.env with
      | Identical -> t.setups.(k)
      | Uniform speeds -> t.setups.(k) /. speeds.(i)
      | Restricted eligible ->
          let n = Array.length t.sizes in
          let rec any j =
            if j >= n then false
            else (t.job_class.(j) = k && eligible.(i).(j)) || any (j + 1)
          in
          if any 0 then t.setups.(k) else infinity
      | Unrelated _ -> t.setups.(k))

let job_eligible t i j =
  ptime t i j < infinity && setup_time t i t.job_class.(j) < infinity

let speed t i =
  match t.env with
  | Uniform speeds -> speeds.(i)
  | Identical | Restricted _ | Unrelated _ -> 1.0

let jobs_of_class t k =
  let acc = ref [] in
  for j = num_jobs t - 1 downto 0 do
    if t.job_class.(j) = k then acc := j :: !acc
  done;
  !acc

let class_size t k =
  let sum = ref 0.0 in
  Array.iteri (fun j kj -> if kj = k then sum := !sum +. t.sizes.(j)) t.job_class;
  !sum

let total_size t = Array.fold_left ( +. ) 0.0 t.sizes

let eligible_machines t j =
  let acc = ref [] in
  for i = t.num_machines - 1 downto 0 do
    if job_eligible t i j then acc := i :: !acc
  done;
  !acc

(* Validation helpers *)

let check_finite_nonneg what a =
  Array.iteri
    (fun idx x ->
      if not (x >= 0.0 && x < infinity) then
        invalid_arg
          (Printf.sprintf "Instance: %s.(%d) = %g must be finite and >= 0"
             what idx x))
    a

let check_nonneg_maybe_inf what a =
  Array.iteri
    (fun idx x ->
      if not (x >= 0.0) then
        invalid_arg
          (Printf.sprintf "Instance: %s.(%d) = %g must be >= 0" what idx x))
    a

let check_classes ~num_classes job_class setups =
  if Array.length setups <> num_classes then
    invalid_arg "Instance: setups length must equal number of classes";
  Array.iteri
    (fun j k ->
      if k < 0 || k >= num_classes then
        invalid_arg
          (Printf.sprintf "Instance: job %d has class %d out of range" j k))
    job_class

let check_matrix what ~rows ~cols mat =
  if Array.length mat <> rows then
    invalid_arg (Printf.sprintf "Instance: %s must have %d rows" what rows);
  Array.iter
    (fun row ->
      if Array.length row <> cols then
        invalid_arg
          (Printf.sprintf "Instance: %s rows must have %d columns" what cols))
    mat

let make ~env ~num_machines ~sizes ~job_class ~setups ~setup_matrix =
  if num_machines <= 0 then invalid_arg "Instance: need at least one machine";
  if Array.length sizes <> Array.length job_class then
    invalid_arg "Instance: sizes and job_class must have equal length";
  let num_classes = Array.length setups in
  check_classes ~num_classes job_class setups;
  check_finite_nonneg "sizes" sizes;
  check_finite_nonneg "setups" setups;
  (match setup_matrix with
  | None -> ()
  | Some s ->
      check_matrix "setup_matrix" ~rows:num_machines ~cols:num_classes s;
      Array.iter (check_nonneg_maybe_inf "setup_matrix row") s);
  { env; num_machines; num_classes; sizes; job_class; setups; setup_matrix }

let identical ~num_machines ~sizes ~job_class ~setups =
  make ~env:Identical ~num_machines ~sizes ~job_class ~setups
    ~setup_matrix:None

let uniform ~speeds ~sizes ~job_class ~setups =
  Array.iteri
    (fun i v ->
      if not (v > 0.0 && v < infinity) then
        invalid_arg
          (Printf.sprintf "Instance: speeds.(%d) = %g must be positive" i v))
    speeds;
  make ~env:(Uniform speeds) ~num_machines:(Array.length speeds) ~sizes
    ~job_class ~setups ~setup_matrix:None

let restricted ~eligible ~sizes ~job_class ~setups =
  let num_machines = Array.length eligible in
  if num_machines = 0 then invalid_arg "Instance: need at least one machine";
  check_matrix "eligible" ~rows:num_machines ~cols:(Array.length sizes)
    eligible;
  make ~env:(Restricted eligible) ~num_machines ~sizes ~job_class ~setups
    ~setup_matrix:None

let unrelated ?setup_matrix ~p ~job_class ~setups () =
  let num_machines = Array.length p in
  if num_machines = 0 then invalid_arg "Instance: need at least one machine";
  let n = Array.length job_class in
  check_matrix "p" ~rows:num_machines ~cols:n p;
  Array.iter (check_nonneg_maybe_inf "p row") p;
  (* Base sizes for the unrelated case: minimum finite processing time of
     each job, a harmless reference value for generators and printing. *)
  let sizes =
    Array.init n (fun j ->
        let best = ref infinity in
        for i = 0 to num_machines - 1 do
          if p.(i).(j) < !best then best := p.(i).(j)
        done;
        if !best < infinity then !best else 0.0)
  in
  make ~env:(Unrelated p) ~num_machines ~sizes ~job_class ~setups
    ~setup_matrix

let induced t jobs =
  let n = num_jobs t in
  let jobs = List.sort_uniq compare jobs in
  if jobs = [] then invalid_arg "Instance.induced: empty job selection";
  List.iter
    (fun j ->
      if j < 0 || j >= n then
        invalid_arg (Printf.sprintf "Instance.induced: job %d out of range" j))
    jobs;
  let jobs = Array.of_list jobs in
  let pick a = Array.map (fun j -> a.(j)) jobs in
  let env =
    match t.env with
    | Identical -> Identical
    | Uniform speeds -> Uniform (Array.copy speeds)
    | Restricted eligible -> Restricted (Array.map pick eligible)
    | Unrelated p -> Unrelated (Array.map pick p)
  in
  {
    t with
    env;
    sizes = pick t.sizes;
    job_class = pick t.job_class;
  }

type new_job = {
  nsize : float;
  nclass : int;
  nptimes : float array option;
  neligible : bool array option;
}

let append_jobs t jobs =
  if jobs = [] then invalid_arg "Instance.append_jobs: empty job list";
  let m = t.num_machines in
  List.iteri
    (fun idx (j : new_job) ->
      let bad what =
        invalid_arg (Printf.sprintf "Instance.append_jobs: job %d: %s" idx what)
      in
      (match (j.nptimes, t.env) with
      | Some p, Unrelated _ when Array.length p <> m ->
          bad (Printf.sprintf "ptimes needs %d entries" m)
      | Some _, (Identical | Uniform _ | Restricted _) ->
          bad "ptimes only applies to the unrelated environment"
      | None, Unrelated _ -> bad "the unrelated environment needs ptimes"
      | _ -> ());
      match (j.neligible, t.env) with
      | Some e, Restricted _ when Array.length e <> m ->
          bad (Printf.sprintf "eligible needs %d entries" m)
      | Some _, (Identical | Uniform _ | Unrelated _) ->
          bad "eligible only applies to the restricted environment"
      | _ -> ())
    jobs;
  let added = Array.of_list jobs in
  let sizes = Array.append t.sizes (Array.map (fun j -> j.nsize) added) in
  let job_class =
    Array.append t.job_class (Array.map (fun j -> j.nclass) added)
  in
  let setups = Array.copy t.setups in
  match t.env with
  | Identical -> identical ~num_machines:m ~sizes ~job_class ~setups
  | Uniform speeds ->
      uniform ~speeds:(Array.copy speeds) ~sizes ~job_class ~setups
  | Restricted eligible ->
      let eligible =
        Array.init m (fun i ->
            Array.append eligible.(i)
              (Array.map
                 (fun j ->
                   match j.neligible with Some e -> e.(i) | None -> true)
                 added))
      in
      restricted ~eligible ~sizes ~job_class ~setups
  | Unrelated p ->
      let p =
        Array.init m (fun i ->
            Array.append p.(i)
              (Array.map
                 (fun j -> match j.nptimes with Some q -> q.(i) | None -> 0.0)
                 added))
      in
      unrelated
        ?setup_matrix:(Option.map (Array.map Array.copy) t.setup_matrix)
        ~p ~job_class ~setups ()

let clone_job t job =
  if job < 0 || job >= num_jobs t then
    invalid_arg (Printf.sprintf "Instance.clone_job: job %d out of range" job);
  let column a = Array.init t.num_machines (fun i -> a.(i).(job)) in
  {
    nsize = t.sizes.(job);
    nclass = t.job_class.(job);
    nptimes = (match t.env with Unrelated p -> Some (column p) | _ -> None);
    neligible = (match t.env with Restricted e -> Some (column e) | _ -> None);
  }

let scale_setups t factor =
  if not (factor >= 0.0 && factor < infinity) then
    invalid_arg "Instance.scale_setups: factor must be finite and >= 0";
  {
    t with
    setups = Array.map (fun s -> s *. factor) t.setups;
    setup_matrix =
      Option.map
        (Array.map (Array.map (fun s -> s *. factor)))
        t.setup_matrix;
  }

let restrict_class_uniform t =
  match t.env with
  | Identical | Uniform _ -> true
  | Unrelated _ -> false
  | Restricted eligible ->
      let n = num_jobs t in
      let ok = ref true in
      for k = 0 to t.num_classes - 1 do
        (* all jobs of class k must agree with the first one on every
           machine *)
        let first = ref (-1) in
        for j = 0 to n - 1 do
          if t.job_class.(j) = k then
            if !first < 0 then first := j
            else
              for i = 0 to t.num_machines - 1 do
                if eligible.(i).(j) <> eligible.(i).(!first) then ok := false
              done
        done
      done;
      !ok

let class_uniform_ptimes t =
  let n = num_jobs t in
  let ok = ref true in
  for k = 0 to t.num_classes - 1 do
    let first = ref (-1) in
    for j = 0 to n - 1 do
      if t.job_class.(j) = k then
        if !first < 0 then first := j
        else
          for i = 0 to t.num_machines - 1 do
            let a = ptime t i j and b = ptime t i !first in
            if not (a = b || (a = infinity && b = infinity)) then ok := false
          done
    done
  done;
  !ok

let pp ppf t =
  let env_name =
    match t.env with
    | Identical -> "identical"
    | Uniform _ -> "uniform"
    | Restricted _ -> "restricted"
    | Unrelated _ -> "unrelated"
  in
  Format.fprintf ppf "@[<v>%s instance: %d jobs, %d machines, %d classes@,"
    env_name (num_jobs t) t.num_machines t.num_classes;
  (match t.env with
  | Uniform speeds ->
      Format.fprintf ppf "speeds: @[%a@]@,"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space
           Format.pp_print_float)
        (Array.to_list speeds)
  | Identical | Restricted _ | Unrelated _ -> ());
  Format.fprintf ppf "setups: @[%a@]@,"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_float)
    (Array.to_list t.setups);
  for j = 0 to num_jobs t - 1 do
    Format.fprintf ppf "job %d: class %d size %g@," j t.job_class.(j)
      t.sizes.(j)
  done;
  Format.fprintf ppf "@]"
