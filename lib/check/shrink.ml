module I = Core.Instance

let remove_idx a idx =
  Array.init
    (Array.length a - 1)
    (fun i -> if i < idx then a.(i) else a.(i + 1))

let rebuild instance ~env ~num_machines ~sizes ~job_class ~setups ~setup_matrix
    =
  ignore instance;
  match (env : I.env) with
  | I.Identical -> I.identical ~num_machines ~sizes ~job_class ~setups
  | I.Uniform speeds -> I.uniform ~speeds ~sizes ~job_class ~setups
  | I.Restricted eligible -> I.restricted ~eligible ~sizes ~job_class ~setups
  | I.Unrelated p -> I.unrelated ?setup_matrix ~p ~job_class ~setups ()

let drop_machine instance i =
  let m = I.num_machines instance in
  if m <= 1 || i < 0 || i >= m then None
  else
    let env =
      match instance.I.env with
      | I.Identical -> I.Identical
      | I.Uniform speeds -> I.Uniform (remove_idx speeds i)
      | I.Restricted eligible -> I.Restricted (remove_idx eligible i)
      | I.Unrelated p -> I.Unrelated (remove_idx p i)
    in
    match
      rebuild instance ~env ~num_machines:(m - 1)
        ~sizes:(Array.copy instance.I.sizes)
        ~job_class:(Array.copy instance.I.job_class)
        ~setups:(Array.copy instance.I.setups)
        ~setup_matrix:(Option.map (fun s -> remove_idx s i) instance.I.setup_matrix)
    with
    | twin -> if Algos.Catalog.all_jobs_eligible twin then Some twin else None
    | exception Invalid_argument _ -> None

let merge_classes instance ~src ~dst =
  let kk = I.num_classes instance in
  if src = dst || src < 0 || src >= kk || dst < 0 || dst >= kk then None
  else
    let compact k =
      let k = if k = src then dst else k in
      if k > src then k - 1 else k
    in
    let job_class = Array.map compact instance.I.job_class in
    let setups = remove_idx instance.I.setups src in
    let setup_matrix =
      Option.map (Array.map (fun row -> remove_idx row src)) instance.I.setup_matrix
    in
    let env =
      match instance.I.env with
      | I.Identical -> I.Identical
      | I.Uniform speeds -> I.Uniform (Array.copy speeds)
      | I.Restricted eligible -> I.Restricted (Array.map Array.copy eligible)
      | I.Unrelated p -> I.Unrelated (Array.map Array.copy p)
    in
    match
      rebuild instance ~env ~num_machines:(I.num_machines instance)
        ~sizes:(Array.copy instance.I.sizes) ~job_class ~setups ~setup_matrix
    with
    | twin -> Some twin
    | exception Invalid_argument _ -> None

let pow2 x =
  if not (Float.is_finite x) || x <= 0.0 then x
  else 2.0 ** Float.round (Float.log2 x)

let coarsen instance =
  let round_all a = Array.map pow2 a in
  let env =
    match instance.I.env with
    | I.Identical -> I.Identical
    | I.Uniform speeds -> I.Uniform (Array.copy speeds)
    | I.Restricted eligible -> I.Restricted (Array.map Array.copy eligible)
    | I.Unrelated p -> I.Unrelated (Array.map round_all p)
  in
  rebuild instance ~env ~num_machines:(I.num_machines instance)
    ~sizes:(round_all instance.I.sizes)
    ~job_class:(Array.copy instance.I.job_class)
    ~setups:(round_all instance.I.setups)
    ~setup_matrix:(Option.map (Array.map round_all) instance.I.setup_matrix)

(* Candidate reductions for one round, largest bites first. Each thunk
   yields [None] when the reduction does not apply. *)
let candidates instance =
  let n = I.num_jobs instance in
  let m = I.num_machines instance in
  let kk = I.num_classes instance in
  let drop_jobs lo hi () =
    (* drop jobs [lo, hi); keep the rest *)
    let keep = List.filter (fun j -> j < lo || j >= hi) (List.init n Fun.id) in
    if keep = [] then None
    else
      match I.induced instance keep with
      | twin -> Some twin
      | exception Invalid_argument _ -> None
  in
  let halves =
    if n >= 2 then [ drop_jobs 0 (n / 2); drop_jobs (n / 2) n ] else []
  in
  let quarters =
    if n >= 4 then
      List.init 4 (fun q -> drop_jobs (q * n / 4) ((q + 1) * n / 4))
    else []
  in
  let singles = List.init n (fun j -> drop_jobs j (j + 1)) in
  let machines = List.init m (fun i () -> drop_machine instance i) in
  let merges =
    List.init (kk - 1) (fun k () ->
        merge_classes instance ~src:(k + 1) ~dst:0)
  in
  let coarsened () =
    let twin = coarsen instance in
    if twin = instance then None else Some twin
  in
  halves @ quarters @ singles @ machines @ merges @ [ coarsened ]

let shrink ?(max_steps = 500) ~still_fails instance =
  let steps = ref 0 in
  let fails twin =
    if !steps >= max_steps then false
    else begin
      incr steps;
      try still_fails twin with _ -> false
    end
  in
  let rec improve current =
    let rec first = function
      | [] -> current
      | cand :: rest -> (
          match cand () with
          | Some twin when fails twin -> improve twin
          | _ -> first rest)
    in
    first (candidates current)
  in
  (* bind before pairing: tuple components evaluate right-to-left, which
     would read [steps] before the loop has spent any *)
  let result = improve instance in
  (result, !steps)
