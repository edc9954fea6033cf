module I = Core.Instance
module R = Workloads.Rng

type env_kind = Identical | Uniform | Restricted | Unrelated

let env_of_string = function
  | "identical" -> Some Identical
  | "uniform" -> Some Uniform
  | "restricted" -> Some Restricted
  | "unrelated" -> Some Unrelated
  | _ -> None

let env_to_string = function
  | Identical -> "identical"
  | Uniform -> "uniform"
  | Restricted -> "restricted"
  | Unrelated -> "unrelated"

let all_envs = [ Identical; Uniform; Restricted; Unrelated ]

type budget = Seconds of float | Cases of int

type config = {
  seed : int;
  budget : budget;
  envs : env_kind list;
  algo_filter : string list;
  shrink : bool;
  corpus_dir : string option;
  jobs : int;
  exact_job_limit : int;
  heavy_job_limit : int;
  max_jobs : int;
  metamorphic : bool;
}

let default =
  {
    seed = 1;
    budget = Seconds 5.0;
    envs = all_envs;
    algo_filter = [];
    shrink = true;
    corpus_dir = None;
    jobs = 1;
    exact_job_limit = 9;
    heavy_job_limit = 12;
    max_jobs = 28;
    metamorphic = true;
  }

type failure = {
  case : int;
  env : string;
  instance : I.t;
  violations : Violation.t list;
  shrunk : I.t;
  shrink_steps : int;
  corpus_paths : string list;
}

type summary = {
  cases : int;
  violations : int;
  failures : failure list;
  wall_s : float;
}

(* --- obs wiring ------------------------------------------------------- *)

let c_cases = Obs.Counter.make "check.cases"
let c_violations = Obs.Counter.make "check.violations"
let c_shrink_steps = Obs.Counter.make "check.shrink_steps"
let c_corpus_writes = Obs.Counter.make "check.corpus_writes"
let h_case_us = Obs.Histogram.make "check.case_us"

(* --- instance generation ---------------------------------------------- *)

let empty_one_class rng instance =
  let k = R.int rng (I.num_classes instance) in
  match
    List.filter
      (fun j -> instance.I.job_class.(j) <> k)
      (List.init (I.num_jobs instance) Fun.id)
  with
  | [] -> instance
  | kept -> I.induced instance kept

(* Two out of three cases stay within the exact oracle's reach so that
   ratio-bound is actually exercised; the rest stress the bounds path. *)
let gen_instance rng env ~exact_job_limit ~max_jobs =
  let small = R.float rng < 0.67 in
  let hi = if small then max 2 exact_job_limit else max 2 max_jobs in
  let n = 2 + R.int rng (hi - 1) in
  let m = 1 + R.int rng 4 in
  let k = 1 + R.int rng (min n 4) in
  let instance =
    match env with
    | Identical -> Workloads.Gen.identical rng ~n ~m ~k ()
    | Uniform -> Workloads.Gen.uniform rng ~n ~m ~k ()
    | Restricted -> Workloads.Gen.restricted_class_uniform rng ~n ~m ~k ()
    | Unrelated ->
        (* alternate the general model with the class-uniform one so the
           Theorem-3.11 solver is exercised too *)
        if R.bool rng then Workloads.Gen.unrelated rng ~n ~m ~k ()
        else Workloads.Gen.class_uniform_ptimes rng ~n ~m ~k ()
  in
  (* One case in five empties a class, as a session drop of the class's
     last job does: the class stays declared (setups, indices) with no
     job left to pay its setup. *)
  if R.float rng < 0.2 then empty_one_class rng instance else instance

(* --- one case ---------------------------------------------------------- *)

let heavy_ok ~heavy_job_limit instance =
  I.num_jobs instance <= heavy_job_limit

let check_instance ?registry ?subjects ~seed ~exact_job_limit ~heavy_job_limit
    ~metamorphic instance =
  let registry =
    match registry with Some r -> r | None -> Props.registry ()
  in
  let wants name =
    match subjects with None -> true | Some names -> List.mem name names
  in
  let algos =
    List.filter
      (fun (a : Props.algo) ->
        wants a.Props.name
        && (a.Props.cost = Props.Cheap || heavy_ok ~heavy_job_limit instance))
      registry
  in
  let io = if wants "io" then Props.check_io_roundtrip instance else [] in
  let oracle = Oracle.compute ~exact_job_limit instance in
  let oracle_vs = if wants "oracle" then Oracle.consistent oracle else [] in
  let algo_vs =
    List.concat_map (fun a -> Props.check_algo ~oracle ~seed instance a) algos
  in
  let meta_vs =
    if metamorphic then
      Metamorph.check ~rng:(R.create seed) ~oracle ~seed ~exact_job_limit
        instance algos
    else []
  in
  io @ oracle_vs @ algo_vs @ meta_vs

(* --- shrinking --------------------------------------------------------- *)

(* A candidate still fails if any of the originally-broken (algo, prop)
   pairs is broken on it too; only those algorithms are re-run. *)
let shrink_failure ~registry ~seed ~exact_job_limit ~heavy_job_limit
    ~metamorphic violations instance =
  let pairs =
    List.sort_uniq compare
      (List.map (fun v -> (v.Violation.algo, v.Violation.prop)) violations)
  in
  let subjects = List.sort_uniq compare (List.map fst pairs) in
  let metamorphic =
    metamorphic
    && List.exists
         (fun (_, p) -> String.starts_with ~prefix:"meta-" p)
         pairs
  in
  let still_fails candidate =
    let vs =
      check_instance ~registry ~subjects ~seed ~exact_job_limit
        ~heavy_job_limit ~metamorphic candidate
    in
    List.exists
      (fun v -> List.mem (v.Violation.algo, v.Violation.prop) pairs)
      vs
  in
  Shrink.shrink ~still_fails instance

(* --- the fuzz loop ----------------------------------------------------- *)

let dedup_by_pair violations =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun v ->
      let key = (v.Violation.algo, v.Violation.prop) in
      if Hashtbl.mem seen key then false
      else (
        Hashtbl.add seen key ();
        true))
    violations

let run_case ~registry ~config (case, rng) =
  let env = List.nth config.envs (case mod List.length config.envs) in
  let instance =
    gen_instance rng env ~exact_job_limit:config.exact_job_limit
      ~max_jobs:config.max_jobs
  in
  let case_seed = config.seed + case in
  let t0 = Obs.Sink.now_us () in
  let violations =
    check_instance ~registry ~seed:case_seed
      ~exact_job_limit:config.exact_job_limit
      ~heavy_job_limit:config.heavy_job_limit ~metamorphic:config.metamorphic
      instance
  in
  Obs.Histogram.observe h_case_us (Obs.Sink.now_us () -. t0);
  Obs.Counter.incr c_cases;
  (case, env, instance, case_seed, violations)

let process_failure ~registry ~config (case, env, instance, case_seed, violations)
    =
  Obs.Counter.add c_violations (List.length violations);
  List.iter
    (fun v ->
      Obs.Event.emit ~level:Obs.Event.Error "check.violation"
        [
          ("case", Obs.Event.Int case);
          ("env", Obs.Event.Str (env_to_string env));
          ("algo", Obs.Event.Str v.Violation.algo);
          ("prop", Obs.Event.Str v.Violation.prop);
          ("detail", Obs.Event.Str v.Violation.detail);
        ])
    violations;
  let shrunk, steps =
    if config.shrink then
      shrink_failure ~registry ~seed:case_seed
        ~exact_job_limit:config.exact_job_limit
        ~heavy_job_limit:config.heavy_job_limit
        ~metamorphic:config.metamorphic violations instance
    else (instance, 0)
  in
  Obs.Counter.add c_shrink_steps steps;
  if config.shrink then
    Obs.Event.emit "check.shrunk"
      [
        ("case", Obs.Event.Int case);
        ("jobs_before", Obs.Event.Int (I.num_jobs instance));
        ("jobs_after", Obs.Event.Int (I.num_jobs shrunk));
        ("steps", Obs.Event.Int steps);
      ];
  let corpus_paths =
    match config.corpus_dir with
    | None -> []
    | Some dir ->
        List.map
          (fun v ->
            Obs.Counter.incr c_corpus_writes;
            Corpus.write ~dir ~seed:case_seed v shrunk)
          (dedup_by_pair violations)
  in
  {
    case;
    env = env_to_string env;
    instance;
    violations;
    shrunk;
    shrink_steps = steps;
    corpus_paths;
  }

let run ?registry config =
  if config.envs = [] then invalid_arg "Check.Driver.run: empty env list";
  let registry =
    let base = match registry with Some r -> r | None -> Props.registry () in
    match config.algo_filter with
    | [] -> base
    | names ->
        let kept =
          List.filter (fun a -> List.mem a.Props.name names) base
        in
        if kept = [] then
          invalid_arg "Check.Driver.run: --algo matches no registered algorithm";
        kept
  in
  let root = R.create config.seed in
  let pool =
    if config.jobs > 1 then Some (Parallel.Pool.create config.jobs) else None
  in
  let t0 = Obs.Sink.now_us () in
  let elapsed_s () = (Obs.Sink.now_us () -. t0) /. 1e6 in
  let next_case = ref 0 in
  let failures = ref [] in
  let total_violations = ref 0 in
  let continue () =
    match config.budget with
    | Seconds s -> elapsed_s () < s
    | Cases n -> !next_case < n
  in
  let batch_size = max 1 config.jobs * 2 in
  (try
     while continue () do
       let want =
         match config.budget with
         | Cases n -> min batch_size (n - !next_case)
         | Seconds _ -> batch_size
       in
       (* split case rngs off the root sequentially so results do not
          depend on pool scheduling *)
       let batch =
         List.init want (fun i -> (!next_case + i, R.split root))
       in
       next_case := !next_case + want;
       let results =
         let f = run_case ~registry ~config in
         match pool with
         | Some p -> Parallel.Pool.map p f batch
         | None -> List.map f batch
       in
       List.iter
         (fun ((_, _, _, _, violations) as r) ->
           if violations <> [] then (
             let failure = process_failure ~registry ~config r in
             total_violations := !total_violations + List.length violations;
             failures := failure :: !failures))
         results
     done
   with e ->
     Option.iter Parallel.Pool.shutdown pool;
     raise e);
  Option.iter Parallel.Pool.shutdown pool;
  {
    cases = !next_case;
    violations = !total_violations;
    failures = List.rev !failures;
    wall_s = elapsed_s ();
  }
