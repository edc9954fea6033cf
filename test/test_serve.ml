(* Tests for the serving layer: canonicalization, the LRU result cache,
   deadline-aware dispatch, the wire protocol and the server loop. *)

let rng seed = Workloads.Rng.create seed

let generators =
  [
    ( "identical",
      fun r -> Workloads.Gen.identical r ~n:10 ~m:3 ~k:3 () );
    ("uniform", fun r -> Workloads.Gen.uniform r ~n:10 ~m:3 ~k:3 ());
    ("unrelated", fun r -> Workloads.Gen.unrelated r ~n:10 ~m:3 ~k:3 ());
    ( "restricted",
      fun r -> Workloads.Gen.restricted_class_uniform r ~n:10 ~m:3 ~k:3 () );
    ( "cu-ptimes",
      fun r -> Workloads.Gen.class_uniform_ptimes r ~n:10 ~m:3 ~k:3 () );
  ]

(* --- Canon -------------------------------------------------------------- *)

let test_canon_permutation_invariance () =
  List.iter
    (fun (name, gen) ->
      for seed = 1 to 12 do
        let r = rng seed in
        let inst = gen r in
        let key = Serve.Canon.key inst in
        for trial = 1 to 4 do
          let shuffled = Serve.Canon.shuffle r inst in
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d trial %d" name seed trial)
            key
            (Serve.Canon.key shuffled)
        done
      done)
    generators

let test_canon_prehash_collides_on_permutations () =
  List.iter
    (fun (name, gen) ->
      for seed = 1 to 12 do
        let r = rng (200 + seed) in
        let inst = gen r in
        let ph = Serve.Canon.prehash inst in
        for trial = 1 to 4 do
          let shuffled = Serve.Canon.shuffle r inst in
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d trial %d" name seed trial)
            ph
            (Serve.Canon.prehash shuffled)
        done
      done)
    generators

let test_canon_prehash_roundtrip_store () =
  (* the skip path stores under the canonical key via
     assignment_to_canonical; check the two translations invert *)
  List.iter
    (fun (name, gen) ->
      let inst = gen (rng 77) in
      let canon = Serve.Canon.canonicalize inst in
      let result = Algos.List_scheduling.schedule inst in
      let original = Core.Schedule.assignment result.Algos.Common.schedule in
      let back =
        Serve.Canon.assignment_to_original canon
          (Serve.Canon.assignment_to_canonical canon original)
      in
      Alcotest.(check (array int)) (name ^ " roundtrip") original back)
    generators

let test_canon_is_idempotent () =
  List.iter
    (fun (name, gen) ->
      let inst = gen (rng 99) in
      let c = Serve.Canon.canonicalize inst in
      let c2 = Serve.Canon.canonicalize c.Serve.Canon.instance in
      Alcotest.(check string) (name ^ " fixpoint")
        (Core.Instance_io.to_string c.Serve.Canon.instance)
        (Core.Instance_io.to_string c2.Serve.Canon.instance))
    generators

let test_canon_schedule_mapping () =
  List.iter
    (fun (name, gen) ->
      for seed = 1 to 8 do
        let r = rng (100 + seed) in
        let original = gen r in
        let shuffled = Serve.Canon.shuffle r original in
        let canon = Serve.Canon.canonicalize shuffled in
        (* solve the canonical instance, then map the schedule back into
           the shuffled instance's labeling *)
        let result = Algos.List_scheduling.schedule canon.Serve.Canon.instance in
        let back =
          Serve.Canon.assignment_to_original canon
            (Core.Schedule.assignment result.Algos.Common.schedule)
        in
        let sched = Core.Schedule.make shuffled back in
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d valid" name seed)
          true
          (Core.Schedule.is_valid shuffled sched);
        let m1 = result.Algos.Common.makespan in
        let m2 = Core.Schedule.makespan sched in
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d makespan preserved" name seed)
          true
          (Float.abs (m1 -. m2) <= 1e-9 *. Float.max 1.0 (Float.max m1 m2))
      done)
    generators

(* Every permutation of [0, n), in lexicographic order. *)
let rec permutations = function
  | [] -> [ [] ]
  | xs ->
      List.concat_map
        (fun x -> List.map (fun rest -> x :: rest) (permutations (List.filter (( <> ) x) xs)))
        xs

let all_perms n = List.map Array.of_list (permutations (List.init n Fun.id))

let counter name =
  match Obs.Counter.find name with
  | Some c -> Obs.Counter.value c
  | None -> 0

(* The smallest meta-permute-canon reproducer: identical machines, m = 2,
   setups 32 32 16 16, two jobs of size 32 in classes 2 and 3. Tied jobs
   sit in tied classes, so an order by original index gave relabelings
   different keys. Every relabeling (identical machines make machine
   permutations no-ops) must give one key, and the schedule cached under
   it must map back to each labeling at the same makespan. *)
let test_canon_tied_entities () =
  let base =
    Core.Instance.identical ~num_machines:2 ~sizes:[| 32.0; 32.0 |]
      ~job_class:[| 2; 3 |] ~setups:[| 32.0; 32.0; 16.0; 16.0 |]
  in
  let relabel ~jp ~cp =
    let rank = Array.make 4 0 in
    Array.iteri (fun y k -> rank.(k) <- y) cp;
    Core.Instance.identical ~num_machines:2
      ~sizes:(Array.map (fun j -> base.Core.Instance.sizes.(j)) jp)
      ~job_class:(Array.map (fun j -> rank.(base.Core.Instance.job_class.(j))) jp)
      ~setups:(Array.map (fun k -> base.Core.Instance.setups.(k)) cp)
  in
  let orders0 = counter "serve.canon.tie_orders" in
  let capped0 = counter "serve.canon.capped" in
  let canon = Serve.Canon.canonicalize base in
  let cached = Algos.List_scheduling.schedule canon.Serve.Canon.instance in
  let cached_assignment = Core.Schedule.assignment cached.Algos.Common.schedule in
  let labelings = ref 0 in
  List.iter
    (fun jp ->
      List.iter
        (fun cp ->
          incr labelings;
          let inst = relabel ~jp ~cp in
          let l = Serve.Canon.label inst in
          Alcotest.(check string) "one key" canon.Serve.Canon.labeling.Serve.Canon.key
            l.Serve.Canon.key;
          let sched = Core.Schedule.make inst (Serve.Canon.to_original l cached_assignment) in
          Alcotest.(check bool) "mapped schedule valid" true (Core.Schedule.is_valid inst sched);
          Alcotest.(check (float 1e-9)) "same makespan" cached.Algos.Common.makespan
            (Core.Schedule.makespan sched))
        (all_perms 4))
    (all_perms 2);
  Alcotest.(check int) "48 labelings" 48 !labelings;
  (* one cell of two non-twin classes: two orders per search, 49 searches *)
  Alcotest.(check int) "tie orders" (orders0 + (2 * 49))
    (counter "serve.canon.tie_orders");
  Alcotest.(check int) "never capped" capped0 (counter "serve.canon.capped")

(* Two tied classes of two same-size jobs each: every order of the
   classes leaves the jobs to be ordered by their class ranks, so each
   interleaving of the jobs must still give one key. *)
let test_canon_jobs_follow_classes () =
  let inst job_class =
    Core.Instance.identical ~num_machines:2 ~sizes:[| 3.0; 3.0; 3.0; 3.0 |] ~job_class
      ~setups:[| 5.0; 5.0 |]
  in
  let key = Serve.Canon.key (inst [| 0; 0; 1; 1 |]) in
  List.iter
    (fun jp ->
      List.iter
        (fun cp ->
          let job_class = Array.map (fun j -> cp.([| 0; 0; 1; 1 |].(j))) jp in
          Alcotest.(check string) "one key" key (Serve.Canon.key (inst job_class)))
        (all_perms 2))
    (all_perms 4)

(* Ties between twins only (identical machines, empty classes with equal
   setups, jobs with equal data) need no search. *)
let test_canon_twins_do_not_search () =
  let inst =
    Core.Instance.identical ~num_machines:3 ~sizes:[| 5.0; 5.0; 7.0 |]
      ~job_class:[| 0; 0; 1 |] ~setups:[| 2.0; 3.0; 4.0; 4.0 |]
  in
  let orders0 = counter "serve.canon.tie_orders" in
  let key = Serve.Canon.key inst in
  let r = rng 5 in
  for _ = 1 to 8 do
    Alcotest.(check string) "relabeled key" key (Serve.Canon.key (Serve.Canon.shuffle r inst))
  done;
  Alcotest.(check int) "no search" orders0 (counter "serve.canon.tie_orders")

(* --- Cache -------------------------------------------------------------- *)

let test_cache_lru () =
  let cache = Serve.Cache.create ~capacity:2 in
  let hits0 = counter "serve.cache_hits" in
  let misses0 = counter "serve.cache_misses" in
  let evictions0 = counter "serve.cache_evictions" in
  Serve.Cache.put cache "a" 1;
  Serve.Cache.put cache "b" 2;
  Alcotest.(check (option int)) "a present" (Some 1) (Serve.Cache.find cache "a");
  (* b is now least recently used; inserting c evicts it *)
  Serve.Cache.put cache "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Serve.Cache.find cache "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Serve.Cache.find cache "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Serve.Cache.find cache "c");
  Alcotest.(check int) "length" 2 (Serve.Cache.length cache);
  Alcotest.(check int) "hits counted" (hits0 + 3) (counter "serve.cache_hits");
  Alcotest.(check int) "misses counted" (misses0 + 1)
    (counter "serve.cache_misses");
  Alcotest.(check int) "evictions counted" (evictions0 + 1)
    (counter "serve.cache_evictions")

let test_cache_evict_event () =
  (* an eviction leaves a flight-recorder event carrying the evicted
     entry's age and hit count, and the size gauge tracks the table *)
  Obs.Event.clear ();
  Fun.protect
    ~finally:(fun () -> Obs.Event.clear ())
    (fun () ->
      let cache = Serve.Cache.create ~capacity:2 in
      Serve.Cache.put cache "a" 1;
      Serve.Cache.put cache "b" 2;
      ignore (Serve.Cache.find cache "a");
      ignore (Serve.Cache.find cache "a");
      Serve.Cache.put cache "c" 3;
      (* "b" (never hit) was the LRU *)
      let g = Obs.Gauge.make "serve.cache_size" in
      Alcotest.(check (float 1e-9)) "size gauge" 2.0 (Obs.Gauge.value g);
      match
        List.filter
          (fun e -> e.Obs.Event.name = "serve.cache.evict")
          (Obs.Event.snapshot ())
      with
      | [ e ] -> (
          (match List.assoc_opt "hits" e.Obs.Event.fields with
          | Some (Obs.Event.Int 0) -> ()
          | _ -> Alcotest.fail "evicted entry was never hit");
          match List.assoc_opt "age_s" e.Obs.Event.fields with
          | Some (Obs.Event.Float age) ->
              Alcotest.(check bool) "age is sane" true
                (age >= 0.0 && age < 60.0)
          | _ -> Alcotest.fail "no age_s field on the eviction event")
      | evs ->
          Alcotest.failf "expected 1 eviction event, got %d" (List.length evs))

let test_cache_overwrite () =
  let cache = Serve.Cache.create ~capacity:2 in
  Serve.Cache.put cache "k" 1;
  Serve.Cache.put cache "k" 2;
  Alcotest.(check (option int)) "overwritten" (Some 2)
    (Serve.Cache.find cache "k");
  Alcotest.(check int) "no duplicate" 1 (Serve.Cache.length cache)

(* A list-based reference LRU, most recently used first. *)
type ref_lru = { cap : int; mutable entries : (string * int) list }

let ref_find r k =
  match List.assoc_opt k r.entries with
  | Some v ->
      r.entries <- (k, v) :: List.remove_assoc k r.entries;
      Some v
  | None -> None

(* Returns the evicted key, if any. *)
let ref_put r k v =
  let entries = (k, v) :: List.remove_assoc k r.entries in
  if List.length entries > r.cap then begin
    r.entries <- List.filteri (fun i _ -> i < r.cap) entries;
    Some (fst (List.nth entries r.cap))
  end
  else begin
    r.entries <- entries;
    None
  end

type cache_op = Put of string * int | Find of string

let cache_ops_arb =
  let open QCheck.Gen in
  let key = oneofl [ "a"; "b"; "c"; "d"; "e" ] in
  let op =
    frequency
      [ (1, map2 (fun k v -> Put (k, v)) key (int_bound 99)); (1, map (fun k -> Find k) key) ]
  in
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap
        (String.concat "; "
           (List.map
              (function Put (k, v) -> Printf.sprintf "put %s %d" k v | Find k -> "find " ^ k)
              ops)))
    (pair (int_range 1 4) (list_size (int_range 1 60) op))

(* Same find results, the same recency order (so the same eviction
   order) and a length within capacity after every operation. *)
let prop_cache_matches_reference =
  QCheck.Test.make ~name:"lru matches a list-based reference" ~count:300 cache_ops_arb
    (fun (cap, ops) ->
      let cache = Serve.Cache.create ~capacity:cap in
      let model = { cap; entries = [] } in
      List.for_all
        (fun op ->
          let same_result, evicted_ok =
            match op with
            | Find k -> (Serve.Cache.find cache k = ref_find model k, true)
            | Put (k, v) ->
                let before = Serve.Cache.keys cache in
                Serve.Cache.put cache k v;
                let after = Serve.Cache.keys cache in
                let evicted = List.filter (fun x -> x <> k && not (List.mem x after)) before in
                (true, evicted = Option.to_list (ref_put model k v))
          in
          same_result && evicted_ok
          && Serve.Cache.keys cache = List.map fst model.entries
          && Serve.Cache.length cache <= cap)
        ops)

(* A hit keeps nothing: 20,000 hits, each with a fresh copy of its key,
   leave the live heap where it was. *)
let test_cache_hits_retain_nothing () =
  let cache = Serve.Cache.create ~capacity:2 in
  Serve.Cache.put cache "alpha" 1;
  Serve.Cache.put cache "beta" 2;
  let hit i =
    let key = Bytes.to_string (Bytes.of_string (if i land 1 = 0 then "alpha" else "beta")) in
    if Serve.Cache.find cache key = None then Alcotest.fail "expected a hit"
  in
  for i = 1 to 1_000 do
    hit i
  done;
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  for i = 1 to 20_000 do
    hit i
  done;
  Gc.full_major ();
  let grown = (Gc.stat ()).Gc.live_words - before in
  if grown > 2_000 then Alcotest.failf "20000 hits left %d live words behind" grown;
  (* the cache must still be live when the heap is measured *)
  Alcotest.(check int) "both entries kept" 2 (Serve.Cache.length cache)

(* --- Dispatch ----------------------------------------------------------- *)

let test_dispatch_exact_small () =
  let inst = Workloads.Gen.uniform (rng 7) ~n:8 ~m:3 ~k:3 () in
  match Serve.Dispatch.solve ~hint:"exact" inst with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
      Alcotest.(check bool) "not degraded" false o.Serve.Dispatch.degraded;
      let exact = Algos.Exact.makespan inst in
      Alcotest.(check (float 1e-9)) "optimal makespan" exact
        o.Serve.Dispatch.result.Algos.Common.makespan

let test_dispatch_deadline_degrades () =
  let inst = Workloads.Gen.uniform (rng 8) ~n:400 ~m:8 ~k:12 () in
  match Serve.Dispatch.solve ~hint:"portfolio" ~deadline_ms:0.0 inst with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
      Alcotest.(check bool) "degraded" true o.Serve.Dispatch.degraded;
      Alcotest.(check bool) "valid schedule" true
        (Core.Schedule.is_valid inst
           o.Serve.Dispatch.result.Algos.Common.schedule)

let test_dispatch_unknown_solver () =
  let inst = Workloads.Gen.uniform (rng 9) ~n:6 ~m:2 ~k:2 () in
  match Serve.Dispatch.solve ~hint:"simplex-magic" inst with
  | Error msg ->
      Alcotest.(check bool) "names the solver" true
        (Astring.String.is_infix ~affix:"simplex-magic" msg)
  | Ok _ -> Alcotest.fail "expected an error"

let test_dispatch_lpt_inapplicable () =
  let inst = Workloads.Gen.unrelated (rng 10) ~n:8 ~m:3 ~k:3 () in
  match Serve.Dispatch.solve ~hint:"lpt" inst with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "lpt should not apply to unrelated machines"

let test_dispatch_lpt_hint () =
  let inst = Workloads.Gen.uniform (rng 11) ~n:30 ~m:3 ~k:3 () in
  match Serve.Dispatch.solve ~hint:"lpt" inst with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
      Alcotest.(check string) "the canonical name" "lpt-placeholders"
        o.Serve.Dispatch.solver;
      Alcotest.(check (float 0.0)) "Lemma 2.1's schedule"
        (Algos.Lpt.schedule inst).Algos.Common.makespan
        o.Serve.Dispatch.result.Algos.Common.makespan

(* A reply names [exact], [exact-budgeted] or a catalogue entry, behind
   an optional [portfolio:] and an optional [+local-search]. At n = 250
   the portfolio takes seconds, so it runs with a spent budget there and
   the fast tier answers. *)
let test_dispatch_solver_names () =
  let names =
    "exact" :: "exact-budgeted"
    :: List.map (fun (e : Algos.Catalog.entry) -> e.name) Algos.Catalog.all
  in
  let strip solver =
    let solver =
      match Astring.String.cut ~sep:"portfolio:" solver with
      | Some ("", rest) -> rest
      | _ -> solver
    in
    match Astring.String.cut ~rev:true ~sep:"+local-search" solver with
    | Some (head, "") -> head
    | _ -> solver
  in
  let r = rng 12 in
  List.iter
    (fun n ->
      List.iter
        (fun inst ->
          List.iter
            (fun hint ->
              let deadline_ms = if n > 200 then Some 0.0 else None in
              match Serve.Dispatch.solve ?deadline_ms ~hint inst with
              | Error msg -> if hint <> "lpt" then Alcotest.fail msg
              | Ok o ->
                  if not (List.mem (strip o.Serve.Dispatch.solver) names) then
                    Alcotest.failf "hint %s, n = %d: solver %S" hint n
                      o.Serve.Dispatch.solver)
            [ "auto"; "greedy"; "lpt"; "portfolio" ])
        [
          Workloads.Gen.identical r ~n ~m:3 ~k:3 ();
          Workloads.Gen.uniform r ~n ~m:3 ~k:3 ();
          Workloads.Gen.unrelated r ~n ~m:3 ~k:3 ();
          Workloads.Gen.restricted_class_uniform r ~n ~m:3 ~k:3 ();
          Workloads.Gen.class_uniform_ptimes r ~n ~m:3 ~k:3 ();
        ])
    [ 8; 20; 250 ]

(* --- Proto -------------------------------------------------------------- *)

let roundtrip_via_file write read =
  let path = Filename.temp_file "serve_proto" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      write oc;
      close_out oc;
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic))

let write_all frames oc = List.iter (Serve.Proto.write_incoming oc) frames

let test_proto_request_roundtrip () =
  let inst = Workloads.Gen.identical (rng 11) ~n:5 ~m:2 ~k:2 () in
  let req =
    {
      Serve.Proto.solver = Some "exact";
      deadline_ms = Some 25.0;
      instance = inst; trace = None
    }
  in
  match
    roundtrip_via_file
      (write_all
         [
           Serve.Proto.Solve req;
           Serve.Proto.Solve { req with solver = None; deadline_ms = None };
         ])
      (fun ic ->
        let a = Serve.Proto.read_incoming ic in
        let b = Serve.Proto.read_incoming ic in
        let c = Serve.Proto.read_incoming ic in
        (a, b, c))
  with
  | ( Ok (Some (Serve.Proto.Solve a)),
      Ok (Some (Serve.Proto.Solve b)),
      Ok None ) ->
      Alcotest.(check (option string)) "solver" (Some "exact") a.Serve.Proto.solver;
      Alcotest.(check bool) "deadline" true (a.Serve.Proto.deadline_ms = Some 25.0);
      Alcotest.(check string) "instance roundtrips"
        (Core.Instance_io.to_string inst)
        (Core.Instance_io.to_string a.Serve.Proto.instance);
      Alcotest.(check (option string)) "defaults" None b.Serve.Proto.solver
  | _ -> Alcotest.fail "unexpected roundtrip shape"

let test_proto_response_roundtrip () =
  let reply =
    Serve.Proto.Reply
      {
        solver = "exact";
        cache_hit = true;
        degraded = false;
        makespan = 117.25;
        elapsed_us = 42;
        assignment = [| 0; 1; 1; 0 |];
        trace = None;
      }
  in
  match
    roundtrip_via_file
      (fun oc ->
        Serve.Proto.write_response oc reply;
        Serve.Proto.write_response oc (Serve.Proto.Error "bad things\nhappened"))
      (fun ic ->
        let a = Serve.Proto.read_response ic in
        let b = Serve.Proto.read_response ic in
        let c = Serve.Proto.read_response ic in
        (a, b, c))
  with
  | Ok (Some (Serve.Proto.Reply r)), Ok (Some (Serve.Proto.Error msg)), Ok None
    ->
      Alcotest.(check string) "solver" "exact" r.Serve.Proto.solver;
      Alcotest.(check bool) "hit" true r.Serve.Proto.cache_hit;
      Alcotest.(check (float 1e-9)) "makespan" 117.25 r.Serve.Proto.makespan;
      Alcotest.(check bool) "assignment" true (r.Serve.Proto.assignment = [| 0; 1; 1; 0 |]);
      (* newline was flattened to keep the framing intact *)
      Alcotest.(check string) "error single line" "bad things happened" msg
  | _ -> Alcotest.fail "unexpected roundtrip shape"

let test_proto_trace_roundtrip () =
  (* the trace field survives both frame kinds, with and without a
     parent span, and replies echo the adopted id *)
  let inst = Workloads.Gen.identical (rng 31) ~n:4 ~m:2 ~k:2 () in
  let req tr =
    Serve.Proto.Solve
      {
        Serve.Proto.solver = None;
        deadline_ms = None;
        instance = inst;
        trace = tr;
      }
  in
  (match
     roundtrip_via_file
       (write_all
          [
            req (Some { Serve.Proto.tid = "lg7.3"; parent = Some 12 });
            req (Some { Serve.Proto.tid = "cli-a"; parent = None });
            req None;
          ])
       (fun ic ->
         let a = Serve.Proto.read_incoming ic in
         let b = Serve.Proto.read_incoming ic in
         let c = Serve.Proto.read_incoming ic in
         (a, b, c))
   with
  | ( Ok (Some (Serve.Proto.Solve a)),
      Ok (Some (Serve.Proto.Solve b)),
      Ok (Some (Serve.Proto.Solve c)) ) ->
      (match a.Serve.Proto.trace with
      | Some { Serve.Proto.tid = "lg7.3"; parent = Some 12 } -> ()
      | _ -> Alcotest.fail "trace with parent did not roundtrip");
      (match b.Serve.Proto.trace with
      | Some { Serve.Proto.tid = "cli-a"; parent = None } -> ()
      | _ -> Alcotest.fail "trace without parent did not roundtrip");
      Alcotest.(check bool) "absent trace stays absent" true
        (c.Serve.Proto.trace = None)
  | _ -> Alcotest.fail "unexpected trace roundtrip shape");
  (* a reply's trace line roundtrips *)
  (match
     roundtrip_via_file
       (fun oc ->
         Serve.Proto.write_response oc
           (Serve.Proto.Reply
              {
                solver = "greedy";
                cache_hit = false;
                degraded = false;
                makespan = 9.0;
                elapsed_us = 7;
                assignment = [| 0 |];
                trace = Some "lg7.3";
              }))
       Serve.Proto.read_response
   with
  | Ok (Some (Serve.Proto.Reply r)) ->
      Alcotest.(check (option string)) "reply echoes trace" (Some "lg7.3")
        r.Serve.Proto.trace
  | _ -> Alcotest.fail "reply with trace did not roundtrip");
  (* session frames carry the trace too *)
  (match
     roundtrip_via_file
       (write_all
          [
            Serve.Proto.Session
              {
                Serve.Proto.sid = "s1";
                op = Serve.Proto.S_close;
                trace = Some { Serve.Proto.tid = "lg7.3"; parent = Some 4 };
              };
          ])
       Serve.Proto.read_incoming
   with
  | Ok (Some (Serve.Proto.Session sreq)) -> (
      match sreq.Serve.Proto.trace with
      | Some { Serve.Proto.tid = "lg7.3"; parent = Some 4 } -> ()
      | _ -> Alcotest.fail "session trace did not roundtrip")
  | _ -> Alcotest.fail "session frame did not roundtrip");
  (* malformed trace ids are rejected, and the stream resyncs *)
  List.iter
    (fun field ->
      let text =
        Printf.sprintf "request v1\n%s\ninstance\n%send\n" field
          (Core.Instance_io.to_string inst)
      in
      match
        roundtrip_via_file
          (fun oc -> output_string oc text)
          Serve.Proto.read_incoming
      with
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S rejected with a trace error" field)
            true
            (Astring.String.is_infix ~affix:"trace" msg)
      | Ok _ -> Alcotest.failf "%S should not parse" field)
    [ "trace bad id"; "trace ok/notanint"; "trace ok/-3"; "trace " ]

let test_proto_explain_roundtrip () =
  match
    roundtrip_via_file
      (fun oc ->
        Serve.Proto.write_incoming oc (Serve.Proto.Explain "lg7.3");
        Serve.Proto.write_response oc
          (Serve.Proto.Explain_reply
             { body = "trace id=lg7.3 spans=1\nphase depth=0 name=a\n" }))
      (fun ic ->
        let frame = Serve.Proto.read_incoming ic in
        let resp = Serve.Proto.read_response ic in
        (frame, resp))
  with
  | ( Ok (Some (Serve.Proto.Explain id)),
      Ok (Some (Serve.Proto.Explain_reply { body })) ) ->
      Alcotest.(check string) "explain id" "lg7.3" id;
      Alcotest.(check bool) "payload body intact" true
        (Astring.String.is_prefix ~affix:"trace id=lg7.3" body)
  | _ -> Alcotest.fail "explain frame did not roundtrip"

let test_proto_malformed_resync () =
  (* a malformed frame is consumed up to "end"; the next request parses *)
  let inst = Workloads.Gen.identical (rng 12) ~n:4 ~m:2 ~k:2 () in
  let text =
    "banana v9\nsolver exact\nend\n"
    ^ "request v1\ninstance\nnot a keyword\nend\n"
  in
  let good =
    let buf = Buffer.create 256 in
    Buffer.add_string buf "request v1\ninstance\n";
    Buffer.add_string buf (Core.Instance_io.to_string inst);
    Buffer.add_string buf "end\n";
    Buffer.contents buf
  in
  match
    roundtrip_via_file
      (fun oc -> output_string oc (text ^ good))
      (fun ic ->
        let a = Serve.Proto.read_incoming ic in
        let b = Serve.Proto.read_incoming ic in
        let c = Serve.Proto.read_incoming ic in
        (a, b, c))
  with
  | Error bad_header, Error bad_instance, Ok (Some (Serve.Proto.Solve _)) ->
      Alcotest.(check bool) "names header" true
        (Astring.String.is_infix ~affix:"banana" bad_header);
      Alcotest.(check bool) "names keyword" true
        (Astring.String.is_infix ~affix:"keyword" bad_instance)
  | _ -> Alcotest.fail "expected error, error, ok"

(* An admin or session frame must never decode as a solve request. *)
let check_not_solve ~what frame =
  match roundtrip_via_file (write_all [ frame ]) Serve.Proto.read_incoming with
  | Ok (Some (Serve.Proto.Solve _)) ->
      Alcotest.failf "a %s frame decoded as a solve request" what
  | Ok (Some _) -> ()
  | Ok None | Error _ -> Alcotest.failf "a %s frame did not decode" what

let test_proto_stats_roundtrip () =
  (* stats frames both ways: the admin request parses via read_incoming,
     and a Stats_reply carries a multi-line exposition body intact *)
  let body = "# TYPE serve_requests counter\nserve_requests{status=\"ok\"} 41\n" in
  match
    roundtrip_via_file
      (write_all
         [
           Serve.Proto.Stats Serve.Proto.Prometheus;
           Serve.Proto.Stats Serve.Proto.Json;
         ])
      (fun ic ->
        let a = Serve.Proto.read_incoming ic in
        let b = Serve.Proto.read_incoming ic in
        let c = Serve.Proto.read_incoming ic in
        (a, b, c))
  with
  | ( Ok (Some (Serve.Proto.Stats Serve.Proto.Prometheus)),
      Ok (Some (Serve.Proto.Stats Serve.Proto.Json)),
      Ok None ) -> (
      check_not_solve ~what:"stats" (Serve.Proto.Stats Serve.Proto.Prometheus);
      match
        roundtrip_via_file
          (fun oc ->
            Serve.Proto.write_response oc
              (Serve.Proto.Stats_reply
                 { format = Serve.Proto.Prometheus; body }))
          Serve.Proto.read_response
      with
      | Ok (Some (Serve.Proto.Stats_reply { format; body = got })) ->
          Alcotest.(check bool) "format" true (format = Serve.Proto.Prometheus);
          Alcotest.(check string) "multi-line body intact" body got
      | _ -> Alcotest.fail "expected a stats reply")
  | _ -> Alcotest.fail "stats frames did not roundtrip"

let test_proto_events_roundtrip () =
  (* events frames both ways: defaults and explicit count/level both
     parse, and an Events_reply carries its JSON-lines body intact *)
  let default_events =
    Serve.Proto.Events { count = None; min_level = Obs.Event.Debug }
  in
  (match
     roundtrip_via_file
       (write_all
          [
            default_events;
            Serve.Proto.Events { count = Some 7; min_level = Obs.Event.Warn };
          ])
       (fun ic ->
         let a = Serve.Proto.read_incoming ic in
         let b = Serve.Proto.read_incoming ic in
         let c = Serve.Proto.read_incoming ic in
         (a, b, c))
   with
  | ( Ok (Some (Serve.Proto.Events { count = None; min_level = Obs.Event.Debug })),
      Ok
        (Some (Serve.Proto.Events { count = Some 7; min_level = Obs.Event.Warn })),
      Ok None ) -> ()
  | _ -> Alcotest.fail "events frames did not roundtrip");
  (* a bare frame takes the defaults *)
  (match
     roundtrip_via_file
       (fun oc -> output_string oc "events v1\nend\n")
       Serve.Proto.read_incoming
   with
  | Ok (Some (Serve.Proto.Events { count = None; min_level = Obs.Event.Debug }))
    -> ()
  | _ -> Alcotest.fail "a bare events frame did not take the defaults");
  check_not_solve ~what:"events" default_events;
  let body =
    "{\"ts_us\":1.000,\"level\":\"info\",\"name\":\"a\",\"domain\":0}\n"
    ^ "{\"ts_us\":2.000,\"level\":\"warn\",\"name\":\"b\",\"domain\":1,\"req\":\"r9\"}\n"
  in
  match
    roundtrip_via_file
      (fun oc ->
        Serve.Proto.write_response oc (Serve.Proto.Events_reply { body }))
      Serve.Proto.read_response
  with
  | Ok (Some (Serve.Proto.Events_reply { body = got })) ->
      Alcotest.(check string) "multi-line body intact" body got
  | _ -> Alcotest.fail "expected an events reply"

let test_proto_health_roundtrip () =
  (* health frames both ways: the admin request parses via read_incoming
     (never as a solve request), and a Health_reply carries its
     multi-line payload intact *)
  (match
     roundtrip_via_file
       (write_all [ Serve.Proto.Health ])
       (fun ic ->
         let a = Serve.Proto.read_incoming ic in
         let b = Serve.Proto.read_incoming ic in
         (a, b))
   with
  | Ok (Some Serve.Proto.Health), Ok None -> ()
  | _ -> Alcotest.fail "health frame did not roundtrip");
  check_not_solve ~what:"health" Serve.Proto.Health;
  let body =
    "status ok\nliveness ok\ntask_budget_s 30\n"
    ^ "meter name=cache fill=0.125\n"
    ^ "heartbeat domain=0 state=waiting task=- req=- beat_age_s=0.010 \
       task_age_s=0.000\n"
  in
  match
    roundtrip_via_file
      (fun oc ->
        Serve.Proto.write_response oc (Serve.Proto.Health_reply { body }))
      Serve.Proto.read_response
  with
  | Ok (Some (Serve.Proto.Health_reply { body = got })) ->
      Alcotest.(check string) "multi-line body intact" body got
  | _ -> Alcotest.fail "expected a health reply"

let test_proto_session_roundtrip () =
  let inst = Workloads.Gen.unrelated (rng 14) ~n:4 ~m:2 ~k:2 () in
  let frames =
    [
      { Serve.Proto.sid = "s-1"; op = Serve.Proto.S_create inst; trace = None };
      {
        Serve.Proto.sid = "s-1";
        op =
          Serve.Proto.S_add_jobs
            [
              {
                Core.Instance.nsize = 3.5;
                nclass = 1;
                nptimes = Some [| 2.0; infinity |];
                neligible = None;
              };
            ]; trace = None
      };
      { Serve.Proto.sid = "s-1"; op = Serve.Proto.S_drop_jobs [ 0; 2 ]; trace = None };
      {
        Serve.Proto.sid = "s-1";
        op = Serve.Proto.S_resolve { deadline_ms = Some 12.5 }; trace = None
      };
      { Serve.Proto.sid = "s-1"; op = Serve.Proto.S_close; trace = None };
    ]
  in
  let read_all ic =
    List.fold_left
      (fun acc _ -> Serve.Proto.read_incoming ic :: acc)
      [] frames
    |> List.rev
  in
  let got =
    roundtrip_via_file
      (write_all (List.map (fun f -> Serve.Proto.Session f) frames))
      read_all
  in
  List.iter2
    (fun (sent : Serve.Proto.session_request) received ->
      match received with
      | Ok (Some (Serve.Proto.Session r)) -> (
          Alcotest.(check string) "sid" sent.Serve.Proto.sid r.Serve.Proto.sid;
          Alcotest.(check string) "op name"
            (Serve.Proto.session_op_name sent.Serve.Proto.op)
            (Serve.Proto.session_op_name r.Serve.Proto.op);
          match (sent.Serve.Proto.op, r.Serve.Proto.op) with
          | Serve.Proto.S_create a, Serve.Proto.S_create b ->
              Alcotest.(check string) "instance"
                (Core.Instance_io.to_string a)
                (Core.Instance_io.to_string b)
          | Serve.Proto.S_add_jobs a, Serve.Proto.S_add_jobs b ->
              Alcotest.(check int) "job count" (List.length a) (List.length b);
              List.iter2
                (fun (x : Core.Instance.new_job) (y : Core.Instance.new_job) ->
                  Alcotest.(check (float 1e-9))
                    "size" x.Core.Instance.nsize y.Core.Instance.nsize;
                  Alcotest.(check int) "class" x.Core.Instance.nclass
                    y.Core.Instance.nclass;
                  Alcotest.(check bool) "ptimes" true
                    (x.Core.Instance.nptimes = y.Core.Instance.nptimes))
                a b
          | Serve.Proto.S_drop_jobs a, Serve.Proto.S_drop_jobs b ->
              Alcotest.(check (list int)) "ids" a b
          | Serve.Proto.S_resolve a, Serve.Proto.S_resolve b ->
              Alcotest.(check bool) "deadline" true
                (a.deadline_ms = b.deadline_ms)
          | Serve.Proto.S_close, Serve.Proto.S_close -> ()
          | _ -> Alcotest.fail "op kind changed in flight")
      | _ -> Alcotest.fail "expected a session frame")
    frames got;
  (* replies both ways: a bare ack and a resolve carrying a schedule *)
  let ack =
    Serve.Proto.Session_reply
      {
        Serve.Proto.sid = "s-1";
        op = "add-jobs";
        generation = 3;
        jobs = 5;
        mode = None;
        solve = None; trace = None
      }
  in
  let resolved =
    Serve.Proto.Session_reply
      {
        Serve.Proto.sid = "s-1";
        op = "resolve";
        generation = 3;
        jobs = 2;
        mode = Some "repair";
        solve =
          Some
            {
              Serve.Proto.solver = "incremental-repair";
              cache_hit = false;
              degraded = false;
              makespan = 9.75;
              elapsed_us = 11;
              assignment = [| 1; 0 |]; trace = None
            }; trace = None
      }
  in
  match
    roundtrip_via_file
      (fun oc ->
        Serve.Proto.write_response oc ack;
        Serve.Proto.write_response oc resolved)
      (fun ic ->
        let a = Serve.Proto.read_response ic in
        let b = Serve.Proto.read_response ic in
        (a, b))
  with
  | ( Ok (Some (Serve.Proto.Session_reply a)),
      Ok (Some (Serve.Proto.Session_reply b)) ) ->
      Alcotest.(check string) "ack op" "add-jobs" a.Serve.Proto.op;
      Alcotest.(check int) "ack generation" 3 a.Serve.Proto.generation;
      Alcotest.(check bool) "ack has no schedule" true
        (a.Serve.Proto.solve = None);
      Alcotest.(check (option string)) "mode" (Some "repair")
        b.Serve.Proto.mode;
      (match b.Serve.Proto.solve with
      | Some r ->
          Alcotest.(check string) "solver" "incremental-repair"
            r.Serve.Proto.solver;
          Alcotest.(check (float 1e-9)) "makespan" 9.75 r.Serve.Proto.makespan;
          Alcotest.(check bool) "assignment" true
            (r.Serve.Proto.assignment = [| 1; 0 |])
      | None -> Alcotest.fail "resolve reply lost its schedule")
  | _ -> Alcotest.fail "session replies did not roundtrip"

let test_proto_session_resync () =
  (* malformed session frames mid-stream are consumed up to "end"; the
     stream then yields the next well-formed frame *)
  let inst = Workloads.Gen.identical (rng 15) ~n:4 ~m:2 ~k:2 () in
  let bad =
    [
      (* unknown op *)
      "session v1\nop explode\nid s-1\nend\n";
      (* missing id *)
      "session v1\nop resolve\nend\n";
      (* bad sid characters *)
      "session v1\nop close\nid has spaces!\nend\n";
      (* add-jobs with a broken job spec *)
      "session v1\nop add-jobs\nid s-1\njob size=banana\nend\n";
      (* create without an instance *)
      "session v1\nop create\nid s-1\nend\n";
    ]
  in
  let good =
    Serve.Proto.Session
      { Serve.Proto.sid = "s-2"; op = Serve.Proto.S_create inst; trace = None }
  in
  List.iter
    (fun frame ->
      match
        roundtrip_via_file
          (fun oc ->
            output_string oc frame;
            write_all [ good ] oc)
          (fun ic ->
            let a = Serve.Proto.read_incoming ic in
            let b = Serve.Proto.read_incoming ic in
            (a, b))
      with
      | Error _, Ok (Some (Serve.Proto.Session r)) ->
          Alcotest.(check string) "recovered frame sid" "s-2" r.Serve.Proto.sid
      | Error _, second ->
          Alcotest.failf "no resync after %S: %s" frame
            (match second with
            | Ok None -> "eof"
            | Ok (Some _) -> "wrong frame kind"
            | Error msg -> "error: " ^ msg)
      | Ok _, _ -> Alcotest.failf "malformed frame accepted: %S" frame)
    bad;
  check_not_solve ~what:"session" good

(* --- Server ------------------------------------------------------------- *)

let mk_server () =
  Serve.Server.create
    { Serve.Server.default_config with cache_capacity = 8; jobs = 2 }

let test_server_cache_roundtrip () =
  let server = mk_server () in
  Fun.protect
    ~finally:(fun () -> Serve.Server.shutdown server)
    (fun () ->
      let r = rng 13 in
      let inst = Workloads.Gen.uniform r ~n:9 ~m:3 ~k:3 () in
      let ask instance =
        Serve.Server.handle_request server
          { Serve.Proto.solver = Some "exact"; deadline_ms = None; instance; trace = None }
      in
      match ask inst with
      | Serve.Proto.Error msg -> Alcotest.fail msg
      | Serve.Proto.Stats_reply _ | Serve.Proto.Events_reply _
      | Serve.Proto.Health_reply _ | Serve.Proto.Session_reply _
      | Serve.Proto.Explain_reply _ | Serve.Proto.Profile_reply _ ->
          Alcotest.fail "unexpected admin reply"
      | Serve.Proto.Reply first -> (
          Alcotest.(check bool) "first is a miss" false
            first.Serve.Proto.cache_hit;
          (* the same instance relabeled must hit, with the same makespan,
             and the returned assignment must be valid for the relabeling *)
          let shuffled = Serve.Canon.shuffle r inst in
          match ask shuffled with
          | Serve.Proto.Error msg -> Alcotest.fail msg
          | Serve.Proto.Stats_reply _ | Serve.Proto.Events_reply _
          | Serve.Proto.Health_reply _ | Serve.Proto.Session_reply _
          | Serve.Proto.Explain_reply _ | Serve.Proto.Profile_reply _ ->
              Alcotest.fail "unexpected admin reply"
          | Serve.Proto.Reply second ->
              Alcotest.(check bool) "second is a hit" true
                second.Serve.Proto.cache_hit;
              Alcotest.(check (float 1e-9)) "same makespan"
                first.Serve.Proto.makespan second.Serve.Proto.makespan;
              let sched =
                Core.Schedule.make shuffled second.Serve.Proto.assignment
              in
              Alcotest.(check bool) "assignment valid" true
                (Core.Schedule.is_valid shuffled sched)))

let test_server_stats_frame () =
  (* one solve then a stats frame on the same session: the exposition
     must report that request in the labeled family and the latency
     histogram *)
  let server = mk_server () in
  let inpath = Filename.temp_file "serve_stats_in" ".txt" in
  let outpath = Filename.temp_file "serve_stats_out" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.shutdown server;
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ inpath; outpath ])
    (fun () ->
      let inst = Workloads.Gen.identical (rng 15) ~n:5 ~m:2 ~k:2 () in
      let oc = open_out inpath in
      Serve.Proto.write_request oc
        { Serve.Proto.solver = Some "greedy"; deadline_ms = None; instance = inst; trace = None };
      write_all
        [
          Serve.Proto.Stats Serve.Proto.Prometheus;
          Serve.Proto.Stats Serve.Proto.Json;
        ]
        oc;
      close_out oc;
      let ic = open_in inpath in
      let oc = open_out outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Serve.Server.serve_channels server ic oc);
      close_out oc;
      let ic = open_in outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          (match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Reply _)) -> ()
          | _ -> Alcotest.fail "expected a solve reply first");
          let ok_count body =
            (* the "serve_requests{status="ok"} N" sample value *)
            let marker = "serve_requests{status=\"ok\"} " in
            match Astring.String.cut ~sep:marker body with
            | Some (_, rest) -> (
                match Astring.String.cut ~sep:"\n" rest with
                | Some (n, _) -> int_of_string n
                | None -> int_of_string rest)
            | None -> Alcotest.fail "no ok sample in exposition"
          in
          let first_ok =
            match Serve.Proto.read_response ic with
            | Ok (Some (Serve.Proto.Stats_reply { body; _ })) ->
                let has affix = Astring.String.is_infix ~affix body in
                Alcotest.(check bool) "latency histogram present" true
                  (has "# TYPE serve_request_latency_us histogram");
                Alcotest.(check bool) "latency histogram has buckets" true
                  (has "serve_request_latency_us_bucket{le=");
                let n = ok_count body in
                Alcotest.(check bool) "ok sample counts the request" true
                  (n >= 1);
                n
            | _ -> Alcotest.fail "expected a prometheus stats reply"
          in
          match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Stats_reply { format; body })) ->
              Alcotest.(check bool) "json format" true
                (format = Serve.Proto.Json);
              Alcotest.(check bool) "json body has histograms" true
                (Astring.String.is_infix ~affix:"\"histograms\"" body);
              (* the stats frame between the two scrapes did not count
                 as a request: admin traffic stays outside the metrics *)
              Alcotest.(check bool) "stats frames not counted" true
                (Astring.String.is_infix
                   ~affix:(Printf.sprintf "\"value\": %d" first_ok)
                   body)
          | _ -> Alcotest.fail "expected a json stats reply"))

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

let test_server_events_frame () =
  (* a solve then an events frame on the same session: the reply body is
     the flight recorder's JSON lines and includes this request's
     lifecycle events *)
  Obs.Event.clear ();
  let server = mk_server () in
  let inpath = Filename.temp_file "serve_events_in" ".txt" in
  let outpath = Filename.temp_file "serve_events_out" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.shutdown server;
      Obs.Event.clear ();
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ inpath; outpath ])
    (fun () ->
      let inst = Workloads.Gen.identical (rng 17) ~n:5 ~m:2 ~k:2 () in
      let oc = open_out inpath in
      Serve.Proto.write_request oc
        { Serve.Proto.solver = Some "greedy"; deadline_ms = None; instance = inst; trace = None };
      Serve.Proto.write_incoming oc
        (Serve.Proto.Events { count = None; min_level = Obs.Event.Debug });
      close_out oc;
      let ic = open_in inpath in
      let oc = open_out outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Serve.Server.serve_channels server ic oc);
      close_out oc;
      let ic = open_in outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          (match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Reply _)) -> ()
          | _ -> Alcotest.fail "expected a solve reply first");
          match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Events_reply { body })) ->
              let lines =
                List.filter (fun l -> l <> "") (String.split_on_char '\n' body)
              in
              Alcotest.(check bool) "body has events" true (lines <> []);
              List.iter
                (fun line ->
                  match Obs.Trace.check_json line with
                  | Ok () -> ()
                  | Error msg ->
                      Alcotest.failf "body line %S is not JSON: %s" line msg)
                lines;
              let has affix = Astring.String.is_infix ~affix body in
              Alcotest.(check bool) "request event present" true
                (has "\"name\":\"serve.request\"");
              Alcotest.(check bool) "done event present" true
                (has "\"name\":\"serve.request.done\"");
              Alcotest.(check bool) "dispatch decision present" true
                (has "\"name\":\"serve.dispatch.decision\"")
          | _ -> Alcotest.fail "expected an events reply"))

let test_server_health_frame () =
  (* a solve then a health frame on the same session: the reply payload
     carries composite status, the registered meters, SLO burn rates and
     per-domain heartbeats *)
  let server = mk_server () in
  let inpath = Filename.temp_file "serve_health_in" ".txt" in
  let outpath = Filename.temp_file "serve_health_out" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.shutdown server;
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ inpath; outpath ])
    (fun () ->
      let inst = Workloads.Gen.identical (rng 23) ~n:5 ~m:2 ~k:2 () in
      let oc = open_out inpath in
      Serve.Proto.write_request oc
        { Serve.Proto.solver = Some "greedy"; deadline_ms = None; instance = inst; trace = None };
      Serve.Proto.write_incoming oc Serve.Proto.Health;
      close_out oc;
      let ic = open_in inpath in
      let oc = open_out outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Serve.Server.serve_channels server ic oc);
      close_out oc;
      let ic = open_in outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          (match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Reply _)) -> ()
          | _ -> Alcotest.fail "expected a solve reply first");
          match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Health_reply { body })) ->
              let lines =
                List.filter (fun l -> l <> "") (String.split_on_char '\n' body)
              in
              let starts prefix l = Astring.String.is_prefix ~affix:prefix l in
              let count prefix =
                List.length (List.filter (starts prefix) lines)
              in
              (* nothing is stuck and no meter is saturated in a test *)
              Alcotest.(check bool) "status ok" true
                (List.mem "status ok" lines);
              Alcotest.(check bool) "liveness ok" true
                (List.mem "liveness ok" lines);
              Alcotest.(check int) "uptime line" 1 (count "uptime_s ");
              (* cache, gc.heap and sessions meters from create *)
              Alcotest.(check bool) "cache meter" true
                (List.exists (starts "meter name=cache ") lines);
              Alcotest.(check bool) "gc.heap meter" true
                (List.exists (starts "meter name=gc.heap ") lines);
              (* availability + latency objectives x 5m/1h windows *)
              Alcotest.(check int) "slo lines" 4 (count "slo name=");
              (* the session domain itself heartbeats, so >= 1 slot *)
              Alcotest.(check bool) "heartbeat lines" true
                (count "heartbeat domain=" >= 1)
          | _ -> Alcotest.fail "expected a health reply"))

let test_dispatch_pressure_sheds () =
  (* admission control: under pressure the heavy tier is shed before it
     runs, the answer comes degraded from the fast path, and the shed
     counter (not the deadline counter) takes the hit *)
  let inst = Workloads.Gen.uniform (rng 29) ~n:9 ~m:3 ~k:3 () in
  let shed_before = Obs.Counter.value (Obs.Counter.make "serve.dispatch.shed") in
  (match Serve.Dispatch.solve ~pressure:(fun () -> true) inst with
  | Ok o ->
      Alcotest.(check bool) "degraded" true o.Serve.Dispatch.degraded;
      Alcotest.(check bool) "fast-path solver" true
        (o.Serve.Dispatch.solver <> "exact"
        && o.Serve.Dispatch.solver <> "exact-budgeted")
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "shed counted" (shed_before + 1)
    (Obs.Counter.value (Obs.Counter.make "serve.dispatch.shed"));
  (* no pressure: the same instance runs the heavy tier undegraded *)
  match Serve.Dispatch.solve inst with
  | Ok o -> Alcotest.(check bool) "not degraded" false o.Serve.Dispatch.degraded
  | Error msg -> Alcotest.fail msg

let test_server_slow_dump () =
  (* acceptance criterion: a request over the slow threshold dumps a
     valid JSON-lines recorder slice carrying the request id on every
     event, including the dispatch decision and the exact solver's own
     events *)
  let dump = Filename.temp_file "serve_dump" ".jsonl" in
  let oc = open_out dump in
  let server =
    Serve.Server.create
      {
        Serve.Server.default_config with
        cache_capacity = 8;
        jobs = 2;
        slow_ms = Some 0.0;
        dump_channel = Some oc;
        dump_min_interval_s = 0.0;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.shutdown server;
      (try close_out oc with Sys_error _ -> ());
      try Sys.remove dump with Sys_error _ -> ())
    (fun () ->
      let inst = Workloads.Gen.uniform (rng 21) ~n:8 ~m:3 ~k:3 () in
      (match
         Serve.Server.handle_request server
           { Serve.Proto.solver = Some "exact"; deadline_ms = None; instance = inst; trace = None }
       with
      | Serve.Proto.Reply _ -> ()
      | _ -> Alcotest.fail "expected a solve reply");
      flush oc;
      match read_lines dump with
      | header :: events ->
          Alcotest.(check bool) "header names the trigger" true
            (Astring.String.is_infix ~affix:"\"dump\":\"slow-request\"" header);
          let req =
            match Astring.String.cut ~sep:"\"req\":\"" header with
            | Some (_, rest) -> (
                match Astring.String.cut ~sep:"\"" rest with
                | Some (id, _) -> id
                | None -> Alcotest.fail "unterminated req id in header")
            | None -> Alcotest.fail "no req id in the dump header"
          in
          Alcotest.(check bool) "dump has events" true (events <> []);
          List.iter
            (fun line ->
              (match Obs.Trace.check_json line with
              | Ok () -> ()
              | Error msg ->
                  Alcotest.failf "dump line %S is not JSON: %s" line msg);
              Alcotest.(check bool)
                (Printf.sprintf "line carries req id %s" req)
                true
                (Astring.String.is_infix
                   ~affix:(Printf.sprintf "\"req\":\"%s\"" req)
                   line))
            (header :: events);
          let all = String.concat "\n" events in
          let has affix = Astring.String.is_infix ~affix all in
          Alcotest.(check bool) "dispatch decision dumped" true
            (has "\"name\":\"serve.dispatch.decision\"");
          Alcotest.(check bool) "exact-node events dumped" true
            (has "\"name\":\"algos.exact.solve\"")
      | [] -> Alcotest.fail "slow request produced no dump")

let test_server_socket_session () =
  (* a Unix-socket session on the mux: pipelined frames answer in order,
     the second through the cache the first filled, a malformed frame
     gets an error reply, and the server closes once the client's side
     is drained *)
  let server = mk_server () in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve_test_%d.sock" (Unix.getpid ()))
  in
  let mux = Serve.Mux.create server in
  Serve.Mux.add_unix mux ~path;
  let runner = Domain.spawn (fun () -> Serve.Mux.run mux) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Mux.stop mux;
      Domain.join runner;
      Serve.Server.shutdown server;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let inst = Workloads.Gen.identical (rng 14) ~n:6 ~m:2 ~k:2 () in
      Serve.Proto.write_request oc
        { Serve.Proto.solver = Some "greedy"; deadline_ms = None; instance = inst; trace = None };
      Serve.Proto.write_request oc
        { Serve.Proto.solver = Some "greedy"; deadline_ms = None; instance = inst; trace = None };
      output_string oc "request v1\nsolver greedy\nend\n";
      flush oc;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      (match Serve.Proto.read_response ic with
      | Ok (Some (Serve.Proto.Reply r)) ->
          Alcotest.(check bool) "miss" false r.Serve.Proto.cache_hit
      | _ -> Alcotest.fail "expected first reply");
      (match Serve.Proto.read_response ic with
      | Ok (Some (Serve.Proto.Reply r)) ->
          Alcotest.(check bool) "hit" true r.Serve.Proto.cache_hit
      | _ -> Alcotest.fail "expected second reply");
      (match Serve.Proto.read_response ic with
      | Ok (Some (Serve.Proto.Error _)) -> ()
      | _ -> Alcotest.fail "expected an error response");
      (match Serve.Proto.read_response ic with
      | Ok None -> ()
      | _ -> Alcotest.fail "expected end of stream");
      Unix.close fd)

(* --- Tracing ------------------------------------------------------------- *)

let test_server_trace_adoption () =
  Obs.Phase.clear ();
  let server = mk_server () in
  Fun.protect
    ~finally:(fun () -> Serve.Server.shutdown server)
    (fun () ->
      let inst = Workloads.Gen.uniform (rng 41) ~n:9 ~m:3 ~k:3 () in
      let ask trace =
        Serve.Server.handle_request server
          { Serve.Proto.solver = Some "greedy"; deadline_ms = None; instance = inst; trace }
      in
      (match ask (Some { Serve.Proto.tid = "cli.9"; parent = Some 77 }) with
      | Serve.Proto.Reply r ->
          Alcotest.(check (option string)) "client id echoed" (Some "cli.9")
            r.Serve.Proto.trace
      | _ -> Alcotest.fail "expected a reply");
      (* the request's phases carry the adopted id, and the root phase
         links under the client's open span *)
      (match Obs.Phase.recent ~ctx:"cli.9" () with
      | [] -> Alcotest.fail "no phases recorded for the adopted id"
      | root :: _ ->
          Alcotest.(check string) "root phase" "serve.request"
            root.Obs.Phase.name;
          Alcotest.(check (option int))
            "root links to the client's span" (Some 77) root.Obs.Phase.parent);
      match ask None with
      | Serve.Proto.Reply r -> (
          match r.Serve.Proto.trace with
          | Some id ->
              Alcotest.(check bool)
                (Printf.sprintf "minted id %S still echoed" id)
                true
                (String.length id > 1 && id.[0] = 'r')
          | None -> Alcotest.fail "minted id not echoed")
      | _ -> Alcotest.fail "expected a reply")

(* One [phase] line of an explain payload -> (depth, name, dur_us). *)
let parse_phase_line line =
  let tok key =
    let prefix = key ^ "=" in
    match
      List.find_map
        (fun t ->
          if Astring.String.is_prefix ~affix:prefix t then
            Some
              (String.sub t (String.length prefix)
                 (String.length t - String.length prefix))
          else None)
        (String.split_on_char ' ' line)
    with
    | Some v -> v
    | None -> Alcotest.failf "phase line %S lacks %s=" line key
  in
  ( int_of_string (tok "depth"),
    tok "name",
    float_of_string (tok "dur_us") )

let test_server_explain_acceptance () =
  (* end-to-end acceptance: a client-minted trace id yields the echoed
     id on the reply, an explain tree whose solver phases are visible
     and account for the request's wall time, an exemplar in the
     exposition, and session ops tagged with their trace *)
  Obs.Phase.clear ();
  let server = mk_server () in
  let inpath = Filename.temp_file "serve_explain_in" ".txt" in
  let outpath = Filename.temp_file "serve_explain_out" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.shutdown server;
      Obs.Phase.clear ();
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ inpath; outpath ])
    (fun () ->
      (* n in the portfolio band so binary-search probes and LP phases
         show up in the tree *)
      let inst = Workloads.Gen.uniform (rng 42) ~n:24 ~m:3 ~k:3 () in
      let oc = open_out inpath in
      Serve.Proto.write_request oc
        {
          Serve.Proto.solver = Some "auto";
          deadline_ms = None;
          instance = inst;
          trace = Some { Serve.Proto.tid = "acc.1"; parent = None };
        };
      write_all
        [ Serve.Proto.Explain "acc.1"; Serve.Proto.Explain "no-such-id" ]
        oc;
      Serve.Proto.write_session_request oc
        {
          Serve.Proto.sid = "sess-t";
          op = Serve.Proto.S_create inst;
          trace = Some { Serve.Proto.tid = "acc.s"; parent = None };
        };
      close_out oc;
      let ic = open_in inpath in
      let oc = open_out outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Serve.Server.serve_channels server ic oc);
      close_out oc;
      let ic = open_in outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          (match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Reply r)) ->
              Alcotest.(check (option string)) "trace echoed" (Some "acc.1")
                r.Serve.Proto.trace
          | _ -> Alcotest.fail "expected a solve reply first");
          (match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Explain_reply { body })) -> (
              let lines =
                List.filter (fun l -> l <> "") (String.split_on_char '\n' body)
              in
              match lines with
              | header :: phases ->
                  Alcotest.(check bool) "header names the trace" true
                    (Astring.String.is_prefix ~affix:"trace id=acc.1 spans="
                       header);
                  let parsed = List.map parse_phase_line phases in
                  let has name =
                    Alcotest.(check bool) (name ^ " phase visible") true
                      (List.exists (fun (_, n, _) -> n = name) parsed)
                  in
                  has "serve.request";
                  has "serve.dispatch";
                  has "core.binary_search";
                  has "core.binary_search.probe";
                  has "lp.simplex.solve";
                  (* probes carry their guess and verdict *)
                  Alcotest.(check bool) "probe verdict visible" true
                    (List.exists
                       (fun l ->
                         Astring.String.is_infix
                           ~affix:"name=core.binary_search.probe" l
                         && Astring.String.is_infix ~affix:"guess=" l
                         && (Astring.String.is_infix ~affix:" feasible" l
                            || Astring.String.is_infix ~affix:" infeasible" l))
                       phases);
                  (* the tree accounts for the request's wall time: the
                     root's direct children sum to its duration within
                     20% (the cache probe and framing outside them are
                     cheap next to the solve) *)
                  (match parsed with
                  | (0, "serve.request", root_dur) :: rest ->
                      let child_sum =
                        List.fold_left
                          (fun acc (d, _, dur) ->
                            if d = 1 then acc +. dur else acc)
                          0.0 rest
                      in
                      Alcotest.(check bool)
                        (Printf.sprintf
                           "children (%.0f us) within 20%% of root (%.0f us)"
                           child_sum root_dur)
                        true
                        (child_sum >= 0.8 *. root_dur
                        && child_sum <= 1.02 *. root_dur)
                  | _ -> Alcotest.fail "first phase is not the root");
                  (* at least one histogram exemplar references the id *)
                  Alcotest.(check bool) "exemplar in exposition" true
                    (Astring.String.is_infix ~affix:"trace_id=\"acc.1\""
                       (Obs.Expo.prometheus ()))
              | [] -> Alcotest.fail "empty explain payload")
          | _ -> Alcotest.fail "expected an explain reply");
          (match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Error msg)) ->
              Alcotest.(check bool) "unknown id names itself" true
                (Astring.String.is_infix ~affix:"no-such-id" msg)
          | _ -> Alcotest.fail "expected an error for the unknown id");
          match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Session_reply sr)) ->
              Alcotest.(check (option string)) "session op tagged"
                (Some "acc.s") sr.Serve.Proto.trace
          | _ -> Alcotest.fail "expected a session reply"))

let test_server_events_filter () =
  (* the events frame's count/level fields filter server-side — what
     `schedtool events --level/--count` rides on *)
  Obs.Event.clear ();
  let server = mk_server () in
  let inpath = Filename.temp_file "serve_evfilter_in" ".txt" in
  let outpath = Filename.temp_file "serve_evfilter_out" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.shutdown server;
      Obs.Event.clear ();
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ inpath; outpath ])
    (fun () ->
      Obs.Event.emit "test.filter.noise" [];
      Obs.Event.emit ~level:Obs.Event.Warn "test.filter.warn1" [];
      Obs.Event.emit "test.filter.noise" [];
      Obs.Event.emit ~level:Obs.Event.Error "test.filter.err1" [];
      let oc = open_out inpath in
      write_all
        [
          Serve.Proto.Events { count = None; min_level = Obs.Event.Warn };
          Serve.Proto.Events { count = Some 1; min_level = Obs.Event.Debug };
        ]
        oc;
      close_out oc;
      let ic = open_in inpath in
      let oc = open_out outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Serve.Server.serve_channels server ic oc);
      close_out oc;
      let ic = open_in outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let body () =
            match Serve.Proto.read_response ic with
            | Ok (Some (Serve.Proto.Events_reply { body })) ->
                List.filter (fun l -> l <> "")
                  (String.split_on_char '\n' body)
            | _ -> Alcotest.fail "expected an events reply"
          in
          let by_level = body () in
          Alcotest.(check bool) "warn retained" true
            (List.exists
               (Astring.String.is_infix ~affix:"test.filter.warn1")
               by_level);
          Alcotest.(check bool) "error retained" true
            (List.exists
               (Astring.String.is_infix ~affix:"test.filter.err1")
               by_level);
          Alcotest.(check bool) "info filtered out" false
            (List.exists
               (Astring.String.is_infix ~affix:"test.filter.noise")
               by_level);
          let newest = body () in
          Alcotest.(check int) "count keeps exactly one line" 1
            (List.length newest)))

(* --- Session registry ---------------------------------------------------- *)

let session_env ?(config = Serve.Session.default_config) () =
  let sessions = Serve.Session.create config in
  let cache = Serve.Cache.create ~capacity:8 in
  let handle req =
    Serve.Session.handle sessions ~cache ~default_deadline_ms:None
      ~pressure:(fun () -> false)
      req
  in
  (sessions, handle)

let expect_session name response =
  match (response : Serve.Proto.response) with
  | Serve.Proto.Session_reply r -> r
  | Serve.Proto.Error msg -> Alcotest.fail (name ^ ": " ^ msg)
  | _ -> Alcotest.fail (name ^ ": expected a session reply")

let expect_session_error name response =
  match (response : Serve.Proto.response) with
  | Serve.Proto.Error msg -> msg
  | _ -> Alcotest.fail (name ^ ": expected an error")

let test_session_lifecycle () =
  let _, handle = session_env () in
  let inst = Workloads.Gen.uniform (rng 21) ~n:9 ~m:3 ~k:3 () in
  let created =
    expect_session "create"
      (handle { Serve.Proto.sid = "a"; op = Serve.Proto.S_create inst; trace = None })
  in
  Alcotest.(check int) "fresh generation" 0 created.Serve.Proto.generation;
  Alcotest.(check int) "fresh jobs" 9 created.Serve.Proto.jobs;
  let resolve () =
    expect_session "resolve"
      (handle
         {
           Serve.Proto.sid = "a";
           op = Serve.Proto.S_resolve { deadline_ms = None }; trace = None
         })
  in
  let first = resolve () in
  Alcotest.(check (option string)) "first is full" (Some "full")
    first.Serve.Proto.mode;
  let first_solve = Option.get first.Serve.Proto.solve in
  let added =
    expect_session "add"
      (handle
         {
           Serve.Proto.sid = "a";
           op =
             Serve.Proto.S_add_jobs
               [
                 {
                   Core.Instance.nsize = 4.0;
                   nclass = 0;
                   nptimes = None;
                   neligible = None;
                 };
               ]; trace = None
         })
  in
  Alcotest.(check int) "generation bumped" 1 added.Serve.Proto.generation;
  Alcotest.(check int) "job appended" 10 added.Serve.Proto.jobs;
  let repaired = resolve () in
  Alcotest.(check (option string)) "mutated resolve repairs" (Some "repair")
    repaired.Serve.Proto.mode;
  let repaired_solve = Option.get repaired.Serve.Proto.solve in
  (* adding work can only push the makespan up *)
  Alcotest.(check bool) "monotone makespan" true
    (repaired_solve.Serve.Proto.makespan
     >= first_solve.Serve.Proto.makespan -. 1e-9);
  let again = resolve () in
  Alcotest.(check (option string)) "unchanged resolve hits the cache"
    (Some "cache") again.Serve.Proto.mode;
  let dropped =
    expect_session "drop"
      (handle { Serve.Proto.sid = "a"; op = Serve.Proto.S_drop_jobs [ 9 ]; trace = None })
  in
  Alcotest.(check int) "drop bumps generation" 2
    dropped.Serve.Proto.generation;
  Alcotest.(check int) "job removed" 9 dropped.Serve.Proto.jobs;
  let back = resolve () in
  Alcotest.(check (option string)) "post-drop resolve repairs" (Some "repair")
    back.Serve.Proto.mode;
  ignore
    (expect_session "close"
       (handle { Serve.Proto.sid = "a"; op = Serve.Proto.S_close; trace = None }))

let test_session_errors () =
  let _, handle =
    session_env
      ~config:{ Serve.Session.default_config with max_sessions = 2 }
      ()
  in
  let inst = Workloads.Gen.identical (rng 22) ~n:5 ~m:2 ~k:2 () in
  let contains msg affix =
    Alcotest.(check bool)
      (Printf.sprintf "%S mentions %S" msg affix)
      true
      (Astring.String.is_infix ~affix msg)
  in
  (* unknown id *)
  contains
    (expect_session_error "unknown"
       (handle
          {
            Serve.Proto.sid = "ghost";
            op = Serve.Proto.S_resolve { deadline_ms = None }; trace = None
          }))
    "unknown session id";
  ignore
    (expect_session "create"
       (handle { Serve.Proto.sid = "a"; op = Serve.Proto.S_create inst; trace = None }));
  (* duplicate create *)
  contains
    (expect_session_error "duplicate"
       (handle { Serve.Proto.sid = "a"; op = Serve.Proto.S_create inst; trace = None }))
    "already exists";
  (* malformed mutations *)
  contains
    (expect_session_error "out of range"
       (handle { Serve.Proto.sid = "a"; op = Serve.Proto.S_drop_jobs [ 7 ]; trace = None }))
    "out of range";
  contains
    (expect_session_error "emptying"
       (handle
          {
            Serve.Proto.sid = "a";
            op = Serve.Proto.S_drop_jobs [ 0; 1; 2; 3; 4 ]; trace = None
          }))
    "empty";
  contains
    (expect_session_error "unknown class"
       (handle
          {
            Serve.Proto.sid = "a";
            op =
              Serve.Proto.S_add_jobs
                [
                  {
                    Core.Instance.nsize = 1.0;
                    nclass = 9;
                    nptimes = None;
                    neligible = None;
                  };
                ]; trace = None
          }))
    "class";
  (* table full *)
  ignore
    (expect_session "second create"
       (handle { Serve.Proto.sid = "b"; op = Serve.Proto.S_create inst; trace = None }));
  contains
    (expect_session_error "table full"
       (handle { Serve.Proto.sid = "c"; op = Serve.Proto.S_create inst; trace = None }))
    "session table full";
  (* double close *)
  ignore
    (expect_session "close"
       (handle { Serve.Proto.sid = "a"; op = Serve.Proto.S_close; trace = None }));
  contains
    (expect_session_error "double close"
       (handle { Serve.Proto.sid = "a"; op = Serve.Proto.S_close; trace = None }))
    "unknown session id";
  (* the freed slot is usable again *)
  ignore
    (expect_session "create after close"
       (handle { Serve.Proto.sid = "c"; op = Serve.Proto.S_create inst; trace = None }))

let test_session_idle_eviction () =
  let sessions, handle =
    session_env
      ~config:
        { Serve.Session.default_config with idle_timeout_s = Some 0.0 }
      ()
  in
  let inst = Workloads.Gen.identical (rng 23) ~n:5 ~m:2 ~k:2 () in
  ignore
    (expect_session "create"
       (handle { Serve.Proto.sid = "a"; op = Serve.Proto.S_create inst; trace = None }));
  Alcotest.(check int) "one live session" 1 (Serve.Session.count sessions);
  Unix.sleepf 0.01;
  (* lazy expiry on access: the error names the configured timeout *)
  let msg =
    expect_session_error "expired"
      (handle
         {
           Serve.Proto.sid = "a";
           op = Serve.Proto.S_resolve { deadline_ms = None }; trace = None
         })
  in
  Alcotest.(check bool) "names idle timeout" true
    (Astring.String.is_infix ~affix:"idle timeout" msg);
  Alcotest.(check int) "slot reclaimed" 0 (Serve.Session.count sessions);
  (* bulk sweep: the watchdog-tick path *)
  ignore
    (expect_session "recreate"
       (handle { Serve.Proto.sid = "b"; op = Serve.Proto.S_create inst; trace = None }));
  Unix.sleepf 0.01;
  Alcotest.(check int) "sweep evicts" 1 (Serve.Session.evict_idle sessions);
  Alcotest.(check int) "registry empty" 0 (Serve.Session.count sessions)

(* --- incremental frame parser -------------------------------------------- *)

(* oracle: what the channel path decodes from a byte stream *)
let channel_incomings text =
  roundtrip_via_file
    (fun oc -> output_string oc text)
    (fun ic ->
      let rec go acc =
        match Serve.Proto.read_incoming ic with
        | Ok None -> List.rev acc
        | Ok (Some x) -> go (Ok x :: acc)
        | Error msg -> go (Error msg :: acc)
      in
      go [])

let channel_responses text =
  roundtrip_via_file
    (fun oc -> output_string oc text)
    (fun ic ->
      let rec go acc =
        match Serve.Proto.read_response ic with
        | Ok None -> List.rev acc
        | Ok (Some x) -> go (Ok x :: acc)
        | Error msg -> go (Error msg :: acc)
      in
      go [])

(* feed [text] to the incremental parser in the given chunks and decode
   every completed frame with [of_frame] *)
let incremental_decode of_frame chunks =
  let p = Serve.Proto.Incremental.create () in
  let out = ref [] in
  let drain () =
    let rec go () =
      match Serve.Proto.Incremental.next_frame p with
      | None -> ()
      | Some frame ->
          out := of_frame frame :: !out;
          go ()
    in
    go ()
  in
  List.iter
    (fun chunk ->
      Serve.Proto.Incremental.feed p chunk;
      drain ())
    chunks;
  Serve.Proto.Incremental.finish p;
  drain ();
  List.rev !out

let show_incoming = function
  | Error msg -> "error: " ^ msg
  | Ok (Serve.Proto.Solve req) ->
      Printf.sprintf "solve %s %s\n%s"
        (Option.value ~default:"-" req.Serve.Proto.solver)
        (match req.Serve.Proto.deadline_ms with
        | Some d -> string_of_float d
        | None -> "-")
        (Core.Instance_io.to_string req.Serve.Proto.instance)
  | Ok (Serve.Proto.Stats Serve.Proto.Prometheus) -> "stats prometheus"
  | Ok (Serve.Proto.Stats Serve.Proto.Json) -> "stats json"
  | Ok (Serve.Proto.Events { count; min_level }) ->
      Printf.sprintf "events %s %s"
        (match count with Some n -> string_of_int n | None -> "-")
        (Obs.Event.level_to_string min_level)
  | Ok Serve.Proto.Health -> "health"
  | Ok (Serve.Proto.Explain id) -> "explain " ^ id
  | Ok (Serve.Proto.Session { sid; _ }) -> "session " ^ sid
  | Ok (Serve.Proto.Profile _) -> "profile"

let show_response = function
  | Error msg -> "error: " ^ msg
  | Ok r -> Serve.Proto.response_to_string r

(* a stream that exercises every resync path: good frames, an unknown
   header, a bad body, admin frames *)
let incoming_stream () =
  let inst = Workloads.Gen.identical (rng 41) ~n:5 ~m:2 ~k:2 () in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "request v1\ndeadline_ms 12.5\ninstance\n";
  Buffer.add_string buf (Core.Instance_io.to_string inst);
  Buffer.add_string buf "end\n";
  Buffer.add_string buf "banana v9\nsolver exact\nend\n";
  Buffer.add_string buf "request v1\ninstance\nnot a keyword\nend\n";
  Buffer.add_string buf "stats v1\nformat json\nend\n";
  Buffer.add_string buf "\n\nevents v1\ncount 7\nend\n";
  Buffer.add_string buf "health v1\nend\n";
  Buffer.add_string buf "explain v1\nid lg1.2\nend\n";
  Buffer.contents buf

(* payload-bearing responses, so chunk splits land inside the [payload]
   marker and inside payload bodies *)
let response_stream () =
  let buf = Buffer.create 512 in
  List.iter
    (fun r -> Buffer.add_string buf (Serve.Proto.response_to_string r))
    [
      Serve.Proto.Reply
        {
          solver = "exact";
          cache_hit = false;
          degraded = false;
          makespan = 17.5;
          elapsed_us = 42;
          assignment = [| 0; 1; 1 |];
          trace = Some "lg1.1";
        };
      Serve.Proto.Stats_reply
        {
          format = Serve.Proto.Prometheus;
          body = "# TYPE serve_requests counter\nserve_requests 3\n";
        };
      Serve.Proto.Error "boom";
      Serve.Proto.Health_reply { body = "status ok\nliveness ok\n" };
    ]
  |> ignore;
  Buffer.add_string buf "response v9\nstatus ok\nend\n";
  Buffer.contents buf

let chop_bytes s = List.init (String.length s) (fun i -> String.sub s i 1)

let test_incremental_byte_at_a_time () =
  let text = incoming_stream () in
  let oracle = List.map show_incoming (channel_incomings text) in
  let whole =
    List.map show_incoming
      (incremental_decode
         (fun f -> Serve.Proto.incoming_of_frame f)
         [ text ])
  in
  Alcotest.(check (list string)) "whole feed matches channel" oracle whole;
  let bytewise =
    List.map show_incoming
      (incremental_decode
         (fun f -> Serve.Proto.incoming_of_frame f)
         (chop_bytes text))
  in
  Alcotest.(check (list string)) "byte-at-a-time matches channel" oracle
    bytewise

let test_incremental_every_split () =
  (* every two-chunk split of a payload-bearing response stream decodes
     identically — including splits inside the [payload] marker *)
  let text = response_stream () in
  let oracle = List.map show_response (channel_responses text) in
  Alcotest.(check (list string))
    "whole feed matches channel" oracle
    (List.map show_response
       (incremental_decode
          (fun f -> Serve.Proto.response_of_frame f)
          [ text ]));
  for k = 0 to String.length text do
    let chunks =
      [ String.sub text 0 k; String.sub text k (String.length text - k) ]
    in
    let got =
      List.map show_response
        (incremental_decode
           (fun f -> Serve.Proto.response_of_frame f)
           chunks)
    in
    if got <> oracle then
      Alcotest.failf "split at byte %d diverges from the channel path" k
  done

let test_incremental_truncation () =
  let p = Serve.Proto.Incremental.create () in
  Serve.Proto.Incremental.feed p "request v1\nsolver exact";
  Alcotest.(check bool) "nothing complete yet" true
    (Serve.Proto.Incremental.next_frame p = None);
  (* stream ends mid-frame: finish delivers the dangling line, and the
     open frame is detectable for a truncated-frame error reply *)
  Serve.Proto.Incremental.finish p;
  Alcotest.(check bool) "still no frame" true
    (Serve.Proto.Incremental.next_frame p = None);
  Alcotest.(check bool) "open frame detected" true
    (Serve.Proto.Incremental.in_frame p);
  Alcotest.(check int) "all bytes consumed" 0
    (Serve.Proto.Incremental.buffered p);
  Alcotest.(check bool) "error names the terminator" true
    (Astring.String.is_infix ~affix:"end"
       Serve.Proto.Incremental.truncated_error)

(* --- golden wire bytes ------------------------------------------------------ *)

(* The exact bytes of one value of every request kind, session op, profile
   action and reply status, and one malformed frame per fault with the
   verdict and error text it gets — pinned so a codec rewrite cannot drift
   the wire. A 2-job instance keeps the text short. *)
let golden_instance_text =
  "# setup-scheduling instance\nenv identical\nmachines 2\nclasses 1\n\
   setups 3\njobs 2\nsizes 5 7\njob_class 0 0\n"

let golden_frame header lines =
  String.concat "" (List.map (fun l -> l ^ "\n") ((header :: lines) @ [ "end" ]))

let golden_instance_lines =
  List.filter (( <> ) "") (String.split_on_char '\n' golden_instance_text)

let golden_incomings () =
  let open Serve.Proto in
  let instance = Core.Instance_io.of_string golden_instance_text in
  let inst = "instance\n" ^ golden_instance_text in
  let session ?trace sid op = Session { sid; op; trace } in
  let profile ?(pmode = Obs.Profile.Cpu) ?prate ?(pformat = Obs.Profile.Collapsed)
      ?pfilter paction =
    Profile { paction; pmode; prate; pformat; pfilter }
  in
  [
    ( Solve
        {
          solver = Some "exact";
          deadline_ms = Some 12.5;
          trace = Some { tid = "lg7.3"; parent = Some 12 };
          instance;
        },
      "request v1\nsolver exact\ndeadline_ms 12.5\ntrace lg7.3/12\n" ^ inst
      ^ "end\n" );
    ( Solve { solver = None; deadline_ms = Some infinity; trace = None; instance },
      "request v1\ndeadline_ms inf\n" ^ inst ^ "end\n" );
    (Stats Json, "stats v1\nformat json\nend\n");
    (Stats Prometheus, "stats v1\nformat prometheus\nend\n");
    ( Events { count = Some 50; min_level = Obs.Event.Warn },
      "events v1\ncount 50\nlevel warn\nend\n" );
    (Health, "health v1\nend\n");
    (Explain "lg7.3", "explain v1\nid lg7.3\nend\n");
    ( session ~trace:{ tid = "lg1"; parent = None } "s-1" (S_create instance),
      "session v1\nop create\nid s-1\ntrace lg1\n" ^ inst ^ "end\n" );
    ( session "s-1"
        (S_add_jobs
           [
             {
               Core.Instance.nsize = 4.0;
               nclass = 0;
               nptimes = Some [| 1.5; infinity |];
               neligible = None;
             };
             {
               Core.Instance.nsize = 2.0;
               nclass = 1;
               nptimes = None;
               neligible = Some [| true; false |];
             };
           ]),
      "session v1\nop add-jobs\nid s-1\njob size=4 class=0 ptimes=1.5,inf\n\
       job size=2 class=1 eligible=1,0\nend\n" );
    ( session "s-1" (S_drop_jobs [ 0; 1 ]),
      "session v1\nop drop-jobs\nid s-1\njobs 0 1\nend\n" );
    ( session ~trace:{ tid = "lg1"; parent = Some 3 } "s-1"
        (S_resolve { deadline_ms = Some 40.0 }),
      "session v1\nop resolve\nid s-1\ntrace lg1/3\ndeadline_ms 40\nend\n" );
    ( session "s-1" (S_resolve { deadline_ms = None }),
      "session v1\nop resolve\nid s-1\nend\n" );
    (session "s-1" S_close, "session v1\nop close\nid s-1\nend\n");
    ( profile P_status,
      "profile v1\naction status\nmode cpu\nformat collapsed\nend\n" );
    ( profile ~pmode:Obs.Profile.Alloc ~prate:0.25 P_start,
      "profile v1\naction start\nmode alloc\nrate 0.25\nformat collapsed\nend\n"
    );
    ( profile ~pformat:Obs.Profile.Json ~pfilter:"lg1.3" P_stop,
      "profile v1\naction stop\nmode cpu\nformat json\nid lg1.3\nend\n" );
    ( profile ~prate:99.0 (P_capture 5.0),
      "profile v1\naction capture\nseconds 5\nmode cpu\nrate 99\n\
       format collapsed\nend\n" );
  ]

let golden_responses () =
  let open Serve.Proto in
  let solved ?trace assignment =
    {
      solver = "incremental-repair";
      cache_hit = false;
      degraded = false;
      makespan = 12.0;
      elapsed_us = 210;
      assignment;
      trace;
    }
  in
  [
    ( Reply
        {
          solver = "exact";
          cache_hit = true;
          degraded = false;
          makespan = 117.06;
          elapsed_us = 1834;
          assignment = [| 0; 1 |];
          trace = Some "lg7.3";
        },
      "response v1\nstatus ok\ntrace lg7.3\nsolver exact\ncache hit\n\
       degraded false\nmakespan 117.06\nelapsed_us 1834\nassignment 0 1\nend\n"
    );
    ( Reply { (solved [||]) with solver = "greedy"; degraded = true; makespan = 0.0 },
      "response v1\nstatus ok\nsolver greedy\ncache miss\ndegraded true\n\
       makespan 0\nelapsed_us 210\nassignment\nend\n" );
    ( Session_reply
        {
          sid = "s-1";
          op = "add-jobs";
          generation = 1;
          jobs = 4;
          mode = None;
          solve = None;
          trace = Some "lg1";
        },
      "response v1\nstatus session\nid s-1\nop add-jobs\ntrace lg1\n\
       generation 1\njobs 4\nend\n" );
    ( Session_reply
        {
          sid = "s-1";
          op = "resolve";
          generation = 3;
          jobs = 2;
          mode = Some "repair";
          solve = Some (solved [| 1; 0 |]);
          trace = None;
        },
      "response v1\nstatus session\nid s-1\nop resolve\ngeneration 3\njobs 2\n\
       mode repair\nsolver incremental-repair\ncache miss\ndegraded false\n\
       makespan 12\nelapsed_us 210\nassignment 1 0\nend\n" );
    ( Error "bad\nthings\rhappened",
      "response v1\nstatus error\nerror bad things happened\nend\n" );
    (Error "", "response v1\nstatus error\nerror \nend\n");
    ( Stats_reply { format = Prometheus; body = "# TYPE x counter\nx 1\n" },
      "response v1\nstatus stats\nformat prometheus\npayload\n\
       # TYPE x counter\nx 1\nend\n" );
    ( Stats_reply { format = Json; body = "{}" },
      "response v1\nstatus stats\nformat json\npayload\n{}\nend\n" );
    ( Events_reply { body = "{\"level\":\"info\"}" },
      "response v1\nstatus events\npayload\n{\"level\":\"info\"}\nend\n" );
    ( Health_reply { body = "status ok\nliveness ok\n" },
      "response v1\nstatus health\npayload\nstatus ok\nliveness ok\nend\n" );
    ( Explain_reply { body = "" },
      "response v1\nstatus explain\npayload\nend\n" );
    ( Profile_reply { body = "a;b 3\n" },
      "response v1\nstatus profile\npayload\na;b 3\nend\n" );
  ]

let decode_one of_frame text =
  match incremental_decode of_frame [ text ] with
  | [ r ] -> r
  | rs -> Alcotest.failf "%d frames decoded from %S" (List.length rs) text

let test_proto_golden_encode () =
  List.iter
    (fun (v, bytes) ->
      Alcotest.(check string) "request bytes" bytes
        (Serve.Proto.incoming_to_string v);
      Alcotest.(check (result string string)) "request decodes back" (Ok bytes)
        (Result.map Serve.Proto.incoming_to_string
           (decode_one Serve.Proto.incoming_of_frame bytes)))
    (golden_incomings ());
  List.iter
    (fun (v, bytes) ->
      Alcotest.(check string) "reply bytes" bytes
        (Serve.Proto.response_to_string v);
      Alcotest.(check (result string string)) "reply decodes back" (Ok bytes)
        (Result.map Serve.Proto.response_to_string
           (decode_one Serve.Proto.response_of_frame bytes)))
    (golden_responses ())

(* One malformed frame per fault: [Ok] carries the bytes the decoded value
   re-encodes to, [Error] the error text. *)
let golden_request_verdicts =
  let inst = "instance" :: golden_instance_lines in
  let job_frame spec = golden_frame "session v1" [ "op add-jobs"; "id x"; "job " ^ spec ] in
  [
    (golden_frame "request v1" ("solver" :: inst), Error {|solver: expected a name, got ""|});
    ( golden_frame "request v1" ("deadline_ms -1" :: inst),
      Error {|deadline_ms: expected a number >= 0, got "-1"|} );
    ( golden_frame "request v1" ("deadline_ms soon" :: inst),
      Error {|deadline_ms: expected a number >= 0, got "soon"|} );
    ( golden_frame "request v1" ("trace lg/x" :: inst),
      Error {|trace: parent span "x" must be an integer >= 0|} );
    ( golden_frame "request v1" ("trace a b" :: inst),
      Error {|trace: "a b" has characters outside [A-Za-z0-9._-]|} );
    (golden_frame "request v1" ("trace" :: inst), Error "trace: must not be empty");
    (golden_frame "request v1" ("color red" :: inst), Error {|unknown request field "color"|});
    (golden_frame "request v1" [ "solver exact" ], Error "request has no instance block");
    ( golden_frame "request v1" [ "instance"; "env identical"; "machines x" ],
      Error "line 2: machines: expected an integer, got \"x\"" );
    (golden_frame "stats v1" [ "format xml" ], Error {|format: expected prometheus|json, got "xml"|});
    (golden_frame "stats v1" [ "color red" ], Error {|unknown stats field "color"|});
    (golden_frame "events v1" [ "count 0" ], Error {|count: expected an integer >= 1, got "0"|});
    ( golden_frame "events v1" [ "level loud" ],
      Error {|level: expected debug|info|warn|error, got "loud"|} );
    (golden_frame "events v1" [ "color red" ], Error {|unknown events field "color"|});
    ( golden_frame "events v1" [ "count x"; "count 3" ],
      Error {|count: expected an integer >= 1, got "x"|} );
    (golden_frame "events v1" [], Ok "events v1\nlevel debug\nend\n");
    ( golden_frame "events v1" [ "count 3"; ""; "count 5" ],
      Ok "events v1\ncount 5\nlevel debug\nend\n" );
    (golden_frame "health v1" [ "color red" ], Error {|unknown health field "color"|});
    ( golden_frame "explain v1" [ "id a/b" ],
      Error {|id: "a/b" has characters outside [A-Za-z0-9._-]|} );
    (golden_frame "explain v1" [], Error "explain frame missing id");
    (golden_frame "explain v1" [ "id x"; "color red" ], Error {|unknown explain field "color"|});
    ( golden_frame "session v1" [ "op explode"; "id x" ],
      Error {|op: expected create|add-jobs|drop-jobs|resolve|close, got "explode"|} );
    (golden_frame "session v1" [ "op"; "id x" ], Error {|op: expected a name, got ""|});
    ( golden_frame "session v1" [ "op explode"; "op close"; "id x" ],
      Ok "session v1\nop close\nid x\nend\n" );
    ( golden_frame "session v1" [ "op close"; "id a b" ],
      Error {|id: "a b" has characters outside [A-Za-z0-9._-]|} );
    ( golden_frame "session v1" [ "op close"; "id x"; "trace t/-1" ],
      Error {|trace: parent span "-1" must be an integer >= 0|} );
    ( golden_frame "session v1" [ "op resolve"; "id x"; "deadline_ms -5" ],
      Error {|deadline_ms: expected a number >= 0, got "-5"|} );
    ( golden_frame "session v1" [ "op drop-jobs"; "id x"; "jobs 1 x" ],
      Error {|jobs: expected an integer >= 0, got "x"|} );
    (job_frame "size=x class=0", Error {|job: size: expected a finite number >= 0, got "x"|});
    (job_frame "size=inf class=0", Error {|job: size: expected a finite number >= 0, got "inf"|});
    (job_frame "size=1 class=-1", Error {|job: class: expected an integer >= 0, got "-1"|});
    (job_frame "size=1 class=0 ptimes=1,x", Error {|job: ptimes: expected a number, got "x"|});
    (job_frame "size=1 class=0 eligible=1,2", Error {|job: eligible: expected 0|1, got "2"|});
    (job_frame "size=1 class=0 color=red", Error {|job: unknown key "color"|});
    (job_frame "size=1 class", Error {|job: expected key=value, got "class"|});
    (job_frame "class=0", Error "job: missing size=...");
    (job_frame "size=1", Error "job: missing class=...");
    ( golden_frame "session v1" [ "op close"; "id x"; "color red" ],
      Error {|unknown session field "color"|} );
    (golden_frame "session v1" [ "op close" ], Error "session frame missing id");
    (golden_frame "session v1" [ "id x" ], Error "session frame missing op");
    (golden_frame "session v1" [ "op create"; "id x" ], Error "create needs an instance block");
    ( golden_frame "session v1" ([ "op create"; "id x"; "job size=1 class=0" ] @ inst),
      Error "create takes only an instance block" );
    (golden_frame "session v1" [ "op add-jobs"; "id x" ], Error "add-jobs needs at least one job line");
    ( golden_frame "session v1" [ "op add-jobs"; "id x"; "job size=1 class=0"; "jobs 1" ],
      Error "add-jobs takes only job lines" );
    (golden_frame "session v1" [ "op drop-jobs"; "id x" ], Error "drop-jobs needs a jobs line");
    ( golden_frame "session v1" [ "op drop-jobs"; "id x"; "jobs 1"; "job size=1 class=0" ],
      Error "drop-jobs takes only jobs lines" );
    ( golden_frame "session v1" ([ "op resolve"; "id x" ] @ inst),
      Error "resolve takes no instance block" );
    ( golden_frame "session v1" [ "op resolve"; "id x"; "job size=1 class=0" ],
      Error "resolve takes no job lines" );
    (golden_frame "session v1" [ "op close"; "id x"; "jobs 1" ], Error "close takes no jobs line");
    ( golden_frame "session v1" [ "op drop-jobs"; "id x"; "jobs 2"; "jobs 0 1" ],
      Ok "session v1\nop drop-jobs\nid x\njobs 2 0 1\nend\n" );
    ( golden_frame "session v1" [ "op resolve"; "id x"; "jobs" ],
      Ok "session v1\nop resolve\nid x\nend\n" );
    ( golden_frame "profile v1" [ "action go" ],
      Error {|action: expected status|start|stop|capture, got "go"|} );
    (golden_frame "profile v1" [ "seconds 0" ], Error {|seconds: expected 0 < s <= 600, got "0"|});
    (golden_frame "profile v1" [ "mode gpu" ], Error {|mode: expected cpu|alloc, got "gpu"|});
    (golden_frame "profile v1" [ "rate 0" ], Error {|rate: expected a number > 0, got "0"|});
    ( golden_frame "profile v1" [ "format svg" ],
      Error {|format: expected collapsed|json, got "svg"|} );
    ( golden_frame "profile v1" [ "id a b" ],
      Error {|id: "a b" has characters outside [A-Za-z0-9._-]|} );
    (golden_frame "profile v1" [ "color red" ], Error {|unknown profile field "color"|});
    (golden_frame "profile v1" [ "action capture" ], Error "capture requires a seconds field");
    ( golden_frame "profile v1" [ "seconds 2" ],
      Ok "profile v1\naction capture\nseconds 2\nmode cpu\nformat collapsed\nend\n" );
    ( golden_frame "profile v1" [ "action stop"; "seconds 2" ],
      Ok "profile v1\naction stop\nmode cpu\nformat collapsed\nend\n" );
    ( golden_frame "request v9" [ "junk" ],
      Error
        {|bad request header "request v9" (expected "request v1", "stats v1", "events v1", "health v1", "explain v1", "session v1" or "profile v1")|}
    );
  ]

let golden_reply_verdicts =
  let ok_fields =
    [ "solver exact"; "cache hit"; "degraded false"; "makespan 5"; "elapsed_us 9"; "assignment 0 1" ]
  in
  let ok_with key value =
    golden_frame "response v1"
      ("status ok"
      :: List.map
           (fun l -> if String.starts_with ~prefix:(key ^ " ") l then key ^ " " ^ value else l)
           ok_fields)
  in
  let session_fields = [ "status session"; "id s"; "op resolve"; "generation 2"; "jobs 2" ] in
  [
    (golden_frame "response v1" [ "solver exact" ], Error "response missing status");
    (golden_frame "response v1" [ "status weird" ], Error {|unknown status "weird"|});
    ( golden_frame "response v1"
        ("status ok" :: List.filter (fun l -> not (String.starts_with ~prefix:"makespan" l)) ok_fields),
      Error {|response missing field "makespan"|} );
    (ok_with "cache" "maybe", Error {|cache: expected hit|miss, got "maybe"|});
    (ok_with "degraded" "yes", Error {|degraded: expected a bool, got "yes"|});
    (ok_with "makespan" "x", Error {|makespan: expected a number, got "x"|});
    (ok_with "elapsed_us" "x", Error {|elapsed_us: expected an integer, got "x"|});
    (ok_with "assignment" "0 x", Error {|assignment: expected an integer, got "x"|});
    (golden_frame "response v1" [ "status stats"; "payload"; "x 1" ], Error "stats response missing format");
    ( golden_frame "response v1" [ "status stats"; "format xml"; "payload"; "x 1" ],
      Error {|format: expected prometheus|json, got "xml"|} );
    (golden_frame "response v1" [ "status stats"; "format json" ], Error "stats response missing payload");
    (golden_frame "response v1" [ "status events" ], Error "events response missing payload");
    (golden_frame "response v1" [ "status health" ], Error "health response missing payload");
    (golden_frame "response v1" [ "status explain" ], Error "explain response missing payload");
    (golden_frame "response v1" [ "status profile" ], Error "profile response missing payload");
    ( golden_frame "response v1" (List.filter (( <> ) "id s") session_fields),
      Error {|session response missing field "id"|} );
    ( golden_frame "response v1"
        (List.map (fun l -> if l = "generation 2" then "generation x" else l) session_fields),
      Error {|generation: expected an integer, got "x"|} );
    ( golden_frame "response v1" (session_fields @ [ "mode repair" ]),
      Error {|response missing field "solver"|} );
    ( golden_frame "response v9" [ "status ok" ],
      Error {|bad response header "response v9" (expected "response v1")|} );
    ( golden_frame "response v1" [ "status error" ],
      Ok "response v1\nstatus error\nerror unspecified error\nend\n" );
  ]

let test_proto_golden_decode () =
  List.iter
    (fun (text, verdict) ->
      Alcotest.(check (result string string)) text verdict
        (Result.map Serve.Proto.incoming_to_string
           (decode_one Serve.Proto.incoming_of_frame text)))
    golden_request_verdicts;
  List.iter
    (fun (text, verdict) ->
      Alcotest.(check (result string string)) text verdict
        (Result.map Serve.Proto.response_to_string
           (decode_one Serve.Proto.response_of_frame text)))
    golden_reply_verdicts

(* --- wire round-trip property ----------------------------------------------- *)

(* Every frame kind, encoded by the one encoder of its direction, decodes
   to the same value through the mux's byte path — split at a random
   byte — and through the channel path. Only values the wire represents
   exactly are drawn: ids from the id charset, payload lines without
   surrounding blanks or a bare [end], and reply makespans already
   rounded to the [%g] the wire prints. *)
let wire_gens =
  let open QCheck.Gen in
  let chars s = oneofl (List.of_seq (String.to_seq s)) in
  let id = string_size ~gen:(chars "abcXYZ0189._-") (int_range 1 12) in
  let text = map String.trim (string_size ~gen:(chars "abc xyz{}\":=/;,.019_-") (int_range 0 24)) in
  let body = map (fun ls -> String.concat "" (List.map (fun l -> l ^ "\n") ls)) (list_size (int_range 0 4) text) in
  let finite = float_bound_inclusive 1e6 in
  let budget = oneof [ finite; return infinity ] in
  let trace = map2 (fun tid parent -> { Serve.Proto.tid; parent }) id (opt (int_range 0 99)) in
  let instance = map2 (fun (_, g) seed -> g (rng seed)) (oneofl generators) (int_range 0 10_000) in
  let nonempty g = array_size (int_range 1 4) g in
  let job =
    map4
      (fun nsize nclass nptimes neligible -> { Core.Instance.nsize; nclass; nptimes; neligible })
      finite (int_range 0 5) (opt (nonempty budget)) (opt (nonempty bool))
  in
  let session op = map2 (fun sid trace -> Serve.Proto.Session { sid; op; trace }) id (opt trace) in
  let profile paction =
    map4
      (fun pmode prate pformat pfilter -> Serve.Proto.Profile { paction; pmode; prate; pformat; pfilter })
      (oneofl [ Obs.Profile.Cpu; Obs.Profile.Alloc ])
      (opt (float_range 0.001 1000.0))
      (oneofl [ Obs.Profile.Collapsed; Obs.Profile.Json ])
      (opt id)
  in
  (* one frame of every kind, every session op and every profile action *)
  let incomings =
    flatten_l
      [
        map4
          (fun solver deadline_ms trace instance ->
            Serve.Proto.Solve { solver; deadline_ms; trace; instance })
          (opt (oneofl [ "auto"; "exact"; "greedy"; "portfolio" ]))
          (opt budget) (opt trace) instance;
        map (fun f -> Serve.Proto.Stats f) (oneofl [ Serve.Proto.Prometheus; Serve.Proto.Json ]);
        map2
          (fun count min_level -> Serve.Proto.Events { count; min_level })
          (opt (int_range 1 1000))
          (oneofl Obs.Event.[ Debug; Info; Warn; Error ]);
        return Serve.Proto.Health;
        map (fun i -> Serve.Proto.Explain i) id;
        instance >>= (fun i -> session (Serve.Proto.S_create i));
        list_size (int_range 1 3) job >>= (fun js -> session (Serve.Proto.S_add_jobs js));
        list_size (int_range 1 3) (int_range 0 50) >>= (fun ids -> session (Serve.Proto.S_drop_jobs ids));
        opt budget >>= (fun deadline_ms -> session (Serve.Proto.S_resolve { deadline_ms }));
        session Serve.Proto.S_close;
        profile Serve.Proto.P_status;
        profile Serve.Proto.P_start;
        profile Serve.Proto.P_stop;
        float_range 0.01 600.0 >>= (fun s -> profile (Serve.Proto.P_capture s));
      ]
    >>= shuffle_l
  in
  let reply trace =
    map4
      (fun (solver, cache_hit, degraded) makespan elapsed_us assignment ->
        {
          Serve.Proto.solver;
          cache_hit;
          degraded;
          makespan = float_of_string (Printf.sprintf "%g" makespan);
          elapsed_us;
          assignment;
          trace;
        })
      (triple (oneofl [ "exact"; "greedy"; "portfolio:rounding"; "incremental-repair" ]) bool bool)
      finite (int_range 0 1_000_000)
      (array_size (int_range 0 12) (int_range 0 7))
  in
  let session_reply ~resolved =
    opt id >>= fun trace ->
    map4
      (fun (sid, op) generation jobs solve ->
        Serve.Proto.Session_reply
          {
            sid;
            op;
            generation;
            jobs;
            mode = Option.map fst solve;
            solve = Option.map snd solve;
            trace;
          })
      (pair id (oneofl [ "create"; "add-jobs"; "drop-jobs"; "resolve"; "close" ]))
      (int_range 0 100) (int_range 0 500)
      (if resolved then
         (* the embedded reply rides on the session's own trace line *)
         map2 (fun m r -> Some (m, r)) (oneofl [ "repair"; "fallback"; "full"; "cache" ]) (reply trace)
       else return None)
  in
  let responses =
    flatten_l
      [
        opt id >>= (fun t -> map (fun r -> Serve.Proto.Reply r) (reply t));
        map2
          (fun format body -> Serve.Proto.Stats_reply { format; body })
          (oneofl [ Serve.Proto.Prometheus; Serve.Proto.Json ])
          body;
        map (fun body -> Serve.Proto.Events_reply { body }) body;
        map (fun body -> Serve.Proto.Health_reply { body }) body;
        map (fun body -> Serve.Proto.Explain_reply { body }) body;
        session_reply ~resolved:false;
        session_reply ~resolved:true;
        map (fun body -> Serve.Proto.Profile_reply { body }) body;
        map (fun msg -> Serve.Proto.Error msg) text;
      ]
    >>= shuffle_l
  in
  (incomings, responses)

let prop_wire_roundtrip =
  let incomings, responses = wire_gens in
  let split = QCheck.Gen.float_bound_inclusive 1.0 in
  QCheck.Test.make ~name:"round-trip every frame kind" ~count:150
    (QCheck.make
       ~print:(fun (ins, outs, _, _) ->
         String.concat "" (List.map Serve.Proto.incoming_to_string ins)
         ^ String.concat "" (List.map Serve.Proto.response_to_string outs))
       QCheck.Gen.(quad incomings responses split split))
    (fun (ins, outs, cut_in, cut_out) ->
      let check encode of_frame channel frames cut =
        let text = String.concat "" (List.map encode frames) in
        let k = int_of_float (cut *. float_of_int (String.length text)) in
        let chunks = [ String.sub text 0 k; String.sub text k (String.length text - k) ] in
        let expect = List.map Result.ok frames in
        incremental_decode of_frame chunks = expect && channel text = expect
      in
      check Serve.Proto.incoming_to_string Serve.Proto.incoming_of_frame
        channel_incomings ins cut_in
      && check Serve.Proto.response_to_string Serve.Proto.response_of_frame
           channel_responses outs cut_out)

(* Any mutation of a valid frame decodes to [Ok] or [Error] without
   raising, and a valid frame written after it still decodes, on both
   read paths. A mutation truncates or replaces a token of one line, or
   drops, duplicates or blanks one body line. The [end] terminator is
   left alone, and so are the header's presence and position: losing
   either merges the frame with the next one, which is the framing's
   contract rather than a decode fault. *)
let mutation_gen frames =
  let open QCheck.Gen in
  let tokens =
    [ ""; "x"; "-1"; "0"; "1"; "inf"; "nan"; "1e999"; "0x1f"; "1_0";
      "99999999999999999999"; "instance"; "payload"; "status"; "op"; "id";
      "job"; "jobs"; "trace"; "a/b"; "size=-1"; "class=x"; "ptimes=,";
      "eligible=2"; "key"; "=" ]
  in
  pair (frames >>= oneofl) (frames >>= oneofl) >>= fun (victim, valid) ->
  int_bound 1_000_000 >>= fun r1 ->
  int_bound 1_000_000 >>= fun r2 ->
  oneofl tokens >>= fun replacement ->
  int_bound 4 >>= fun kind -> return (victim, valid, r1, r2, replacement, kind)

let mutate text r1 r2 replacement kind =
  let lines =
    match List.rev (String.split_on_char '\n' text) with
    | "" :: "end" :: rev_body -> List.rev rev_body
    | _ -> invalid_arg "mutate: not an encoded frame"
  in
  let n = List.length lines in
  let i = if kind >= 2 && n > 1 then 1 + (r1 mod (n - 1)) else r1 mod n in
  let edit_token f line =
    let words = Array.of_list (String.split_on_char ' ' line) in
    let j = r2 mod Array.length words in
    words.(j) <- f words.(j);
    String.concat " " (Array.to_list words)
  in
  let mutated =
    List.concat
      (List.mapi
         (fun k line ->
           if k <> i then [ line ]
           else
             match kind with
             | 0 -> [ edit_token (fun w -> String.sub w 0 (r2 mod (String.length w + 1))) line ]
             | 1 -> [ edit_token (fun _ -> replacement) line ]
             | 2 when i > 0 -> []
             | 3 -> [ line; line ]
             | _ when i > 0 -> [ "" ]
             | _ -> [ line ])
         lines)
  in
  String.concat "" (List.map (fun l -> l ^ "\n") (mutated @ [ "end" ]))

let prop_wire_mutations =
  let incomings, responses = wire_gens in
  let check encode of_frame channel (victim, valid, r1, r2, replacement, kind) =
    let bad = mutate (encode victim) r1 r2 replacement kind in
    let text = bad ^ encode valid in
    let last = function
      | [] -> None
      | rs -> Some (List.nth rs (List.length rs - 1))
    in
    match
      ( last (incremental_decode of_frame [ text ]),
        last (channel text) )
    with
    | exception e ->
        QCheck.Test.fail_reportf "decoding %S raised %s" bad (Printexc.to_string e)
    | Some (Ok a), Some (Ok b) -> encode a = encode valid && encode b = encode valid
    | _ -> QCheck.Test.fail_reportf "the valid frame after %S did not decode" bad
  in
  QCheck.Test.make ~name:"mutated frames decode without raising" ~count:2000
    (QCheck.make
       ~print:(fun ((v, _, r1, r2, rep, kind), _) ->
         Printf.sprintf "%S r1=%d r2=%d replacement=%S kind=%d"
           (Serve.Proto.incoming_to_string v) r1 r2 rep kind)
       QCheck.Gen.(pair (mutation_gen incomings) (mutation_gen responses)))
    (fun (inc, resp) ->
      check Serve.Proto.incoming_to_string Serve.Proto.incoming_of_frame
        channel_incomings inc
      && check Serve.Proto.response_to_string Serve.Proto.response_of_frame
           channel_responses resp)

(* --- generational prehash ------------------------------------------------- *)

let test_server_prehash_rotation () =
  (* prehash_cap 4 → generations of 2: the filter must retain the most
     recent half across a rotation instead of forgetting everything *)
  let server =
    Serve.Server.create
      {
        Serve.Server.default_config with
        cache_capacity = 64;
        jobs = 2;
        prehash_cap = 4;
      }
  in
  Fun.protect ~finally:(fun () -> Serve.Server.shutdown server) @@ fun () ->
  let r = rng 43 in
  let mk n = Workloads.Gen.identical (rng (100 + n)) ~n:(4 + n) ~m:2 ~k:2 () in
  let ask inst =
    match
      Serve.Server.handle_request server
        {
          Serve.Proto.solver = Some "exact";
          deadline_ms = None;
          instance = inst;
          trace = None;
        }
    with
    | Serve.Proto.Reply rep -> rep
    | Serve.Proto.Error msg -> Alcotest.fail msg
    | _ -> Alcotest.fail "unexpected admin reply"
  in
  let rot0 = counter "serve.canon.prehash_rotations" in
  let i1 = mk 1 and i2 = mk 2 and i3 = mk 3 in
  let i4 = mk 4 and i5 = mk 5 in
  ignore (ask i1);
  ignore (ask i2);
  (* current generation full: the next distinct fingerprint rotates *)
  ignore (ask i3);
  Alcotest.(check int) "one rotation" (rot0 + 1)
    (counter "serve.canon.prehash_rotations");
  (* i2 now lives in the previous generation — a relabeling still hits *)
  Alcotest.(check bool) "previous generation hits" true
    (ask (Serve.Canon.shuffle r i2)).Serve.Proto.cache_hit;
  ignore (ask i4);
  ignore (ask i5);
  Alcotest.(check int) "two rotations" (rot0 + 2)
    (counter "serve.canon.prehash_rotations");
  (* after two rotations the recent half survives, the oldest does not *)
  Alcotest.(check bool) "recent half survives" true
    (ask (Serve.Canon.shuffle r i3)).Serve.Proto.cache_hit;
  Alcotest.(check bool) "evicted fingerprint re-solves" false
    (ask (Serve.Canon.shuffle r i1)).Serve.Proto.cache_hit

(* --- shard router --------------------------------------------------------- *)

let test_router_ring () =
  let keys = List.init 2048 (fun i -> Printf.sprintf "key-%d" i) in
  let ring = Serve.Router.Ring.make 4 in
  let again = Serve.Router.Ring.make 4 in
  let counts = Array.make 4 0 in
  List.iter
    (fun k ->
      let s = Serve.Router.Ring.shard ring k in
      Alcotest.(check int) "deterministic" s (Serve.Router.Ring.shard again k);
      Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
      counts.(s) <- counts.(s) + 1)
    keys;
  Array.iteri
    (fun i c ->
      if c * 16 < List.length keys then
        Alcotest.failf "backend %d owns only %d of %d keys" i c
          (List.length keys))
    counts;
  (* removing the last backend must not remap keys the others own: the
     surviving backends' ring points are identical in both rings *)
  let smaller = Serve.Router.Ring.make 3 in
  List.iter
    (fun k ->
      let s = Serve.Router.Ring.shard ring k in
      if s < 3 then
        Alcotest.(check int) "surviving arcs stable" s
          (Serve.Router.Ring.shard smaller k))
    keys;
  (* and the lost backend's share is roughly a quarter, not the world *)
  Alcotest.(check bool) "lost share is bounded" true
    (counts.(3) * 2 < List.length keys)

let test_router_affinity () =
  let router = Serve.Router.create ~jobs:1 [ "a"; "b"; "c"; "d" ] in
  Fun.protect ~finally:(fun () -> Serve.Router.shutdown router) @@ fun () ->
  let r = rng 17 in
  let inst = Workloads.Gen.uniform r ~n:8 ~m:3 ~k:2 () in
  let solve inst =
    Serve.Proto.Solve
      { Serve.Proto.solver = None; deadline_ms = None; instance = inst; trace = None }
  in
  let s0 = Serve.Router.shard_of_incoming router (solve inst) in
  (* relabelings share Canon.prehash, so they keep their shard (and its
     warm canonical cache) *)
  for _ = 1 to 8 do
    Alcotest.(check int) "relabeling keeps its shard" s0
      (Serve.Router.shard_of_incoming router
         (solve (Serve.Canon.shuffle r inst)))
  done;
  let sess sid =
    Serve.Proto.Session { Serve.Proto.sid; op = Serve.Proto.S_close; trace = None }
  in
  Alcotest.(check int) "session id pins its shard"
    (Serve.Router.shard_of_incoming router (sess "s-1"))
    (Serve.Router.shard_of_incoming router (sess "s-1"));
  Alcotest.(check int) "admin frames go to shard 0" 0
    (Serve.Router.shard_of_incoming router
       (Serve.Proto.Stats Serve.Proto.Prometheus))

(* --- mux event loop ------------------------------------------------------- *)

let mux_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let test_mux_tcp_pipeline () =
  (* pipelined frames on one TCP connection answer in order, through the
     same cache as the stdio loop; a malformed frame gets an
     error reply and the connection survives *)
  let server =
    Serve.Server.create
      { Serve.Server.default_config with cache_capacity = 8; jobs = 1 }
  in
  let mux = Serve.Mux.create server in
  let port =
    match Serve.Mux.add_tcp mux ~host:"127.0.0.1" ~port:0 with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> Alcotest.fail "expected a TCP address"
  in
  let runner = Domain.spawn (fun () -> Serve.Mux.run mux) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Mux.stop mux;
      Domain.join runner;
      Serve.Server.shutdown server)
  @@ fun () ->
  let inst = Workloads.Gen.identical (rng 47) ~n:6 ~m:2 ~k:2 () in
  let fd, ic, oc = mux_connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* write the whole burst before reading anything *)
  for i = 1 to 3 do
    Serve.Proto.write_request oc
      {
        Serve.Proto.solver = Some "exact";
        deadline_ms = None;
        instance = inst;
        trace = Some { Serve.Proto.tid = Printf.sprintf "mx.%d" i; parent = None };
      }
  done;
  output_string oc "banana v9\nend\n";
  Serve.Proto.write_incoming oc (Serve.Proto.Stats Serve.Proto.Prometheus);
  let replies =
    List.init 3 (fun _ ->
        match Serve.Proto.read_response ic with
        | Ok (Some (Serve.Proto.Reply r)) -> r
        | Ok (Some (Serve.Proto.Error msg)) -> Alcotest.fail msg
        | _ -> Alcotest.fail "expected a solve reply")
  in
  List.iteri
    (fun i (r : Serve.Proto.reply) ->
      Alcotest.(check (option string)) "replies arrive in request order"
        (Some (Printf.sprintf "mx.%d" (i + 1)))
        r.Serve.Proto.trace;
      Alcotest.(check bool) "cache behaves like the blocking path" (i > 0)
        r.Serve.Proto.cache_hit)
    replies;
  (match Serve.Proto.read_response ic with
  | Ok (Some (Serve.Proto.Error msg)) ->
      Alcotest.(check bool) "bad header is answered in sequence" true
        (Astring.String.is_infix ~affix:"banana" msg)
  | _ -> Alcotest.fail "expected an error reply for the bad frame");
  match Serve.Proto.read_response ic with
  | Ok (Some (Serve.Proto.Stats_reply { body; _ })) ->
      Alcotest.(check bool) "admin frame still answered inline" true
        (Astring.String.is_infix ~affix:"serve_requests" body)
  | _ -> Alcotest.fail "expected a stats reply after the error"

let wait_until what cond =
  let deadline = Unix.gettimeofday () +. 30.0 in
  while not (cond ()) do
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what;
    Unix.sleepf 0.001
  done

(* A mux on loopback over a pool with one worker, parked before [f] runs,
   so every frame [f] pipelines is admitted or shed before any solve can
   finish. [f] gets a connection's input and output channels and the
   function that releases the worker. *)
let with_parked_mux ~max_pending f =
  let server =
    Serve.Server.create
      { Serve.Server.default_config with cache_capacity = 8; jobs = 2 }
  in
  let mux =
    Serve.Mux.create ~config:{ Serve.Mux.default_config with max_pending } server
  in
  let port =
    match Serve.Mux.add_tcp mux ~host:"127.0.0.1" ~port:0 with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> Alcotest.fail "expected a TCP address"
  in
  let runner = Domain.spawn (fun () -> Serve.Mux.run mux) in
  let parked = Atomic.make false and release = Atomic.make false in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Serve.Mux.stop mux;
      Domain.join runner;
      Serve.Server.shutdown server)
  @@ fun () ->
  Parallel.Pool.submit (Serve.Server.service server).Serve.Server.pool (fun () ->
      Atomic.set parked true;
      while not (Atomic.get release) do
        Unix.sleepf 0.001
      done);
  wait_until "the worker to park" (fun () -> Atomic.get parked);
  let fd, ic, oc = mux_connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () -> f ic oc (fun () -> Atomic.set release true)

(* How far each mux admission outcome has moved since this call. *)
let admission_ledger () =
  let admission = Obs.Labeled.family "serve.mux.admission" ~label:"outcome" in
  let outcome name = Obs.Labeled.value (Obs.Labeled.cell admission name) in
  let before =
    List.map
      (fun o -> (o, outcome o))
      [ "admitted"; "shed_queue_full"; "shed_pressure"; "shed_deadline" ]
  in
  fun o -> outcome o - List.assoc o before

(* Pipeline [n] exact solves of [inst] with trace ids [<tag>.1] …
   [<tag>.n] and a health frame behind them. The loop answers the
   health frame inline only after it has admitted every solve before it
   and answered every shed one, so [release] runs once every admission
   decision is made. Then the replies are read in order: the numbers of
   degraded and of full solve replies. *)
let pipeline_solves ?deadline_ms oc ic ~tag ~release inst n =
  let checks0 = counter "health.checks" in
  for i = 1 to n do
    Serve.Proto.write_request oc
      {
        Serve.Proto.solver = Some "exact";
        deadline_ms;
        instance = inst;
        trace = Some { Serve.Proto.tid = Printf.sprintf "%s.%d" tag i; parent = None };
      }
  done;
  Serve.Proto.write_incoming oc Serve.Proto.Health;
  wait_until "the loop to read every frame" (fun () ->
      counter "health.checks" > checks0);
  release ();
  let degraded = ref 0 and served = ref 0 in
  for i = 1 to n do
    match Serve.Proto.read_response ic with
    | Ok (Some (Serve.Proto.Reply r)) ->
        Alcotest.(check (option string)) "in order"
          (Some (Printf.sprintf "%s.%d" tag i))
          r.Serve.Proto.trace;
        if r.Serve.Proto.degraded then incr degraded else incr served
    | Ok (Some (Serve.Proto.Error msg)) -> Alcotest.fail msg
    | _ -> Alcotest.fail "expected a solve reply"
  done;
  (match Serve.Proto.read_response ic with
  | Ok (Some (Serve.Proto.Health_reply _)) -> ()
  | _ -> Alcotest.fail "expected the health reply last");
  (!degraded, !served)

let test_mux_sheds_under_overload () =
  (* one pool worker, a queue of 2. The worker is parked before the
     burst, so the loop admits and sheds all 7 pipelined frames before
     any solve can finish: 3 admitted (one for the worker, two
     queued behind it), 4 shed with degraded replies. Released, the
     worker solves the first frame and the queued two hit the cache it
     filled. Every frame gets exactly one in-order answer. *)
  with_parked_mux ~max_pending:2 @@ fun ic oc release ->
  let moved = admission_ledger () in
  let inst = Workloads.Gen.uniform (rng 53) ~n:12 ~m:4 ~k:3 () in
  let n = 7 in
  let degraded, served = pipeline_solves oc ic ~tag:"ov" ~release inst n in
  Alcotest.(check int) "every frame answered" n (degraded + served);
  Alcotest.(check int) "admitted: one for the worker, two queued" 3
    (moved "admitted");
  Alcotest.(check int) "shed: the queue was full" 4 (moved "shed_queue_full");
  Alcotest.(check int) "no other shed" 0
    (moved "shed_pressure" + moved "shed_deadline");
  Alcotest.(check int) "overload sheds degraded replies" 4 degraded;
  Alcotest.(check int) "admitted frames get full answers" 3 served

let test_mux_deadline_from_admission () =
  (* one pool worker, parked: three admitted solves with a 20 ms budget
     wait 60 ms in the pool's queue. A frame's budget counts from its
     admission to the start of its worker, so the worker sheds each one
     it reaches, the first included, and every reply is degraded *)
  with_parked_mux ~max_pending:4 @@ fun ic oc release ->
  let moved = admission_ledger () in
  let inst = Workloads.Gen.uniform (rng 61) ~n:12 ~m:4 ~k:3 () in
  let n = 3 in
  let degraded, _ =
    pipeline_solves ~deadline_ms:20.0 oc ic ~tag:"dl" inst n ~release:(fun () ->
        Unix.sleepf 0.06;
        release ())
  in
  Alcotest.(check int) "every frame admitted" n (moved "admitted");
  Alcotest.(check int) "every frame out-waited its deadline" n
    (moved "shed_deadline");
  Alcotest.(check int) "every reply degraded" n degraded

let test_mux_admission_bound () =
  (* one pool worker, parked, and a queue of 32: the pool's queue holds
     the backlog, and the mux alone bounds it. The first frame waits
     for the worker and 26 queue behind it; at 26 of 32 the mux.queue
     meter degrades the process, admission halves to 16, and the last 6
     frames are shed under pressure before the queue is full *)
  with_parked_mux ~max_pending:32 @@ fun ic oc release ->
  let moved = admission_ledger () in
  let inst = Workloads.Gen.uniform (rng 67) ~n:12 ~m:4 ~k:3 () in
  let n = 33 in
  let degraded, served = pipeline_solves oc ic ~tag:"ab" ~release inst n in
  Alcotest.(check int) "admitted" 27 (moved "admitted");
  Alcotest.(check int) "shed under pressure" 6 (moved "shed_pressure");
  Alcotest.(check int) "never shed for a full queue" 0 (moved "shed_queue_full");
  Alcotest.(check int) "no deadline shed" 0 (moved "shed_deadline");
  Alcotest.(check int) "shed frames get degraded replies" 6 degraded;
  Alcotest.(check int) "admitted frames get full answers" 27 served

let test_mux_session_order () =
  (* one pool worker, a queue of 1, the worker parked: a session
     lifecycle pipelined on one connection must still run in arrival
     order. Unordered, create waits for the worker, add-jobs fills the
     queue and the first resolve is shed inline on the loop — ahead of
     the create it depends on. *)
  with_parked_mux ~max_pending:1 @@ fun ic oc release ->
  let checks0 = counter "health.checks" in
  let m = 3 in
  let inst = Workloads.Gen.uniform (rng 59) ~n:8 ~m ~k:2 () in
  let job = { Core.Instance.nsize = 3.0; nclass = 0; nptimes = None; neligible = None } in
  let resolve = Serve.Proto.S_resolve { deadline_ms = None } in
  List.iter
    (fun op -> Serve.Proto.write_session_request oc { sid = "ord"; op; trace = None })
    Serve.Proto.
      [ S_create inst; S_add_jobs [ job ]; resolve; S_drop_jobs [ 0 ]; resolve; S_close ];
  Serve.Proto.write_incoming oc Serve.Proto.Health;
  (* the health frame is answered inline once the loop has read it, and
     so every session frame before it *)
  wait_until "the loop to read every frame" (fun () ->
      counter "health.checks" > checks0);
  release ();
  List.iter
    (fun (op, generation, jobs) ->
      match Serve.Proto.read_response ic with
      | Ok (Some (Serve.Proto.Session_reply r)) ->
          Alcotest.(check string) "op" op r.Serve.Proto.op;
          Alcotest.(check int) (op ^ " generation") generation r.Serve.Proto.generation;
          Alcotest.(check int) (op ^ " jobs") jobs r.Serve.Proto.jobs;
          (match r.Serve.Proto.solve with
          | Some s ->
              Alcotest.(check int) "every job scheduled" jobs
                (Array.length s.Serve.Proto.assignment);
              Array.iter
                (fun i -> Alcotest.(check bool) "a machine" true (i >= 0 && i < m))
                s.Serve.Proto.assignment
          | None -> Alcotest.(check bool) (op ^ " carries no schedule") false (op = "resolve"))
      | Ok (Some (Serve.Proto.Error msg)) -> Alcotest.failf "%s: %s" op msg
      | _ -> Alcotest.failf "%s: expected a session reply" op)
    [
      ("create", 0, 8);
      ("add-jobs", 1, 9);
      ("resolve", 1, 9);
      ("drop-jobs", 2, 8);
      ("resolve", 2, 8);
      ("close", 2, 8);
    ];
  match Serve.Proto.read_response ic with
  | Ok (Some (Serve.Proto.Health_reply _)) -> ()
  | _ -> Alcotest.fail "expected the health reply last"

(* --- router on the mux ------------------------------------------------------ *)

let temp_sock name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "serve_%s_%d.sock" name (Unix.getpid ()))

(* Run [mux] on its own domain; the result stops and joins it. *)
let start_mux mux =
  let runner = Domain.spawn (fun () -> Serve.Mux.run mux) in
  fun () ->
    Serve.Mux.stop mux;
    Domain.join runner

(* An in-process backend: a one-domain server (every frame answered on
   its loop, in arrival order) on a mux listening at [path]. *)
let with_backend path f =
  let server =
    Serve.Server.create
      { Serve.Server.default_config with cache_capacity = 16; jobs = 1 }
  in
  let mux = Serve.Mux.create server in
  Serve.Mux.add_unix mux ~path;
  let stop = start_mux mux in
  Fun.protect
    ~finally:(fun () ->
      stop ();
      Serve.Server.shutdown server)
    f

(* A router mux over [backends] on a loopback port. *)
let with_router ?jobs backends f =
  (* a backend that vanishes must cost an error reply, not the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let router = Serve.Router.create ?jobs backends in
  let mux = Serve.Mux.of_service (Serve.Router.service router) in
  let port =
    match Serve.Mux.add_tcp mux ~host:"127.0.0.1" ~port:0 with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> Alcotest.fail "expected a TCP address"
  in
  let stop = start_mux mux in
  Fun.protect
    ~finally:(fun () ->
      stop ();
      Serve.Router.shutdown router)
  @@ fun () ->
  let fd, ic, oc = mux_connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () -> f router port (ic, oc)

let solve_frame ?tid inst =
  Serve.Proto.Solve
    {
      Serve.Proto.solver = None;
      deadline_ms = None;
      instance = inst;
      trace = Option.map (fun tid -> { Serve.Proto.tid; parent = None }) tid;
    }

(* The first generated instance that the router sends to [shard]. *)
let instance_on router shard ~seed =
  let rec go seed =
    let inst = Workloads.Gen.uniform (rng seed) ~n:8 ~m:3 ~k:2 () in
    if Serve.Router.shard_of_incoming router (solve_frame inst) = shard then inst
    else go (seed + 1)
  in
  go seed

let read_reply ic =
  match Serve.Proto.read_response ic with
  | Ok (Some (Serve.Proto.Reply r)) -> r
  | Ok (Some (Serve.Proto.Error msg)) -> Alcotest.fail msg
  | _ -> Alcotest.fail "expected a solve reply"

let forwarded backend =
  Obs.Labeled.value
    (Obs.Labeled.cell
       (Obs.Labeled.family "serve.router.forwarded" ~label:"backend")
       (string_of_int backend))

let test_router_pipelined_solves () =
  (* each instance is solved once on its shard; a pipelined burst of
     relabelings on one connection, forwarded concurrently by three
     workers, answers in order and every reply comes from the cache of
     the shard that solved the original *)
  let b0 = temp_sock "rt_b0" and b1 = temp_sock "rt_b1" in
  with_backend b0 @@ fun () ->
  with_backend b1 @@ fun () ->
  with_router [ b0; b1 ] @@ fun router _port (ic, oc) ->
  let insts = [| instance_on router 0 ~seed:100; instance_on router 1 ~seed:100 |] in
  let fwd0 = Array.map forwarded [| 0; 1 |] in
  Array.iter
    (fun inst ->
      Serve.Proto.write_incoming oc (solve_frame inst);
      Alcotest.(check bool) "the original misses" false
        (read_reply ic).Serve.Proto.cache_hit)
    insts;
  let r = rng 7 in
  let n = 8 in
  for i = 1 to n do
    Serve.Proto.write_incoming oc
      (solve_frame
         ~tid:(Printf.sprintf "rt.%d" i)
         (Serve.Canon.shuffle r insts.(i mod 2)))
  done;
  for i = 1 to n do
    let reply = read_reply ic in
    Alcotest.(check (option string)) "replies arrive in request order"
      (Some (Printf.sprintf "rt.%d" i))
      reply.Serve.Proto.trace;
    Alcotest.(check bool) "a relabeling hits its shard's cache" true
      reply.Serve.Proto.cache_hit
  done;
  Array.iteri
    (fun b before ->
      Alcotest.(check int)
        (Printf.sprintf "backend %d forwarded its share" b)
        (1 + (n / 2))
        (forwarded b - before))
    fwd0

let test_router_answers_admin () =
  (* stats, events and health frames are about the router process: it
     answers them itself, with backend 0 not even listening, and its
     exposition counts the solves it forwarded *)
  let b0 = temp_sock "ra_b0" and b1 = temp_sock "ra_b1" in
  with_backend b1 @@ fun () ->
  with_router [ b0; b1 ] @@ fun router _port (ic, oc) ->
  let sum_forwarded () = forwarded 0 + forwarded 1 in
  let before = sum_forwarded () in
  let inst = instance_on router 1 ~seed:300 in
  let r = rng 11 in
  for _ = 1 to 5 do
    Serve.Proto.write_incoming oc (solve_frame (Serve.Canon.shuffle r inst));
    ignore (read_reply ic)
  done;
  Serve.Proto.write_incoming oc (Serve.Proto.Stats Serve.Proto.Prometheus);
  let body =
    match Serve.Proto.read_response ic with
    | Ok (Some (Serve.Proto.Stats_reply { body; _ })) -> body
    | Ok (Some (Serve.Proto.Error msg)) -> Alcotest.fail msg
    | _ -> Alcotest.fail "expected a stats reply"
  in
  let exposed =
    List.fold_left
      (fun acc line ->
        if String.starts_with ~prefix:"serve_router_forwarded{" line then
          acc + int_of_string (List.nth (String.split_on_char ' ' line) 1)
        else acc)
      0
      (String.split_on_char '\n' body)
  in
  Alcotest.(check int) "the router's own cells count the 5 forwards"
    (before + 5) exposed;
  Alcotest.(check int) "the stats frame was not forwarded" (before + 5)
    (sum_forwarded ());
  Serve.Proto.write_incoming oc Serve.Proto.Health;
  (match Serve.Proto.read_response ic with
  | Ok (Some (Serve.Proto.Health_reply { body })) ->
      Alcotest.(check bool) "the router reports its own uptime" true
        (Astring.String.is_infix ~affix:"uptime_s" body)
  | _ -> Alcotest.fail "expected a health reply");
  Serve.Proto.write_incoming oc
    (Serve.Proto.Events { count = Some 1; min_level = Obs.Event.Debug });
  match Serve.Proto.read_response ic with
  | Ok (Some (Serve.Proto.Events_reply _)) -> ()
  | _ -> Alcotest.fail "expected an events reply"

let test_router_session_pipeline () =
  (* two session lifecycles interleaved with a solve, all written before
     any reply is read: the router forwards one connection's session
     frames one at a time, so no frame overtakes the create it needs *)
  let b0 = temp_sock "rs_b0" and b1 = temp_sock "rs_b1" in
  with_backend b0 @@ fun () ->
  with_backend b1 @@ fun () ->
  with_router [ b0; b1 ] @@ fun router _port (ic, oc) ->
  let sid_on shard =
    let rec go i =
      let sid = Printf.sprintf "rs-%d" i in
      let frame =
        Serve.Proto.Session { Serve.Proto.sid; op = Serve.Proto.S_close; trace = None }
      in
      if Serve.Router.shard_of_incoming router frame = shard then sid else go (i + 1)
    in
    go 0
  in
  let s0 = sid_on 0 and s1 = sid_on 1 in
  let inst = Workloads.Gen.uniform (rng 61) ~n:8 ~m:3 ~k:2 () in
  let job = { Core.Instance.nsize = 3.0; nclass = 0; nptimes = None; neligible = None } in
  let resolve = Serve.Proto.S_resolve { deadline_ms = None } in
  let frames =
    Serve.Proto.
      [
        (s0, S_create inst); (s1, S_create inst); (s0, S_add_jobs [ job ]);
        (s1, resolve); (s0, resolve); (s1, S_drop_jobs [ 0 ]); (s0, S_close);
        (s1, resolve); (s1, S_close);
      ]
  in
  List.iteri
    (fun i (sid, op) ->
      if i = 3 then Serve.Proto.write_incoming oc (solve_frame ~tid:"rs.solve" inst);
      Serve.Proto.write_session_request oc { sid; op; trace = None })
    frames;
  List.iteri
    (fun i (sid, _) ->
      if i = 3 then
        Alcotest.(check (option string)) "the solve answers in its place"
          (Some "rs.solve") (read_reply ic).Serve.Proto.trace;
      match Serve.Proto.read_response ic with
      | Ok (Some (Serve.Proto.Session_reply r)) ->
          Alcotest.(check string) "the reply is for its session" sid r.Serve.Proto.sid
      | Ok (Some (Serve.Proto.Error msg)) -> Alcotest.failf "%s: %s" sid msg
      | _ -> Alcotest.failf "%s: expected a session reply" sid)
    frames

let test_router_held_client () =
  (* one forwarding worker (pool of 2) and a client parked mid-frame:
     the loop, not a worker, holds the partial frame, so another
     client's stats frame is still forwarded and answered. The wait is
     bounded so a stalled router fails the test instead of hanging it. *)
  let b0 = temp_sock "rh_b0" in
  with_backend b0 @@ fun () ->
  with_router ~jobs:2 [ b0 ] @@ fun _router port (_ic, oc) ->
  output_string oc "request v1\n";
  flush oc;
  let fd, ic2, oc2 = mux_connect port in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Serve.Proto.write_incoming oc2 (Serve.Proto.Stats Serve.Proto.Prometheus);
  (match Unix.select [ fd ] [] [] 10.0 with
  | [], _, _ -> Alcotest.fail "no stats reply within 10 s"
  | _ -> ());
  match Serve.Proto.read_response ic2 with
  | Ok (Some (Serve.Proto.Stats_reply { body; _ })) ->
      Alcotest.(check bool) "backend 0's exposition" true
        (Astring.String.is_infix ~affix:"serve_requests" body)
  | _ -> Alcotest.fail "expected a stats reply"

let test_router_backend_failure () =
  (* one live backend and one path nobody listens on: frames for the
     dead shard get an error reply naming it, the same connection keeps
     being served for the live shard, each failed forward counts once,
     once a server starts on the dead path the router dials it, and
     when that server is restarted the next frame still gets through *)
  let live = temp_sock "rf_live" and dead = temp_sock "rf_dead" in
  (try Sys.remove dead with Sys_error _ -> ());
  with_backend live @@ fun () ->
  with_router [ live; dead ] @@ fun router _port (ic, oc) ->
  let on_live = instance_on router 0 ~seed:200
  and on_dead = instance_on router 1 ~seed:200 in
  let errors0 = counter "serve.router.backend_errors" in
  let expected = Printf.sprintf "backend %s: cannot connect to %s: " dead dead in
  List.iter
    (fun inst -> Serve.Proto.write_incoming oc (solve_frame inst))
    [ on_dead; on_live; on_dead; on_live; on_dead ];
  List.iter
    (fun to_live ->
      match Serve.Proto.read_response ic with
      | Ok (Some (Serve.Proto.Reply _)) when to_live -> ()
      | Ok (Some (Serve.Proto.Error msg)) when not to_live ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names the dead backend" msg)
            true
            (Astring.String.is_prefix ~affix:expected msg)
      | other ->
          Alcotest.failf "expected %s, got %s"
            (if to_live then "a reply from the live backend"
             else "an error reply for the dead backend")
            (match other with
            | Ok (Some r) -> Serve.Proto.response_to_string r
            | Ok None -> "end of stream"
            | Error msg -> msg))
    [ false; true; false; true; false ];
  Alcotest.(check int) "one error per failed forward" 3
    (counter "serve.router.backend_errors" - errors0);
  let forward_to_dead () =
    with_backend dead @@ fun () ->
    Serve.Proto.write_incoming oc (solve_frame on_dead);
    ignore (read_reply ic)
  in
  forward_to_dead ();
  (* restarted: the router's idle connection to the stopped process is
     dropped, not used *)
  forward_to_dead ();
  Alcotest.(check int) "the revived, then restarted backend is reached" 3
    (counter "serve.router.backend_errors" - errors0)

(* --- client: the reply check and its drivers -------------------------------- *)

let client_inst () = Workloads.Gen.uniform (rng 5) ~n:10 ~m:3 ~k:3 ()

(* A solve reply carrying [assignment], stating [makespan]. *)
let reply_of ~makespan assignment =
  Serve.Proto.Reply
    {
      Serve.Proto.solver = "test";
      cache_hit = false;
      degraded = false;
      makespan;
      elapsed_us = 0;
      assignment;
      trace = None;
    }

(* A valid assignment of [inst] and its exact makespan. *)
let valid_assignment inst =
  let s = (Algos.List_scheduling.schedule inst).Algos.Common.schedule in
  (Core.Schedule.assignment s, Core.Schedule.makespan s)

let passes = function Ok _ -> true | Error _ -> false

let test_client_check_schedules () =
  let inst = client_inst () in
  let a, exact = valid_assignment inst in
  (* the wire prints makespans with %g, and this one has more digits *)
  let makespan = float_of_string (Printf.sprintf "%g" exact) in
  Alcotest.(check bool) "%g rounding moves this makespan" true (makespan <> exact);
  let check_on inst resp = passes (Serve.Client.check (Serve.Client.Schedule inst) resp) in
  Alcotest.(check bool) "a valid reply, equal after %g rounding, passes" true
    (check_on inst (reply_of ~makespan a));
  Alcotest.(check bool) "a makespan off by more than rounding fails" false
    (check_on inst (reply_of ~makespan:(makespan *. (1.0 +. 1e-4)) a));
  (* an in-process reply states the exact makespan; both sides are
     rounded before the comparison *)
  Alcotest.(check bool) "a valid reply stating the exact makespan passes" true
    (check_on inst (reply_of ~makespan:exact a));
  Alcotest.(check bool) "an exact makespan off by more than rounding fails" false
    (check_on inst (reply_of ~makespan:(exact *. (1.0 +. 1e-4)) a));
  (* the schedule of one labeling read under another: what a server
     that skips the map-back to the requester's labeling sends *)
  let relabeled = Serve.Canon.shuffle (rng 6) inst in
  Alcotest.(check bool) "a wrong permutation fails" false
    (check_on relabeled (reply_of ~makespan a));
  let reason a =
    match Serve.Client.check (Serve.Client.Schedule inst) (reply_of ~makespan a) with
    | Ok _ -> "passed"
    | Error msg -> msg
  in
  Alcotest.(check string) "one entry short fails" "assignment has the wrong length"
    (reason (Array.sub a 0 (Array.length a - 1)));
  Alcotest.(check string) "one entry over fails" "assignment has the wrong length"
    (reason (Array.append a [| 0 |]))

let test_client_error_is_not_invalid () =
  let inst = client_inst () in
  let t = Serve.Client.tally () in
  let frame = solve_frame inst and expect = Serve.Client.Schedule inst in
  Alcotest.(check bool) "an error reply does not pass" true
    (Serve.Client.record t frame expect (Serve.Proto.Error "boom") ~us:1.0 = None);
  Alcotest.(check (pair int int)) "an error reply is an error" (1, 0)
    (t.Serve.Client.errors, t.Serve.Client.invalid);
  ignore
    (Serve.Client.record t frame expect
       (Serve.Proto.Health_reply { body = "" })
       ~us:1.0);
  Alcotest.(check (pair int int)) "a reply of another kind is invalid" (1, 1)
    (t.Serve.Client.errors, t.Serve.Client.invalid);
  Alcotest.(check int) "both were answered" 2 t.Serve.Client.answered

let test_client_check_acks () =
  let ack op jobs =
    Serve.Proto.Session_reply
      { sid = "s"; op; generation = 1; jobs; mode = None; solve = None; trace = None }
  in
  let check expect resp = passes (Serve.Client.check expect resp) in
  let expect = Serve.Client.Ack { op = "add-jobs"; jobs = 9 } in
  Alcotest.(check bool) "the op and job count sent pass" true
    (check expect (ack "add-jobs" 9));
  Alcotest.(check bool) "a wrong op fails" false (check expect (ack "drop-jobs" 9));
  Alcotest.(check bool) "a wrong job count fails" false (check expect (ack "add-jobs" 8))

(* A server on a loopback mux whose worker path may rewrite each reply;
   [f] gets a connection to it. *)
let with_client_mux ?(rewrite = Fun.id) f =
  let server =
    Serve.Server.create
      { Serve.Server.default_config with cache_capacity = 8; jobs = 1 }
  in
  let svc = Serve.Server.service server in
  let mux =
    Serve.Mux.of_service
      { svc with run = (fun ~pressure frame -> rewrite (svc.run ~pressure frame)) }
  in
  let port =
    match Serve.Mux.add_tcp mux ~host:"127.0.0.1" ~port:0 with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> Alcotest.fail "expected a TCP address"
  in
  let stop = start_mux mux in
  Fun.protect
    ~finally:(fun () ->
      stop ();
      Serve.Server.shutdown server)
  @@ fun () ->
  match Serve.Scrape.connect (Printf.sprintf "127.0.0.1:%d" port) with
  | Error msg -> Alcotest.fail msg
  | Ok conn -> Fun.protect ~finally:(fun () -> Serve.Scrape.close conn) (fun () -> f conn)

let test_client_mutant_server () =
  (* a server that answers every solve with its assignment reversed, as
     a map-back through the wrong permutation would: over 20 relabelings
     the closed loop counts invalid replies, and against the same server
     unmutated it counts none *)
  let load =
    {
      Serve.Client.instance = client_inst ();
      permute = true;
      seed = 3;
      solver = None;
      deadline_ms = None;
    }
  in
  let reverse = function
    | Serve.Proto.Reply r ->
        let a = r.Serve.Proto.assignment in
        let n = Array.length a in
        Serve.Proto.Reply
          { r with Serve.Proto.assignment = Array.init n (fun j -> a.(n - 1 - j)) }
    | resp -> resp
  in
  let run ?rewrite () =
    with_client_mux ?rewrite @@ fun conn ->
    Serve.Client.closed_loop load [| conn |] ~count:20
  in
  let mutant = run ~rewrite:reverse () in
  Alcotest.(check bool) "the mutant's replies are counted invalid" true
    (mutant.Serve.Client.invalid > 0);
  Alcotest.(check int) "every mutant reply was answered" 20 mutant.Serve.Client.answered;
  let honest = run () in
  Alcotest.(check int) "no honest reply is invalid" 0 honest.Serve.Client.invalid;
  Alcotest.(check int) "every honest reply passes" 20 honest.Serve.Client.schedules

(* A Unix-socket listener that answers one frame and hangs up; [f] gets
   its path and must connect to it once. *)
let with_one_reply_peer name f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path = temp_sock name in
  let listener = Serve.Scrape.listen (Unix.ADDR_UNIX path) in
  let server =
    Serve.Server.create { Serve.Server.default_config with jobs = 1 }
  in
  let peer =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept listener in
        let ic = Unix.in_channel_of_descr fd
        and oc = Unix.out_channel_of_descr fd in
        (match Serve.Proto.read_incoming ic with
        | Ok (Some frame) ->
            Serve.Proto.write_response oc (Serve.Server.handle_incoming server frame)
        | _ -> ());
        Unix.close fd)
  in
  Fun.protect
    ~finally:(fun () ->
      Domain.join peer;
      Unix.close listener;
      Serve.Server.shutdown server;
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () -> f path

let plain_load () =
  {
    Serve.Client.instance = client_inst ();
    permute = false;
    seed = 1;
    solver = None;
    deadline_ms = None;
  }

let test_client_lost_stream () =
  (* a listener that answers one frame and hangs up: the driver reports
     one answered frame and the transport failure, not an error reply *)
  with_one_reply_peer "client_lost" @@ fun path ->
  let load = plain_load () in
  match Serve.Client.connect_all path 1 with
  | Error msg -> Alcotest.fail msg
  | Ok conns ->
      let t = Serve.Client.closed_loop load conns ~count:3 in
      Array.iter Serve.Scrape.close conns;
      Alcotest.(check int) "one frame answered" 1 t.Serve.Client.answered;
      Alcotest.(check int) "and it passed" 1 t.Serve.Client.schedules;
      Alcotest.(check int) "no error reply" 0 t.Serve.Client.errors;
      Alcotest.(check bool) "the transport failure is reported" true
        (t.Serve.Client.failure <> None)

let test_client_sessions_use_every_connection () =
  (* two sessions over two connections, one live and one to a peer that
     answers a single frame: session s runs on connection (s - 1) mod 2,
     so the first completes its lifecycle and the second loses its
     stream after the create *)
  with_one_reply_peer "client_sessions" @@ fun path ->
  with_client_mux @@ fun live ->
  match Serve.Scrape.connect path with
  | Error msg -> Alcotest.fail msg
  | Ok lost ->
      Fun.protect ~finally:(fun () -> Serve.Scrape.close lost) @@ fun () ->
      let t =
        Serve.Client.sessions (plain_load ()) [| live; lost |] ~sessions:2
          ~mutations:2
      in
      (* create, resolve, two mutations each resolved, close; then the
         second session's create *)
      Alcotest.(check int) "answered" 8 t.Serve.Client.answered;
      Alcotest.(check int) "the live session's resolves passed" 3
        t.Serve.Client.schedules;
      Alcotest.(check (pair int int)) "no error or invalid reply" (0, 0)
        (t.Serve.Client.errors, t.Serve.Client.invalid);
      Alcotest.(check bool) "the lost stream is reported" true
        (t.Serve.Client.failure <> None)

let () =
  Alcotest.run "serve"
    [
      ( "canon",
        [
          Alcotest.test_case "permutation invariance" `Quick
            test_canon_permutation_invariance;
          Alcotest.test_case "idempotent" `Quick test_canon_is_idempotent;
          Alcotest.test_case "schedule mapping" `Quick
            test_canon_schedule_mapping;
          Alcotest.test_case "prehash collides on permutations" `Quick
            test_canon_prehash_collides_on_permutations;
          Alcotest.test_case "prehash store roundtrip" `Quick
            test_canon_prehash_roundtrip_store;
          Alcotest.test_case "tied entities share one key" `Quick
            test_canon_tied_entities;
          Alcotest.test_case "jobs follow their classes" `Quick
            test_canon_jobs_follow_classes;
          Alcotest.test_case "twins do not search" `Quick
            test_canon_twins_do_not_search;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "eviction event and size gauge" `Quick
            test_cache_evict_event;
          Alcotest.test_case "overwrite" `Quick test_cache_overwrite;
          QCheck_alcotest.to_alcotest prop_cache_matches_reference;
          Alcotest.test_case "hits retain nothing" `Quick
            test_cache_hits_retain_nothing;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "exact on small" `Quick test_dispatch_exact_small;
          Alcotest.test_case "deadline degrades" `Quick
            test_dispatch_deadline_degrades;
          Alcotest.test_case "unknown solver" `Quick
            test_dispatch_unknown_solver;
          Alcotest.test_case "lpt inapplicable" `Quick
            test_dispatch_lpt_inapplicable;
          Alcotest.test_case "lpt hint" `Quick test_dispatch_lpt_hint;
          Alcotest.test_case "solver names" `Quick test_dispatch_solver_names;
          Alcotest.test_case "pressure sheds heavy tier" `Quick
            test_dispatch_pressure_sheds;
        ] );
      ( "proto",
        [
          Alcotest.test_case "request roundtrip" `Quick
            test_proto_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick
            test_proto_response_roundtrip;
          Alcotest.test_case "stats frame roundtrip" `Quick
            test_proto_stats_roundtrip;
          Alcotest.test_case "events frame roundtrip" `Quick
            test_proto_events_roundtrip;
          Alcotest.test_case "health frame roundtrip" `Quick
            test_proto_health_roundtrip;
          Alcotest.test_case "malformed resync" `Quick
            test_proto_malformed_resync;
          Alcotest.test_case "trace roundtrip" `Quick
            test_proto_trace_roundtrip;
          Alcotest.test_case "explain roundtrip" `Quick
            test_proto_explain_roundtrip;
          Alcotest.test_case "session frame roundtrip" `Quick
            test_proto_session_roundtrip;
          Alcotest.test_case "session malformed resync" `Quick
            test_proto_session_resync;
          Alcotest.test_case "incremental byte-at-a-time" `Quick
            test_incremental_byte_at_a_time;
          Alcotest.test_case "incremental every split point" `Quick
            test_incremental_every_split;
          Alcotest.test_case "incremental truncation" `Quick
            test_incremental_truncation;
          QCheck_alcotest.to_alcotest prop_wire_roundtrip;
          Alcotest.test_case "golden encode" `Quick test_proto_golden_encode;
          Alcotest.test_case "golden decode" `Quick test_proto_golden_decode;
          QCheck_alcotest.to_alcotest prop_wire_mutations;
        ] );
      ( "server",
        [
          Alcotest.test_case "cache roundtrip" `Quick
            test_server_cache_roundtrip;
          Alcotest.test_case "stats frame" `Quick test_server_stats_frame;
          Alcotest.test_case "events frame" `Quick test_server_events_frame;
          Alcotest.test_case "health frame" `Quick test_server_health_frame;
          Alcotest.test_case "slow-request dump" `Quick test_server_slow_dump;
          Alcotest.test_case "socket session" `Quick test_server_socket_session;
          Alcotest.test_case "trace adoption" `Quick
            test_server_trace_adoption;
          Alcotest.test_case "explain acceptance" `Quick
            test_server_explain_acceptance;
          Alcotest.test_case "events filter" `Quick test_server_events_filter;
          Alcotest.test_case "generational prehash rotation" `Quick
            test_server_prehash_rotation;
        ] );
      ( "mux",
        [
          Alcotest.test_case "tcp pipelining" `Quick test_mux_tcp_pipeline;
          Alcotest.test_case "overload shedding" `Quick
            test_mux_sheds_under_overload;
          Alcotest.test_case "pipelined session order" `Quick
            test_mux_session_order;
          Alcotest.test_case "deadline counts from admission" `Quick
            test_mux_deadline_from_admission;
          Alcotest.test_case "admission bound is the mux's own" `Quick
            test_mux_admission_bound;
        ] );
      ( "router",
        [
          Alcotest.test_case "consistent-hash ring" `Quick test_router_ring;
          Alcotest.test_case "shard affinity" `Quick test_router_affinity;
          Alcotest.test_case "pipelined solves on the mux" `Quick
            test_router_pipelined_solves;
          Alcotest.test_case "pipelined session lifecycles" `Quick
            test_router_session_pipeline;
          Alcotest.test_case "answers its own admin frames" `Quick
            test_router_answers_admin;
          Alcotest.test_case "held client does not stall others" `Quick
            test_router_held_client;
          Alcotest.test_case "backend failure and re-dial" `Quick
            test_router_backend_failure;
        ] );
      ( "client",
        [
          Alcotest.test_case "check schedules" `Quick test_client_check_schedules;
          Alcotest.test_case "error reply is not invalid" `Quick
            test_client_error_is_not_invalid;
          Alcotest.test_case "check session acks" `Quick test_client_check_acks;
          Alcotest.test_case "mutant server is caught" `Quick
            test_client_mutant_server;
          Alcotest.test_case "lost stream after one reply" `Quick
            test_client_lost_stream;
          Alcotest.test_case "sessions use every connection" `Quick
            test_client_sessions_use_every_connection;
        ] );
      ( "session",
        [
          Alcotest.test_case "lifecycle" `Quick test_session_lifecycle;
          Alcotest.test_case "errors" `Quick test_session_errors;
          Alcotest.test_case "idle eviction" `Quick
            test_session_idle_eviction;
        ] );
    ]
