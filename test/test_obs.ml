(* Tests for the obs observability layer: counters under domain
   parallelism, span nesting/merge invariants, Chrome-trace golden
   checks, and the pool's rejected-submission counter. *)

module C = Obs.Counter
module P = Parallel.Pool

(* Every span test starts from an empty phase ring with tracing off. *)
let with_clean_sink f =
  Obs.Phase.clear ();
  Obs.Sink.disable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Sink.disable ();
      Obs.Phase.clear ())
    f

let recorded () = List.length (Obs.Phase.snapshot ())

(* (name, ph) of every event in the rendered Chrome trace, in order *)
let trace_events text =
  let re =
    Str.regexp
      "\"name\":\"\\([^\"]*\\)\",\"cat\":\"obs\",\"ph\":\"\\([BE]\\)\""
  in
  let rec go pos acc =
    match Str.search_forward re text pos with
    | exception Not_found -> List.rev acc
    | _ ->
        go (Str.match_end ())
          ((Str.matched_group 1 text, Str.matched_group 2 text) :: acc)
  in
  go 0 []

let test_counter_basics () =
  let c = C.make "test.basics" in
  let c' = C.make "test.basics" in
  C.reset c;
  C.incr c;
  C.add c' 41;
  Alcotest.(check int) "interned by name" 42 (C.value c);
  Alcotest.(check string) "name" "test.basics" (C.name c);
  Alcotest.(check bool) "find" true (C.find "test.basics" <> None);
  Alcotest.(check bool) "find unknown" true (C.find "test.nope" = None);
  C.reset c;
  Alcotest.(check int) "reset" 0 (C.value c)

let test_counter_delta () =
  let c = C.make "test.delta" in
  C.reset c;
  let before = C.snapshot () in
  C.add c 7;
  let moved = C.delta ~before ~after:(C.snapshot ()) in
  Alcotest.(check (list (pair string int)))
    "only the moved counter" [ ("test.delta", 7) ]
    (List.filter (fun (n, _) -> n = "test.delta") moved);
  Alcotest.(check bool) "unmoved counters absent" true
    (not (List.exists (fun (n, _) -> n = "test.basics") moved))

let test_counter_hammer () =
  (* 4 domains x 64 tasks x 1000 increments: no lost updates. *)
  let c = C.make "test.hammer" in
  C.reset c;
  let pool = P.create 4 in
  Fun.protect
    ~finally:(fun () -> P.shutdown pool)
    (fun () ->
      ignore
        (P.run pool
           (List.init 64 (fun _ () ->
                for _ = 1 to 1000 do
                  C.incr c
                done))));
  Alcotest.(check int) "no lost updates" 64_000 (C.value c)

let test_gauge () =
  let g = Obs.Gauge.make "test.gauge" in
  Obs.Gauge.set g 0.75;
  Alcotest.(check (float 1e-9)) "value" 0.75 (Obs.Gauge.value g);
  Alcotest.(check bool) "in snapshot" true
    (List.mem_assoc "test.gauge" (Obs.Gauge.snapshot ()))

let test_span_disabled () =
  with_clean_sink (fun () ->
      let r = Obs.Span.with_span "quiet" (fun () -> 7) in
      Alcotest.(check int) "result" 7 r;
      Alcotest.(check int) "no events recorded" 0 (recorded ()))

let test_timed () =
  with_clean_sink (fun () ->
      let r, secs = Obs.Span.timed "timed" (fun () -> Unix.sleepf 0.01; 5) in
      Alcotest.(check int) "result" 5 r;
      Alcotest.(check bool) "elapsed measured while disabled" true
        (secs >= 0.005);
      Alcotest.(check int) "but nothing recorded" 0 (recorded ()))

let test_span_nesting () =
  with_clean_sink (fun () ->
      Obs.Sink.enable ();
      Obs.Span.with_span "outer" (fun () ->
          Obs.Span.with_span "inner" (fun () -> ());
          Obs.Span.with_span "inner" (fun () -> ()));
      let records = Obs.Phase.snapshot () in
      Alcotest.(check int) "3 spans recorded" 3 (List.length records);
      let names = trace_events (Obs.Trace.to_string ()) in
      Alcotest.(check int) "3 spans = 6 events" 6 (List.length names);
      Alcotest.(check (list (pair string string)))
        "emission order respects nesting"
        [
          ("outer", "B");
          ("inner", "B");
          ("inner", "E");
          ("inner", "B");
          ("inner", "E");
          ("outer", "E");
        ]
        names;
      let summaries = Obs.Span.summarize records in
      let find name =
        List.find (fun (s : Obs.Span.summary) -> s.Obs.Span.name = name)
          summaries
      in
      Alcotest.(check int) "inner count" 2 (find "inner").Obs.Span.count;
      Alcotest.(check int) "outer count" 1 (find "outer").Obs.Span.count;
      Alcotest.(check bool) "outer total >= inner total" true
        ((find "outer").Obs.Span.total_s >= (find "inner").Obs.Span.total_s))

let test_span_raise_still_closes () =
  with_clean_sink (fun () ->
      Obs.Sink.enable ();
      (try Obs.Span.with_span "boom" (fun () -> failwith "x")
       with Failure _ -> ());
      Alcotest.(check (list string)) "one record" [ "boom" ]
        (List.map (fun r -> r.Obs.Phase.name) (Obs.Phase.snapshot ()));
      match trace_events (Obs.Trace.to_string ()) with
      | [ (_, b); (_, e) ] ->
          Alcotest.(check bool) "B then E" true (b = "B" && e = "E")
      | evs ->
          Alcotest.failf "expected exactly B/E, got %d events"
            (List.length evs))

let test_span_merge_across_domains () =
  (* spans recorded on pool workers merge into one timeline, and the pool
     itself contributes a "pool.task" span per task *)
  with_clean_sink (fun () ->
      Obs.Sink.enable ();
      let pool = P.create 4 in
      Fun.protect
        ~finally:(fun () -> P.shutdown pool)
        (fun () ->
          ignore
            (P.run pool
               (List.init 8 (fun i () ->
                    Obs.Span.with_span "work" (fun () -> i * i)))));
      let summaries = Obs.Span.summarize (Obs.Phase.snapshot ()) in
      let count name =
        match
          List.find_opt
            (fun (s : Obs.Span.summary) -> s.Obs.Span.name = name)
            summaries
        with
        | Some s -> s.Obs.Span.count
        | None -> 0
      in
      Alcotest.(check int) "8 user spans" 8 (count "work");
      Alcotest.(check int) "8 pool.task spans" 8 (count "pool.task");
      (* busy accounting saw every task too *)
      let busy = P.domain_busy_s pool in
      Alcotest.(check bool) "busy time recorded" true
        (Array.fold_left ( +. ) 0.0 busy >= 0.0))

let test_trace_golden () =
  with_clean_sink (fun () ->
      Obs.Sink.enable ();
      Obs.Span.with_span "a" (fun () ->
          Obs.Span.with_span "b" (fun () -> ()));
      let text = Obs.Trace.to_string () in
      (match Obs.Trace.validate_string text with
      | Ok n -> Alcotest.(check int) "2 spans = 4 events" 4 n
      | Error msg -> Alcotest.failf "trace did not validate: %s" msg);
      (* file round-trip *)
      let file = Filename.temp_file "test_obs" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Obs.Trace.to_file file;
          match Obs.Trace.validate_file file with
          | Ok n -> Alcotest.(check int) "file round-trip" 4 n
          | Error msg -> Alcotest.failf "file did not validate: %s" msg))

let test_trace_validator_rejects () =
  let bad =
    [
      ("truncated", "{\"traceEvents\":[");
      ("not an object", "[1,2,3]");
      ("missing traceEvents", "{\"other\":1}");
      ("events not an array", "{\"traceEvents\":3}");
      ( "unbalanced span",
        "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":0}]}"
      );
      ( "mismatched close",
        "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":0},{\"name\":\"b\",\"ph\":\"E\",\"ts\":1,\"pid\":1,\"tid\":0}]}"
      );
    ]
  in
  List.iter
    (fun (label, text) ->
      match Obs.Trace.validate_string text with
      | Ok _ -> Alcotest.failf "%s should not validate" label
      | Error _ -> ())
    bad

let test_trace_merge () =
  (* two single-process traces with wall-clock anchors merge onto one
     timeline: pids are remapped per input, each input gets a
     process_name metadata record, and timestamps rebase against the
     earliest anchor *)
  let mk ~t0 ~name =
    Printf.sprintf
      "{\"traceEvents\":[\n\
       {\"name\":\"%s\",\"ph\":\"B\",\"ts\":0.0,\"pid\":1,\"tid\":0},\n\
       {\"name\":\"%s\",\"ph\":\"E\",\"ts\":50.0,\"pid\":1,\"tid\":0}\n\
       ],\"t0_us\":%.1f,\"displayTimeUnit\":\"ms\"}" name name t0
  in
  match
    Obs.Trace.merge_strings
      [ ("client", mk ~t0:1000.0 ~name:"c"); ("server", mk ~t0:1010.0 ~name:"s") ]
  with
  | Error msg -> Alcotest.failf "merge failed: %s" msg
  | Ok merged -> (
      (match Obs.Trace.validate_string merged with
      | Ok n ->
          (* 2 events per input + 2 process_name metadata records *)
          Alcotest.(check int) "merged event count" 6 n
      | Error msg -> Alcotest.failf "merged trace invalid: %s" msg);
      let has affix =
        Alcotest.(check bool) affix true
          (Astring.String.is_infix ~affix merged)
      in
      has "\"process_name\"";
      has "{\"name\":\"client\"}";
      has "{\"name\":\"server\"}";
      (* the later anchor's events shifted by the 10us offset *)
      has "\"ts\":10,\"pid\":2";
      has "\"ts\":60,\"pid\":2";
      (* both inputs claimed pid 1; the merge separates them *)
      has "\"pid\":2";
      (* the merged anchor is the earliest input's *)
      has "\"t0_us\":1000.000";
      match Obs.Trace.merge_strings [ ("bad", "not json") ] with
      | Ok _ -> Alcotest.fail "garbage should not merge"
      | Error msg ->
          Alcotest.(check bool) "error names the input" true
            (Astring.String.is_infix ~affix:"bad" msg))

(* --- phase attribution ---------------------------------------------------- *)

let test_phase_records () =
  Obs.Phase.clear ();
  let r =
    Obs.Sink.with_ctx "ph-t1" (fun () ->
        Obs.Span.phase ~detail:"outer" "ph.a" (fun () ->
            Obs.Span.phase
              ~result_detail:(fun v -> Printf.sprintf "got=%d" v)
              "ph.b"
              (fun () -> 41 + 1)))
  in
  Alcotest.(check int) "phase is transparent" 42 r;
  (* recorded even though the sink was never enabled *)
  match Obs.Phase.recent ~ctx:"ph-t1" () with
  | [ a; b ] ->
      Alcotest.(check string) "outer first (start order)" "ph.a"
        a.Obs.Phase.name;
      Alcotest.(check string) "outer detail" "outer" a.Obs.Phase.detail;
      Alcotest.(check string) "result_detail applied" "got=42"
        b.Obs.Phase.detail;
      Alcotest.(check (option int))
        "parent link" (Some a.Obs.Phase.id) b.Obs.Phase.parent;
      Alcotest.(check (option int)) "root has no parent" None a.Obs.Phase.parent;
      Alcotest.(check int) "root depth" 0 (Obs.Phase.depth [ a; b ] a);
      Alcotest.(check int) "child depth" 1 (Obs.Phase.depth [ a; b ] b);
      Alcotest.(check bool) "durations nest" true
        (a.Obs.Phase.dur_us >= b.Obs.Phase.dur_us)
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs)

let test_phase_raise_and_filter () =
  Obs.Phase.clear ();
  Obs.Sink.with_ctx "ph-t2" (fun () ->
      try
        Obs.Span.phase ~detail:"armed"
          ~result_detail:(fun _ -> "never")
          "ph.boom"
          (fun () -> failwith "x")
      with Failure _ -> ());
  Obs.Sink.with_ctx "ph-other" (fun () ->
      Obs.Span.phase "ph.noise" (fun () -> ()));
  (match Obs.Phase.recent ~ctx:"ph-t2" () with
  | [ r ] ->
      Alcotest.(check string) "recorded on raise" "ph.boom" r.Obs.Phase.name;
      Alcotest.(check string) "detail survives the raise" "armed"
        r.Obs.Phase.detail
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs));
  Alcotest.(check int) "recent filters by ctx" 1
    (List.length (Obs.Phase.recent ~ctx:"ph-other" ()))

let test_phase_ring_bound () =
  Obs.Phase.clear ();
  Obs.Phase.set_capacity 8;
  Fun.protect
    ~finally:(fun () ->
      Obs.Phase.set_capacity Obs.Phase.default_capacity;
      Obs.Phase.clear ())
    (fun () ->
      for i = 1 to 20 do
        Obs.Span.phase ~detail:(string_of_int i) "ph.ring" (fun () -> ())
      done;
      match Obs.Phase.snapshot () with
      | rs ->
          Alcotest.(check int) "ring keeps the newest 8" 8 (List.length rs);
          Alcotest.(check (list string))
            "oldest evicted, order kept"
            (List.init 8 (fun i -> string_of_int (13 + i)))
            (List.map (fun r -> r.Obs.Phase.detail) rs))

let test_histogram_exemplars () =
  let module H = Obs.Histogram in
  let h = H.make "test.hist.exemplar" in
  H.reset h;
  H.observe h 5.0;
  Alcotest.(check int) "untraced observation leaves no exemplar" 0
    (List.length (H.merged h).H.exemplars);
  Obs.Sink.with_ctx "ex-1" (fun () -> H.observe h 5.0);
  Obs.Sink.with_ctx "ex-2" (fun () -> H.observe h 5.0);
  Obs.Sink.with_ctx "ex-3" (fun () -> H.observe h 5000.0);
  (match (H.merged h).H.exemplars with
  | [ (_, a); (_, b) ] ->
      (* one slot per bucket; the newest traced observation wins *)
      Alcotest.(check string) "bucket slot replaced" "ex-2" a.H.e_trace;
      Alcotest.(check (float 1e-9)) "value kept" 5.0 a.H.e_value;
      Alcotest.(check string) "second bucket" "ex-3" b.H.e_trace;
      Alcotest.(check bool) "timestamp set" true (a.H.e_ts_us > 0.0)
  | ex -> Alcotest.failf "expected 2 exemplars, got %d" (List.length ex));
  (* the Prometheus exposition renders them as OpenMetrics suffixes *)
  let expo = Obs.Expo.prometheus () in
  Alcotest.(check bool) "exemplar in exposition" true
    (Astring.String.is_infix ~affix:"# {trace_id=\"ex-3\"}" expo);
  H.reset h;
  Alcotest.(check int) "reset drops exemplars" 0
    (List.length (H.merged h).H.exemplars)

let test_pool_rejected_counter () =
  let c = C.make "pool.rejected_submissions" in
  let before = C.value c in
  let pool = P.create 2 in
  P.shutdown pool;
  (match P.run pool [ (fun () -> 1) ] with
  | _ -> Alcotest.fail "run after shutdown should raise"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names the pool size" true
        (Astring.String.is_infix ~affix:"2 domains" msg);
      Alcotest.(check bool) "message names the queue depth" true
        (Astring.String.is_infix ~affix:"queue depth" msg));
  Alcotest.(check int) "counter bumped" (before + 1) (C.value c)

let test_counter_delta_dropped () =
  (* counters present in [before] but missing from [after] (a reset
     registry) must show up as negative deltas, not vanish *)
  let d = C.delta ~before:[ ("gone", 5); ("still", 2) ] ~after:[ ("still", 2) ] in
  Alcotest.(check (list (pair string int))) "negative delta" [ ("gone", -5) ] d;
  let d2 =
    C.delta
      ~before:[ ("b", 3); ("a", 1) ]
      ~after:[ ("a", 4); ("c", 2) ]
  in
  Alcotest.(check (list (pair string int)))
    "moved, dropped and new, sorted"
    [ ("a", 3); ("b", -3); ("c", 2) ]
    d2;
  Alcotest.(check (list (pair string int)))
    "zero counters never report as dropped" []
    (C.delta ~before:[ ("zero", 0) ] ~after:[])

(* --- histograms ---------------------------------------------------------- *)

module H = Obs.Histogram

let test_histogram_basics () =
  let h = H.make "test.hist.basics" in
  H.reset h;
  let h' = H.make "test.hist.basics" in
  List.iter (H.observe h) [ 0.5; 1.0; 2.0; 100.0; 1e15 ];
  H.observe h' 3.0;
  let s = H.merged h in
  Alcotest.(check string) "name" "test.hist.basics" s.H.sname;
  Alcotest.(check int) "interned: both handles feed one histogram" 6 s.H.count;
  Alcotest.(check (float 1e-3)) "sum" (0.5 +. 1.0 +. 2.0 +. 100.0 +. 1e15 +. 3.0) s.H.sum;
  Alcotest.(check (float 1e-3)) "exact max" 1e15 s.H.max_value;
  (* v <= 1 lands in bucket 0 (ub 1.0); 1e15 overflows to the +inf bucket *)
  (match s.H.buckets with
  | (ub0, c0) :: _ ->
      Alcotest.(check (float 0.0)) "first bucket ub" 1.0 ub0;
      Alcotest.(check int) "two values <= 1" 2 c0
  | [] -> Alcotest.fail "no buckets");
  (match List.rev s.H.buckets with
  | (ub_last, c_last) :: _ ->
      Alcotest.(check bool) "overflow ub is +inf" true (ub_last = infinity);
      Alcotest.(check int) "one overflowed value" 1 c_last
  | [] -> Alcotest.fail "no buckets");
  Alcotest.(check bool) "find" true (H.find "test.hist.basics" <> None);
  Alcotest.(check bool) "find unknown" true (H.find "test.hist.nope" = None);
  H.reset h;
  Alcotest.(check int) "reset" 0 (H.merged h).H.count

let test_histogram_quantile_bound () =
  (* the histogram's quantile estimate must sit within the bucket
     relative-error bound of the exact sample quantile: for true value v
     in (1, 1e12), v <= estimate < ratio * v *)
  let h = H.make "test.hist.bound" in
  H.reset h;
  let ratio = H.ratio h in
  let rng = Workloads.Rng.create 42 in
  let n = 1000 in
  let samples =
    Array.init n (fun _ ->
        (* log-uniform over (1, 1e9): exercises many buckets *)
        Float.exp (Workloads.Rng.float rng *. log 1e9))
  in
  Array.iter (H.observe h) samples;
  let s = H.merged h in
  Alcotest.(check int) "count" n s.H.count;
  List.iter
    (fun q ->
      let exact = Stats.quantile samples q in
      let est = H.quantile s q in
      (* interpolation vs order-statistic off-by-one is < one sample
         apart; one extra ratio factor absorbs it *)
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f: estimate %.1f >= exact/ratio %.1f" q est
           (exact /. ratio))
        true
        (est >= exact /. ratio);
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f: estimate %.1f < exact*ratio^2 %.1f" q est
           (exact *. ratio *. ratio))
        true
        (est < exact *. ratio *. ratio))
    [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ];
  (* q=1.0 through the overflow path: the tracked max is exact *)
  H.observe h 1e14;
  let s = H.merged h in
  Alcotest.(check (float 1e-3)) "overflow quantile reports exact max" 1e14
    (H.quantile s 1.0)

let test_histogram_quantile_capped () =
  (* a bucket's upper bound can exceed every observation in it; no
     quantile may report more than the tracked maximum *)
  let h = H.make "test.hist.capped" in
  H.reset h;
  H.observe h 1998.0;
  let s = H.merged h in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q=%.2f of one observation" q)
        1998.0 (H.quantile s q))
    [ 0.5; 0.99; 1.0 ];
  List.iter (H.observe h) [ 10.0; 11.0; 1500.0 ];
  let s = H.merged h in
  List.iter
    (fun q ->
      let e = H.quantile s q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f estimate %g <= max %g" q e s.H.max_value)
        true (e <= s.H.max_value))
    [ 0.25; 0.5; 0.75; 0.99; 1.0 ]

let test_histogram_hammer () =
  (* 4 pool domains x 64 tasks x 500 observations: merged snapshot loses
     nothing even though every domain records into its own shard *)
  let h = H.make "test.hist.hammer" in
  H.reset h;
  let pool = P.create 4 in
  Fun.protect
    ~finally:(fun () -> P.shutdown pool)
    (fun () ->
      ignore
        (P.run pool
           (List.init 64 (fun i () ->
                for j = 1 to 500 do
                  H.observe h (float_of_int ((i * 500) + j))
                done))));
  let s = H.merged h in
  Alcotest.(check int) "no lost observations" 32_000 s.H.count;
  Alcotest.(check (float 1e-3)) "exact max survives the merge" 32_000.0
    s.H.max_value;
  Alcotest.(check bool) "shards of dead domains persist" true
    ((H.merged h).H.count = 32_000)

(* --- labeled families ---------------------------------------------------- *)

module L = Obs.Labeled

let test_labeled () =
  let f = L.family "test.labeled.requests" ~label:"status" in
  let ok = L.cell f "ok" and err = L.cell f "error" in
  L.incr ok;
  L.incr ok;
  L.add err 3;
  Alcotest.(check int) "ok" 2 (L.value ok);
  Alcotest.(check int) "error" 3 (L.value err);
  let f' = L.family "test.labeled.requests" ~label:"status" in
  L.incr (L.cell f' "ok");
  Alcotest.(check int) "family interned by name" 3 (L.value ok);
  (match L.family "test.labeled.requests" ~label:"other" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "label-key mismatch should raise");
  let samples =
    List.filter
      (fun (s : L.sample) -> s.L.metric = "test.labeled.requests")
      (L.snapshot ())
  in
  Alcotest.(check (list (pair string int)))
    "snapshot sorted by label value"
    [ ("error", 3); ("ok", 3) ]
    (List.map (fun (s : L.sample) -> (s.L.label_value, s.L.value)) samples)

(* --- exposition ---------------------------------------------------------- *)

let test_expo_prometheus () =
  let c = C.make "test.expo.total" in
  C.reset c;
  C.add c 5;
  let f = L.family "test.expo.requests" ~label:"status" in
  L.add (L.cell f "ok") 7;
  let h = H.make "test.expo.latency_us" in
  H.reset h;
  List.iter (H.observe h) [ 0.5; 10.0; 1e13 ];
  let text = Obs.Expo.prometheus () in
  let has affix = Astring.String.is_infix ~affix text in
  Alcotest.(check bool) "sanitized counter" true
    (has "# TYPE test_expo_total counter\ntest_expo_total 5");
  Alcotest.(check bool) "labeled sample" true
    (has "test_expo_requests{status=\"ok\"} 7");
  Alcotest.(check bool) "histogram type line" true
    (has "# TYPE test_expo_latency_us histogram");
  Alcotest.(check bool) "first bucket" true
    (has "test_expo_latency_us_bucket{le=\"1\"} 1");
  Alcotest.(check bool) "+Inf bucket is cumulative" true
    (has "test_expo_latency_us_bucket{le=\"+Inf\"} 3");
  Alcotest.(check bool) "count" true (has "test_expo_latency_us_count 3");
  Alcotest.(check string) "sanitize" "a_b:c_1_"
    (Obs.Expo.sanitize "a.b:c-1%")

let test_expo_json () =
  let h = H.make "test.expo.json_us" in
  H.reset h;
  List.iter (H.observe h) [ 2.0; 4.0; 8.0 ];
  let text = Obs.Expo.json () in
  let has affix = Astring.String.is_infix ~affix text in
  Alcotest.(check bool) "histogram object" true
    (has "\"name\": \"test.expo.json_us\"");
  Alcotest.(check bool) "count field" true (has "\"count\": 3");
  List.iter
    (fun (label, _) ->
      Alcotest.(check bool) (label ^ " present") true
        (has (Printf.sprintf "\"%s\": " label)))
    Obs.Expo.quantile_points;
  let records =
    Obs.Expo.bench_records_json
      [
        {
          Obs.Expo.bname = "r1";
          iterations = 10;
          wall_ns = 1000.0;
          percentiles = [ ("p50_us", 12.0) ];
          counters = [ ("c", 3) ];
          trace_ids = [ ("slowest", "lg1.7") ];
        };
        {
          Obs.Expo.bname = "r2";
          iterations = 5;
          wall_ns = 500.0;
          percentiles = [];
          counters = [];
          trace_ids = [];
        };
      ]
  in
  let hasr affix = Astring.String.is_infix ~affix records in
  Alcotest.(check bool) "ns_per_iter derived" true
    (hasr "\"ns_per_iter\": 100");
  Alcotest.(check bool) "percentiles block" true
    (hasr "\"percentiles\": {\"p50_us\": 12}");
  Alcotest.(check bool) "trace_ids block" true
    (hasr "\"trace_ids\": {\"slowest\": \"lg1.7\"}");
  Alcotest.(check bool) "empty trace_ids omitted" true
    (not (hasr "\"trace_ids\": {}"));
  Alcotest.(check bool) "empty percentiles omitted" true
    (not (hasr "\"name\": \"r2\", \"iterations\": 5, \"wall_ns\": 500, \
                \"ns_per_iter\": 100, \"percentiles\""))

let test_expo_empty_histogram () =
  (* a registered-but-never-observed histogram must still appear in both
     expositions: count 0 in Prometheus, null percentiles in JSON — and
     rendering it must not raise (Histogram.quantile does on empty) *)
  let h = H.make "test.expo.empty_us" in
  H.reset h;
  let text = Obs.Expo.prometheus () in
  let has affix = Astring.String.is_infix ~affix text in
  Alcotest.(check bool) "type line" true
    (has "# TYPE test_expo_empty_us histogram");
  Alcotest.(check bool) "+Inf bucket at zero" true
    (has "test_expo_empty_us_bucket{le=\"+Inf\"} 0");
  Alcotest.(check bool) "zero sum" true (has "test_expo_empty_us_sum 0");
  Alcotest.(check bool) "zero count" true (has "test_expo_empty_us_count 0");
  let js = Obs.Expo.json () in
  Alcotest.(check bool) "json object present" true
    (Astring.String.is_infix ~affix:"\"name\": \"test.expo.empty_us\", \"count\": 0"
       js);
  (* each histogram renders on its own line; the empty one must carry
     null percentiles and an empty bucket list *)
  let obj =
    match
      List.find_opt
        (fun l -> Astring.String.is_infix ~affix:"test.expo.empty_us" l)
        (String.split_on_char '\n' js)
    with
    | Some l -> l
    | None -> Alcotest.fail "empty histogram missing from json"
  in
  List.iter
    (fun affix ->
      Alcotest.(check bool) (affix ^ " present") true
        (Astring.String.is_infix ~affix obj))
    [ "\"p50\": null"; "\"p90\": null"; "\"p99\": null"; "\"buckets\": []" ]

(* Golden scrape: a fixed set of [golden.*] metrics renders to exactly
   these Prometheus and JSON lines. The exemplar timestamp is masked, and
   a trailing comma is dropped because it depends on whether another
   metric sorts after the golden ones. *)
let golden_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> Astring.String.is_infix ~affix:"golden" l)
  |> List.map (fun l ->
         let l =
           Str.global_replace
             (Str.regexp "\"ts_us\": [^}]*}")
             "\"ts_us\": <ts>}" l
         in
         let l =
           Str.global_replace
             (Str.regexp "\\(# {trace_id=\"[^\"]*\"} [^ ]*\\) [0-9.]+$")
             "\\1 <ts>" l
         in
         if String.ends_with ~suffix:"," l then
           String.sub l 0 (String.length l - 1)
         else l)

let golden_prometheus =
  [
    "# TYPE golden_counter counter";
    "golden_counter 3";
    "# TYPE golden_requests counter";
    "golden_requests{status=\"error\"} 1";
    "golden_requests{status=\"ok\"} 2";
    "# TYPE golden_gauge gauge";
    "golden_gauge 0.5";
    "# TYPE golden_empty_us histogram";
    "golden_empty_us_bucket{le=\"+Inf\"} 0";
    "golden_empty_us_sum 0";
    "golden_empty_us_count 0";
    "# TYPE golden_latency_us histogram";
    "golden_latency_us_bucket{le=\"1\"} 1";
    "golden_latency_us_bucket{le=\"3.05175781\"} 2";
    "golden_latency_us_bucket{le=\"44.408921\"} 4 # {trace_id=\"golden-1\"} \
     40 <ts>";
    "golden_latency_us_bucket{le=\"+Inf\"} 4";
    "golden_latency_us_sum 83.5";
    "golden_latency_us_count 4";
  ]

let golden_json =
  [
    "    \"golden.counter\": 3";
    "    {\"metric\": \"golden.requests\", \"status\": \"error\", \
     \"value\": 1}";
    "    {\"metric\": \"golden.requests\", \"status\": \"ok\", \
     \"value\": 2}";
    "    \"golden.gauge\": 0.5";
    "    {\"name\": \"golden.empty_us\", \"count\": 0, \"sum\": 0, \"max\": \
     \"NaN\", \"ratio\": 1.25, \"p50\": null, \"p90\": null, \"p99\": null, \
     \"buckets\": []}";
    "    {\"name\": \"golden.latency_us\", \"count\": 4, \"sum\": 83.5, \
     \"max\": 40, \"ratio\": 1.25, \"p50\": 3.05175781, \"p90\": 40, \
     \"p99\": 40, \"buckets\": [{\"le\": 1, \"count\": 1}, {\"le\": \
     3.05175781, \"count\": 1}, {\"le\": 44.408921, \"count\": 2, \
     \"exemplar\": {\"trace_id\": \"golden-1\", \"value\": 40, \"ts_us\": \
     <ts>}}]}";
  ]

let test_expo_golden () =
  let c = C.make "golden.counter" in
  C.reset c;
  C.add c 3;
  let f = L.family "golden.requests" ~label:"status" in
  L.add (L.cell f "ok") 2;
  L.incr (L.cell f "error");
  Obs.Gauge.set (Obs.Gauge.make "golden.gauge") 0.5;
  let h = H.make "golden.latency_us" in
  H.reset h;
  List.iter (H.observe h) [ 0.5; 3.0; 40.0 ];
  Obs.Sink.with_ctx "golden-1" (fun () -> H.observe h 40.0);
  H.reset (H.make "golden.empty_us");
  Alcotest.(check (list string))
    "prometheus" golden_prometheus
    (golden_lines (Obs.Expo.prometheus ()));
  Alcotest.(check (list string))
    "json" golden_json
    (golden_lines (Obs.Expo.json ()))

let test_slo_burn_rate () =
  (* 90% good traffic against a 90% target burns the error budget at
     exactly 1.0x on every window *)
  Obs.Slo.clear ();
  let f = L.family "test.slo.requests" ~label:"status" in
  Obs.Slo.register ~name:"test-availability" ~target:0.9
    (Obs.Slo.Availability
       { family = "test.slo.requests"; good_values = [ "ok" ] });
  Obs.Slo.sample ();
  L.add (L.cell f "ok") 9;
  L.add (L.cell f "error") 1;
  Obs.Slo.sample ();
  let reports = Obs.Slo.reports () in
  Alcotest.(check int) "one report per window" (List.length Obs.Slo.windows)
    (List.length reports);
  List.iter
    (fun (r : Obs.Slo.report) ->
      Alcotest.(check string) "name" "test-availability" r.Obs.Slo.rname;
      Alcotest.(check (float 1e-9)) "good" 9.0 r.Obs.Slo.good;
      Alcotest.(check (float 1e-9)) "total" 10.0 r.Obs.Slo.total;
      Alcotest.(check (float 1e-9)) "ratio" 0.9 r.Obs.Slo.ratio;
      Alcotest.(check (float 1e-9)) "burn" 1.0 r.Obs.Slo.burn)
    reports;
  (* prometheus exposition carries the burn-rate series *)
  let text = Obs.Expo.prometheus () in
  Alcotest.(check bool) "slo_burn_rate series" true
    (Astring.String.is_infix
       ~affix:"slo_burn_rate{objective=\"test-availability\",window=\"5m\"}"
       text);
  Obs.Slo.clear ()

(* --- request-id context -------------------------------------------------- *)

let test_sink_ctx () =
  with_clean_sink (fun () ->
      Obs.Sink.enable ();
      Alcotest.(check bool) "no ambient ctx" true
        (Obs.Sink.current_ctx () = None);
      Obs.Sink.with_ctx "r42" (fun () ->
          Alcotest.(check (option string)) "ctx visible" (Some "r42")
            (Obs.Sink.current_ctx ());
          Obs.Span.with_span "outer" (fun () ->
              Obs.Span.with_span "inner" (fun () -> ())));
      Obs.Span.with_span "after" (fun () -> ());
      let tagged, untagged =
        List.partition
          (fun (r : Obs.Phase.record) -> r.Obs.Phase.ctx = Some "r42")
          (Obs.Phase.snapshot ())
      in
      Alcotest.(check int) "both spans tagged" 2 (List.length tagged);
      Alcotest.(check int) "span outside with_ctx untagged" 1
        (List.length untagged);
      (* nested ctx restores the outer one, even on raise *)
      Obs.Sink.with_ctx "a" (fun () ->
          (try Obs.Sink.with_ctx "b" (fun () -> failwith "x")
           with Failure _ -> ());
          Alcotest.(check (option string)) "restored after raise" (Some "a")
            (Obs.Sink.current_ctx ()));
      let text = Obs.Trace.to_string () in
      Alcotest.(check bool) "trace carries the request id" true
        (Astring.String.is_infix ~affix:"\"args\":{\"req\":\"r42\",\"sid\":"
           text);
      match Obs.Trace.validate_string text with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "trace with args did not validate: %s" msg)

(* --- flight recorder ------------------------------------------------------ *)

module E = Obs.Event

(* Every recorder test starts from empty rings at the default Info
   threshold and restores both on the way out. *)
let with_clean_recorder f =
  E.set_level E.Info;
  E.clear ();
  Fun.protect
    ~finally:(fun () ->
      E.set_level E.Info;
      E.set_capacity E.default_capacity;
      E.clear ())
    f

let test_event_basics () =
  with_clean_recorder (fun () ->
      E.emit "first" [ ("n", E.Int 3); ("label", E.Str "a\"b") ];
      Obs.Sink.with_ctx "r7" (fun () ->
          E.emit "second" [ ("x", E.Float 1.5); ("flag", E.Bool true) ]);
      match E.snapshot () with
      | [ first; second ] ->
          Alcotest.(check string) "name" "first" first.E.name;
          Alcotest.(check (option string)) "no ctx outside with_ctx" None
            first.E.ctx;
          Alcotest.(check (option string)) "ctx captured" (Some "r7")
            second.E.ctx;
          Alcotest.(check bool) "timestamps ordered" true
            (first.E.ts_us <= second.E.ts_us);
          List.iter
            (fun e ->
              let line = E.to_json_line e in
              match Obs.Trace.check_json line with
              | Ok () -> ()
              | Error msg ->
                  Alcotest.failf "line %S is not valid JSON: %s" line msg)
            [ first; second ];
          Alcotest.(check bool) "req rendered" true
            (Astring.String.is_infix ~affix:"\"req\":\"r7\""
               (E.to_json_line second));
          Alcotest.(check bool) "escaped field value" true
            (Astring.String.is_infix ~affix:"a\\\"b" (E.to_json_line first))
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

let test_event_levels () =
  with_clean_recorder (fun () ->
      E.emit ~level:E.Debug "too.quiet" [];
      E.emit "kept.info" [];
      E.emit ~level:E.Warn "kept.warn" [];
      Alcotest.(check (list string))
        "debug filtered at the default threshold"
        [ "kept.info"; "kept.warn" ]
        (List.map (fun e -> e.E.name) (E.snapshot ()));
      Alcotest.(check bool) "enabled reflects threshold" true
        ((not (E.enabled E.Debug)) && E.enabled E.Info);
      E.set_level E.Debug;
      E.emit ~level:E.Debug "now.audible" [];
      Alcotest.(check int) "debug recorded after set_level" 3
        (List.length (E.snapshot ()));
      (* recent composes the level floor and the count cap *)
      Alcotest.(check (list string)) "recent filters by level"
        [ "kept.warn" ]
        (List.map
           (fun e -> e.E.name)
           (E.recent ~min_level:E.Warn ()));
      Alcotest.(check (list string)) "recent keeps the newest"
        [ "kept.warn"; "now.audible" ]
        (List.map (fun e -> e.E.name) (E.recent ~count:2 ())))

let test_event_wraparound () =
  with_clean_recorder (fun () ->
      E.set_capacity 8;
      for i = 1 to 20 do
        E.emit "tick" [ ("i", E.Int i) ]
      done;
      let evs = E.snapshot () in
      Alcotest.(check int) "ring keeps exactly its capacity" 8
        (List.length evs);
      Alcotest.(check (list int)) "and it is the newest 8, oldest first"
        [ 13; 14; 15; 16; 17; 18; 19; 20 ]
        (List.map
           (fun e ->
             match e.E.fields with
             | [ ("i", E.Int i) ] -> i
             | _ -> Alcotest.fail "unexpected fields")
           evs))

let test_event_hammer () =
  (* 4 pool domains x 64 tasks x 50 events, mirroring the histogram
     shard hammer: every event survives in some domain's ring (capacity
     is ample), every dump line is valid JSON, and each domain's
     sequence numbers come back strictly increasing *)
  with_clean_recorder (fun () ->
      E.set_capacity 4096;
      let pool = P.create 4 in
      Fun.protect
        ~finally:(fun () -> P.shutdown pool)
        (fun () ->
          ignore
            (P.run pool
               (List.init 64 (fun i () ->
                    for j = 1 to 50 do
                      E.emit "hammer" [ ("task", E.Int i); ("j", E.Int j) ]
                    done))));
      let evs = E.snapshot () in
      Alcotest.(check int) "no lost events" 3200 (List.length evs);
      List.iter
        (fun e ->
          match Obs.Trace.check_json (E.to_json_line e) with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "invalid JSON line: %s" msg)
        evs;
      let last_seq : (int, int) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun e ->
          (match Hashtbl.find_opt last_seq e.E.domain with
          | Some prev ->
              if e.E.seq <= prev then
                Alcotest.failf
                  "domain %d: seq %d after %d — merge broke per-domain order"
                  e.E.domain e.E.seq prev
          | None -> ());
          Hashtbl.replace last_seq e.E.domain e.E.seq)
        evs)

let test_event_json_sink () =
  with_clean_recorder (fun () ->
      let file = Filename.temp_file "test_event_sink" ".jsonl" in
      Fun.protect
        ~finally:(fun () ->
          E.set_json_sink None;
          Sys.remove file)
        (fun () ->
          let oc = open_out file in
          E.set_json_sink (Some oc);
          E.emit "mirrored" [ ("k", E.Str "v") ];
          E.emit ~level:E.Debug "filtered" [];
          E.set_json_sink None;
          close_out oc;
          let ic = open_in file in
          let lines = ref [] in
          (try
             while true do
               lines := input_line ic :: !lines
             done
           with End_of_file -> close_in ic);
          match List.rev !lines with
          | [ line ] ->
              Alcotest.(check bool) "mirrored event on the sink" true
                (Astring.String.is_infix ~affix:"\"name\":\"mirrored\"" line);
              Alcotest.(check bool) "line is valid JSON" true
                (Obs.Trace.check_json line = Ok ())
          | ls -> Alcotest.failf "expected 1 sink line, got %d" (List.length ls)))

(* --- memprof -------------------------------------------------------------- *)

let test_memprof_gauges () =
  Obs.Memprof.sample ();
  Alcotest.(check bool) "minor words observed" true
    (Obs.Gauge.value Obs.Memprof.minor_words > 0.0);
  let names = List.map fst (Obs.Gauge.snapshot ()) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [
      "gc.minor_words"; "gc.major_words"; "gc.promoted_words";
      "gc.heap_words"; "gc.compactions"; "gc.minor_collections";
      "gc.major_collections";
    ];
  let x, bytes = Obs.Memprof.with_alloc (fun () -> List.init 1000 Fun.id) in
  Alcotest.(check int) "with_alloc result" 1000 (List.length x);
  Alcotest.(check bool) "allocation measured" true (bytes > 0.0)

let test_span_alloc () =
  with_clean_sink (fun () ->
      (* disabled: no record, no overhead path *)
      let r = Obs.Span.with_span "quiet" (fun () -> 3) in
      Alcotest.(check int) "result while disabled" 3 r;
      Alcotest.(check int) "nothing recorded" 0 (recorded ());
      Obs.Sink.enable ();
      let keep = Obs.Span.with_span "alloc" (fun () -> Array.make 4096 0.0) in
      Alcotest.(check int) "result" 4096 (Array.length keep);
      (match Obs.Phase.snapshot () with
      | [ r ] ->
          Alcotest.(check bool) "record carries the bytes" true
            (r.Obs.Phase.alloc_bytes >= 4096.0 *. 8.0)
      | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs));
      let text = Obs.Trace.to_string () in
      (match
         List.filter
           (fun l -> Astring.String.is_infix ~affix:"\"name\":\"alloc\"" l)
           (String.split_on_char '\n' text)
       with
      | [ b; e ] ->
          Alcotest.(check bool) "begin carries no delta" true
            (not (Astring.String.is_infix ~affix:"alloc_b" b));
          Alcotest.(check bool) "end carries the bytes" true
            (Astring.String.is_infix ~affix:"alloc_b" e)
      | ls -> Alcotest.failf "expected B/E lines, got %d" (List.length ls));
      Alcotest.(check bool) "trace renders alloc_b" true
        (Astring.String.is_infix ~affix:"\"alloc_b\":" text);
      match Obs.Trace.validate_string text with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "trace with alloc_b invalid: %s" msg)

(* --- profile -------------------------------------------------------------- *)

let test_profile_collapse_invariance () =
  let samples =
    [
      ([ "main"; "solve"; "pivot" ], 3.0);
      ([ "main"; "solve" ], 1.0);
      ([ "main"; "solve"; "pivot" ], 2.0);
      ([ "main" ], 5.0);
      ([ "main"; "io" ], 4.0);
    ]
  in
  let a = Obs.Profile.collapse samples in
  let b = Obs.Profile.collapse (List.rev samples) in
  Alcotest.(check (list (pair string (float 1e-9))))
    "collapse is sample-order-invariant" a b;
  Alcotest.(check bool) "duplicate stacks sum their weights" true
    (List.assoc_opt "main;solve;pivot" a = Some 5.0);
  let stacks = List.map fst a in
  Alcotest.(check (list string))
    "entries sorted by stack string" (List.sort compare stacks) stacks

let burn i =
  (* enough floating-point work per task for ITIMER_PROF ticks to land
     mid-task; opaque so flambda cannot fold the loop away *)
  let acc = ref (float_of_int i) in
  for j = 1 to 1_500_000 do
    acc := Float.rem ((!acc *. 1.000001) +. float_of_int j) 1e9
  done;
  ignore (Sys.opaque_identity !acc)

let test_profile_hammer () =
  (* 4 pool domains burning CPU while the engine samples at 1 kHz: no
     crashes or wedged domains, sample counts positive and monotone,
     rings registered, and the aggregate well-formed. The SIGPROF
     handler touches only DLS rings and atomics, so it must coexist
     with whatever any domain is doing when the signal lands. *)
  Obs.Profile.clear ();
  (match Obs.Profile.start ~rate:1000.0 Obs.Profile.Cpu with
  | Error msg -> Alcotest.failf "cpu engine failed to start: %s" msg
  | Ok () -> ());
  Fun.protect ~finally:Obs.Profile.stop (fun () ->
      let pool = P.create 4 in
      Fun.protect
        ~finally:(fun () -> P.shutdown pool)
        (fun () -> ignore (P.run pool (List.init 16 (fun i () -> burn i))));
      let st1 = Obs.Profile.stat () in
      Alcotest.(check bool) "samples landed" true
        (st1.Obs.Profile.s_samples > 0);
      Alcotest.(check bool) "a ring registered" true
        (st1.Obs.Profile.s_rings >= 1);
      let pool2 = P.create 4 in
      Fun.protect
        ~finally:(fun () -> P.shutdown pool2)
        (fun () ->
          ignore (P.run pool2 (List.init 16 (fun i () -> burn (i + 16)))));
      let st2 = Obs.Profile.stat () in
      Alcotest.(check bool) "sample count monotone" true
        (st2.Obs.Profile.s_samples >= st1.Obs.Profile.s_samples);
      Alcotest.(check bool) "retained bounded by recorded" true
        (st2.Obs.Profile.s_retained <= st2.Obs.Profile.s_samples);
      let agg = Obs.Profile.aggregate () in
      Alcotest.(check bool) "aggregate nonempty" true (agg <> []);
      List.iter
        (fun (stack, w) ->
          Alcotest.(check bool) "stack nonempty" true
            (String.length stack > 0);
          Alcotest.(check bool) "frames sanitized (no spaces)" true
            (not (String.contains stack ' '));
          Alcotest.(check bool) "positive weight" true (w > 0.0))
        agg);
  Alcotest.(check bool) "engine disarmed" true (Obs.Profile.running () = None)

let test_report_tables () =
  let c = C.make "test.report" in
  C.reset c;
  let before = C.snapshot () in
  C.add c 3;
  let delta = Obs.Report.delta_table ~before in
  Alcotest.(check bool) "delta table lists the counter" true
    (Astring.String.is_infix ~affix:"test.report"
       (Stats.Table.to_string delta));
  let full = Stats.Table.to_string (Obs.Report.to_table ()) in
  Alcotest.(check bool) "full table lists the counter" true
    (Astring.String.is_infix ~affix:"test.report" full)

let () =
  Alcotest.run "obs"
    [
      ( "counter",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "delta" `Quick test_counter_delta;
          Alcotest.test_case "4-domain hammer" `Quick test_counter_hammer;
          Alcotest.test_case "delta reports dropped counters" `Quick
            test_counter_delta_dropped;
        ] );
      ("gauge", [ Alcotest.test_case "set/get" `Quick test_gauge ]);
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "quantile error bounded by ratio" `Quick
            test_histogram_quantile_bound;
          Alcotest.test_case "quantile capped at max" `Quick
            test_histogram_quantile_capped;
          Alcotest.test_case "4-domain hammer" `Quick test_histogram_hammer;
        ] );
      ("labeled", [ Alcotest.test_case "families" `Quick test_labeled ]);
      ( "expo",
        [
          Alcotest.test_case "prometheus" `Quick test_expo_prometheus;
          Alcotest.test_case "json" `Quick test_expo_json;
          Alcotest.test_case "empty histogram exposed" `Quick
            test_expo_empty_histogram;
          Alcotest.test_case "golden scrape" `Quick test_expo_golden;
          Alcotest.test_case "slo burn rate" `Quick test_slo_burn_rate;
        ] );
      ( "ctx",
        [ Alcotest.test_case "request ids on events" `Quick test_sink_ctx ] );
      ( "span",
        [
          Alcotest.test_case "disabled = silent" `Quick test_span_disabled;
          Alcotest.test_case "timed" `Quick test_timed;
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "closes on raise" `Quick
            test_span_raise_still_closes;
          Alcotest.test_case "merge across domains" `Quick
            test_span_merge_across_domains;
        ] );
      ( "trace",
        [
          Alcotest.test_case "golden round-trip" `Quick test_trace_golden;
          Alcotest.test_case "validator rejects" `Quick
            test_trace_validator_rejects;
          Alcotest.test_case "multi-process merge" `Quick test_trace_merge;
        ] );
      ( "phase",
        [
          Alcotest.test_case "records with ids and detail" `Quick
            test_phase_records;
          Alcotest.test_case "raise + ctx filter" `Quick
            test_phase_raise_and_filter;
          Alcotest.test_case "ring bound" `Quick test_phase_ring_bound;
          Alcotest.test_case "histogram exemplars" `Quick
            test_histogram_exemplars;
        ] );
      ( "event",
        [
          Alcotest.test_case "record, ctx and JSON lines" `Quick
            test_event_basics;
          Alcotest.test_case "level threshold" `Quick test_event_levels;
          Alcotest.test_case "ring wraparound" `Quick test_event_wraparound;
          Alcotest.test_case "4-domain hammer" `Quick test_event_hammer;
          Alcotest.test_case "json sink mirror" `Quick test_event_json_sink;
        ] );
      ( "memprof",
        [
          Alcotest.test_case "gc gauges" `Quick test_memprof_gauges;
          Alcotest.test_case "span alloc delta" `Quick test_span_alloc;
        ] );
      ( "profile",
        [
          Alcotest.test_case "collapse order-invariance" `Quick
            test_profile_collapse_invariance;
          Alcotest.test_case "4-domain hammer while sampling" `Quick
            test_profile_hammer;
        ] );
      ( "integration",
        [
          Alcotest.test_case "pool rejection counter" `Quick
            test_pool_rejected_counter;
          Alcotest.test_case "report tables" `Quick test_report_tables;
        ] );
    ]
