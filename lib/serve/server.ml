(* One labeled family instead of parallel ad-hoc counters: every request
   lands in exactly one status cell, so the series sum is the request
   count and the exposition layer renders them as
   serve_requests{status="..."}. *)
let requests = Obs.Labeled.family "serve.requests" ~label:"status"
let c_req_ok = Obs.Labeled.cell requests "ok"
let c_req_error = Obs.Labeled.cell requests "error"
let c_req_degraded = Obs.Labeled.cell requests "degraded"
let c_errors = Obs.Counter.make "serve.request_errors"
let h_latency_us = Obs.Histogram.make "serve.request_latency_us"
let h_alloc_bytes = Obs.Histogram.make "serve.request_alloc_bytes"
let c_dumps = Obs.Counter.make "serve.recorder_dumps"
let c_dumps_suppressed = Obs.Counter.make "serve.recorder_dumps_suppressed"

(* Pre-hash filter outcomes: a hit means the cheap fingerprint was seen
   before and the full canonicalization ran; a miss proved the cache
   could not hold the instance and skipped it. *)
let c_prehash_hits = Obs.Counter.make "serve.canon.prehash_hits"
let c_prehash_misses = Obs.Counter.make "serve.canon.prehash_misses"

(* Process-wide request ids, threaded through the spans of a request
   (serve.request -> serve.cache.lookup -> serve.dispatch -> solver) as
   the ambient Sink context, so a Chrome trace of a concurrent socket
   run can be grouped/filtered by request. *)
let req_seq = Atomic.make 0
let next_request_id () = Printf.sprintf "r%d" (Atomic.fetch_and_add req_seq 1)

type config = {
  cache_capacity : int;
  default_deadline_ms : float option;
  jobs : int;
  slow_ms : float option;
  dump_channel : out_channel option;
  dump_min_interval_s : float;
  task_budget_s : float;
  watchdog_interval_s : float option;
  session : Session.config;
  prehash_cap : int;
}

let default_config =
  {
    cache_capacity = 128;
    default_deadline_ms = None;
    jobs = Parallel.Pool.default_jobs ();
    slow_ms = None;
    dump_channel = None;
    dump_min_interval_s = 1.0;
    task_budget_s = 30.0;
    (* the ticker is opt-in: tests and the bench harness create servers
       by the dozen and a background sampler would make their counter
       deltas nondeterministic; [schedtool serve] turns it on *)
    watchdog_interval_s = None;
    session = Session.default_config;
    prehash_cap = 65_536;
  }

(* Cached results live in canonical labeling; each hit is translated back
   through the requesting instance's own permutations. Session resolves
   share the LRU (their keys carry a "session:" prefix), so both
   populations live under one budget. *)
type cached = Session.cached = {
  makespan : float;
  assignment : int array;
  solver : string;
}

type t = {
  config : config;
  cache : cached Cache.t;
  sessions : Session.t;
  pool : Parallel.Pool.t;
  stopping : bool Atomic.t;  (* stops the ticker *)
  (* dump rate bound: sessions run concurrently on the pool, so the
     last-dump stamp is mutex-guarded *)
  dump_mutex : Mutex.t;
  mutable last_dump_us : float;
  mutable ticker : unit Domain.t option;
  created_us : float;
  (* fingerprints of every instance ever stored in the cache: a
     pre-hash absent here proves the cache cannot hold the incoming
     instance, so the lookup-side canonicalization is skipped *)
  prehash_mutex : Mutex.t;
  mutable prehash_cur : (int, unit) Hashtbl.t;
  mutable prehash_prev : (int, unit) Hashtbl.t;
}

(* Bounding the fingerprint set generationally: fingerprints live in two
   half-cap tables; when the current one fills, it becomes the previous
   generation and a fresh table takes over, so an overflow retires only
   the older half of the working set instead of dropping all of it at
   once. A retired fingerprint of a still-cached entry costs a re-solve
   of later relabelings — wasted work at worst, never wrong answers (the
   skip path still solves and replies correctly). *)
let c_prehash_rotations = Obs.Counter.make "serve.canon.prehash_rotations"

let prehash_seen t ph =
  Mutex.lock t.prehash_mutex;
  let seen = Hashtbl.mem t.prehash_cur ph || Hashtbl.mem t.prehash_prev ph in
  Mutex.unlock t.prehash_mutex;
  seen

let record_prehash t ph =
  Mutex.lock t.prehash_mutex;
  let half = max 1 (t.config.prehash_cap / 2) in
  if Hashtbl.length t.prehash_cur >= half
     && not (Hashtbl.mem t.prehash_cur ph)
  then begin
    Obs.Counter.incr c_prehash_rotations;
    t.prehash_prev <- t.prehash_cur;
    t.prehash_cur <- Hashtbl.create (min half 256)
  end;
  (* recording always lands in the current generation, so a fingerprint
     that keeps being cached keeps surviving rotations *)
  Hashtbl.replace t.prehash_cur ph ();
  Mutex.unlock t.prehash_mutex

(* Rate-bounded flight-recorder dump shared by the slow-request path and
   the watchdog's stuck-task hook: one dump per [dump_min_interval_s],
   so a failure storm (or a watchdog firing every tick) cannot turn the
   dump log into the bottleneck. [header] must be a single JSON line. *)
let rate_limited_dump t ~ctx ~header =
  match t.config.dump_channel with
  | None -> ()
  | Some oc ->
      Mutex.lock t.dump_mutex;
      let now = Obs.Sink.now_us () in
      let allowed =
        now -. t.last_dump_us >= t.config.dump_min_interval_s *. 1e6
      in
      if allowed then t.last_dump_us <- now;
      Mutex.unlock t.dump_mutex;
      if not allowed then Obs.Counter.incr c_dumps_suppressed
      else begin
        Obs.Counter.incr c_dumps;
        output_string oc header;
        output_char oc '\n';
        Obs.Event.dump_jsonl ?ctx oc
      end

(* Snapshot the flight recorder's slice for one finished request.
   Triggered by latency over [slow_ms] or a non-ok status. *)
let maybe_dump t ~req_id ~status ~latency_us =
  let slow =
    match t.config.slow_ms with
    | Some threshold -> latency_us /. 1000. > threshold
    | None -> false
  in
  if slow || status <> "ok" then
    rate_limited_dump t ~ctx:(Some req_id)
      ~header:
        (Printf.sprintf
           "{\"dump\":\"slow-request\",\"req\":\"%s\",\"status\":\"%s\",\"latency_ms\":%.3f}"
           req_id status (latency_us /. 1000.))

(* The watchdog's view of a stuck task, routed into the same dump file
   with the stuck request's flight-recorder slice when its id is known. *)
let dump_stuck t (st : Obs.Health.stuck) =
  rate_limited_dump t ~ctx:st.Obs.Health.sctx
    ~header:
      (Printf.sprintf
         "{\"dump\":\"stuck-task\",\"task\":\"%s\",\"domain\":%d,\"age_ms\":%.0f%s}"
         st.Obs.Health.stask st.Obs.Health.sdomain
         (st.Obs.Health.sage_s *. 1000.)
         (match st.Obs.Health.sctx with
         | Some req -> Printf.sprintf ",\"req\":\"%s\"" req
         | None -> ""))

(* Saturation meters and SLO objectives for this server process. Meters
   read process-global state (registration replaces by name, so the
   latest server wins — a process runs one). *)
let g_pool_queue_depth = Obs.Gauge.make "pool.queue_depth"
let g_pool_capacity = Obs.Gauge.make "pool.capacity"
let g_heap_words = Obs.Gauge.make "gc.heap_words"

let register_health t =
  Obs.Health.set_task_budget_s t.config.task_budget_s;
  Obs.Health.set_stuck_hook (Some (dump_stuck t));
  (* queue fill relative to an 8x-capacity backlog: a short burst beyond
     the pool size is normal, a deep standing queue is saturation *)
  Obs.Health.register_meter "pool.queue" (fun () ->
      let cap = Float.max 1.0 (Obs.Gauge.value g_pool_capacity) in
      Obs.Gauge.value g_pool_queue_depth /. (8.0 *. cap));
  (* a full LRU is steady-state, not an incident: display-only *)
  Obs.Health.register_meter ~degraded_at:infinity ~unhealthy_at:infinity
    "cache" (fun () ->
      float_of_int (Cache.length t.cache)
      /. float_of_int (Cache.capacity t.cache));
  (* major heap footprint against a 4 GiB soft limit *)
  Obs.Health.register_meter "gc.heap" (fun () ->
      Obs.Gauge.value g_heap_words *. 8.0 /. 4e9);
  (* session-table fill: a full registry rejects creates, so nearing the
     cap is saturation in the health sense *)
  Obs.Health.register_meter "sessions" (fun () ->
      float_of_int (Session.count t.sessions)
      /. float_of_int (Session.capacity t.sessions));
  let latency_threshold_us =
    match t.config.default_deadline_ms with
    | Some d -> d *. 1000.
    | None -> 250_000.0
  in
  Obs.Slo.register ~name:"availability" ~target:0.99
    (Obs.Slo.Availability
       { family = "serve.requests"; good_values = [ "ok"; "degraded" ] });
  Obs.Slo.register ~name:"latency" ~target:0.99
    (Obs.Slo.Latency
       {
         histogram = "serve.request_latency_us";
         threshold_us = latency_threshold_us;
       })

(* One background tick: watchdog pass, idle-session sweep, SLO/GC
   sampling, and a status refresh so the health.status gauge tracks
   reality between scrapes. *)
let tick t =
  ignore (Obs.Health.check ());
  ignore (Session.evict_idle t.sessions);
  Obs.Memprof.sample ();
  Obs.Slo.sample ();
  ignore (Obs.Health.status ())

let create config =
  let t =
    {
      config;
      cache = Cache.create ~capacity:config.cache_capacity;
      sessions = Session.create config.session;
      pool = Parallel.Pool.create config.jobs;
      stopping = Atomic.make false;
      dump_mutex = Mutex.create ();
      last_dump_us = neg_infinity;
      ticker = None;
      created_us = Obs.Sink.now_us ();
      prehash_mutex = Mutex.create ();
      prehash_cur = Hashtbl.create 256;
      prehash_prev = Hashtbl.create 0;
    }
  in
  register_health t;
  (match config.watchdog_interval_s with
  | Some interval when interval > 0.0 ->
      t.ticker <-
        Some
          (Domain.spawn (fun () ->
               let rec loop () =
                 if not (Atomic.get t.stopping) then begin
                   Unix.sleepf interval;
                   tick t;
                   loop ()
                 end
               in
               loop ()))
  | Some _ | None -> ());
  t

(* A request that propagated a trace id is served under it (the client
   already owns the name); anything else gets a minted r<N>. The
   client's open span id, when sent, parents the server-side root phase
   so a merged client+server trace chains across the hop. *)
let adopt_trace trace =
  match (trace : Proto.trace_ctx option) with
  | Some tc -> (tc.Proto.tid, tc.Proto.parent)
  | None -> (next_request_id (), None)

let with_parent_span parent f =
  match parent with Some p -> Obs.Sink.with_span_id p f | None -> f ()

(* Heavy-tier shedding follows the health lattice: read live when the
   heavy solver is about to run, or fixed to the verdict a transport took
   when it admitted the frame. *)
let pressure_of verdict () =
  match verdict with
  | Some shed -> shed
  | None -> (
      match Obs.Health.status () with
      | Obs.Health.Ok -> false
      | Obs.Health.Degraded _ | Obs.Health.Unhealthy _ -> true)

let handle_request ?pressure t (req : Proto.request) =
  let req_id, parent_span = adopt_trace req.Proto.trace in
  Obs.Sink.with_ctx req_id @@ fun () ->
  with_parent_span parent_span @@ fun () ->
  Obs.Span.phase "serve.request" @@ fun () ->
  (* stamp the heartbeat inside the ctx so the watchdog can attribute a
     wedged domain to this request id *)
  Obs.Health.beat ();
  let start_us = Obs.Sink.now_us () in
  let alloc0 = Obs.Memprof.allocated_bytes () in
  Obs.Event.emit "serve.request"
    ([ ("hint", Obs.Event.Str (Option.value ~default:"auto" req.solver)) ]
    @
    match req.deadline_ms with
    | Some d -> [ ("deadline_ms", Obs.Event.Float d) ]
    | None -> []);
  let elapsed_us () = int_of_float (Obs.Sink.now_us () -. start_us) in
  let finish response =
    let latency_us = Obs.Sink.now_us () -. start_us in
    let alloc = Obs.Memprof.allocated_bytes () -. alloc0 in
    Obs.Histogram.observe h_latency_us latency_us;
    Obs.Histogram.observe h_alloc_bytes alloc;
    Obs.Memprof.sample ();
    let status =
      match response with
      | Proto.Error _ ->
          Obs.Labeled.incr c_req_error;
          Obs.Counter.incr c_errors;
          "error"
      | Proto.Reply r when r.Proto.degraded ->
          Obs.Labeled.incr c_req_degraded;
          "degraded"
      | Proto.Reply _ | Proto.Stats_reply _ | Proto.Events_reply _
      | Proto.Health_reply _ | Proto.Explain_reply _ | Proto.Session_reply _
      | Proto.Profile_reply _ ->
          Obs.Labeled.incr c_req_ok;
          "ok"
    in
    Obs.Event.emit "serve.request.done"
      ([
         ("status", Obs.Event.Str status);
         ("elapsed_us", Obs.Event.Int (elapsed_us ()));
         ("alloc_b", Obs.Event.Float alloc);
       ]
      @
      match response with
      | Proto.Reply r ->
          [
            ("solver", Obs.Event.Str r.Proto.solver);
            ("cache", Obs.Event.Str (if r.Proto.cache_hit then "hit" else "miss"));
            ("makespan", Obs.Event.Float r.Proto.makespan);
          ]
      | _ -> []);
    maybe_dump t ~req_id ~status ~latency_us;
    response
  in
  let deadline_ms =
    match req.deadline_ms with
    | Some _ as d -> d
    | None -> t.config.default_deadline_ms
  in
  let pressure = pressure_of pressure in
  let ph = Canon.prehash req.instance in
  let put key cached =
    Cache.put t.cache key cached;
    record_prehash t ph
  in
  (* Solve [instance], store a non-degraded result with [store] and
     reply with the assignment mapped back to the request's labeling by
     [to_request]. Storing (canonicalize, key, put, fingerprint) is a
     phase of its own, so the explain tree accounts for the work after
     the solve. *)
  let solve_and_store instance ~store ~to_request =
    match Dispatch.solve ?deadline_ms ?hint:req.solver ~pressure instance with
    | Error msg -> Proto.Error msg
    | Ok outcome ->
        let result = outcome.Dispatch.result in
        let assignment =
          Core.Schedule.assignment result.Algos.Common.schedule
        in
        if not outcome.Dispatch.degraded then
          Obs.Span.phase "serve.cache.store" (fun () ->
              store
                {
                  makespan = result.Algos.Common.makespan;
                  assignment;
                  solver = outcome.Dispatch.solver;
                });
        Proto.Reply
          {
            solver = outcome.Dispatch.solver;
            cache_hit = false;
            degraded = outcome.Dispatch.degraded;
            makespan = result.Algos.Common.makespan;
            elapsed_us = elapsed_us ();
            assignment = to_request assignment;
            trace = Some req_id;
          }
  in
  finish
  @@
  if not (prehash_seen t ph) then begin
    (* Unseen fingerprint: nothing with this pre-hash was ever cached,
       and relabelings always share a pre-hash, so the cache provably
       has no entry for this instance — skip the lookup-side
       canonicalization and solve the original labeling directly. The
       result is stored under its canonical key so relabeled twins
       (whose pre-hash is now seen) hit it. *)
    Obs.Counter.incr c_prehash_misses;
    solve_and_store req.instance ~to_request:Fun.id ~store:(fun cached ->
        match Canon.canonicalize req.instance with
        | exception Invalid_argument _ -> ()
        | canon ->
            put
              (Core.Instance_io.to_string canon.Canon.instance)
              {
                cached with
                assignment =
                  Canon.assignment_to_canonical canon cached.assignment;
              })
  end
  else begin
    Obs.Counter.incr c_prehash_hits;
    match Canon.canonicalize req.instance with
    | exception Invalid_argument msg -> Proto.Error msg
    | canon -> (
        let key = Core.Instance_io.to_string canon.Canon.instance in
        match Cache.find t.cache key with
        | Some hit ->
            Proto.Reply
              {
                solver = hit.solver;
                cache_hit = true;
                degraded = false;
                makespan = hit.makespan;
                elapsed_us = elapsed_us ();
                assignment = Canon.assignment_to_original canon hit.assignment;
                trace = Some req_id;
              }
        | None ->
            solve_and_store canon.Canon.instance ~store:(put key)
              ~to_request:(Canon.assignment_to_original canon))
  end

(* Stats frames answer from the process-wide registries; they are admin
   traffic, deliberately outside the request counters and the latency
   histogram so scraping does not perturb what it measures. *)
let handle_stats format =
  Obs.Memprof.sample ();
  let body =
    match (format : Proto.stats_format) with
    | Proto.Prometheus -> Obs.Expo.prometheus ()
    | Proto.Json -> Obs.Expo.json ()
  in
  Proto.Stats_reply { format; body }

(* Events frames answer from the flight recorder; like stats they are
   admin traffic, outside the request counters. *)
let handle_events ?count ~min_level () =
  let buf = Buffer.create 512 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Obs.Event.to_json_line e);
      Buffer.add_char buf '\n')
    (Obs.Event.recent ?count ~min_level ());
  Proto.Events_reply { body = Buffer.contents buf }

(* Health frames answer with a fresh snapshot: a watchdog pass, an SLO
   sample (so burn rates are current even without the ticker), then the
   rendered status/meter/slo/heartbeat lines. Admin traffic, outside the
   request counters. *)
let handle_health t =
  Obs.Memprof.sample ();
  Obs.Slo.sample ();
  ignore (Obs.Health.check ());
  let buf = Buffer.create 512 in
  let add line =
    Buffer.add_string buf line;
    Buffer.add_char buf '\n'
  in
  List.iter add (Obs.Health.render_lines ());
  add
    (Printf.sprintf "uptime_s %.1f"
       ((Obs.Sink.now_us () -. t.created_us) /. 1e6));
  List.iter add (Obs.Slo.render_lines ());
  Proto.Health_reply { body = Buffer.contents buf }

(* Explain frames answer from the phase recorder's bounded rings: the
   request must still be retained (recent enough) to be explainable.
   Line-oriented k=v records, [detail] last because it may contain
   spaces; every line starts with a known key so the [end] terminator
   stays unambiguous. *)
let handle_explain id =
  match Obs.Phase.recent ~ctx:id () with
  | [] ->
      Proto.Error
        (Printf.sprintf
           "no phases retained for trace %S (unknown id, or evicted from the \
            phase recorder)"
           id)
  | records ->
      let buf = Buffer.create 512 in
      Printf.bprintf buf "trace id=%s spans=%d\n" id (List.length records);
      List.iter
        (fun (r : Obs.Phase.record) ->
          Printf.bprintf buf
            "phase depth=%d sid=%d psid=%s name=%s dur_us=%.1f alloc_b=%.0f \
             start_us=%.1f detail=%s\n"
            (Obs.Phase.depth records r)
            r.Obs.Phase.id
            (match r.Obs.Phase.parent with
            | Some p -> string_of_int p
            | None -> "-")
            r.Obs.Phase.name r.Obs.Phase.dur_us r.Obs.Phase.alloc_bytes
            r.Obs.Phase.start_us r.Obs.Phase.detail)
        records;
      Proto.Explain_reply { body = Buffer.contents buf }

(* Session frames carry their own serve.session.* metrics (and a phase
   with the ambient request id for traces); they stay outside the
   serve.requests family, whose cells mean one-shot solve traffic. *)
let handle_session ?pressure t (sreq : Proto.session_request) =
  let req_id, parent_span = adopt_trace sreq.Proto.trace in
  Obs.Sink.with_ctx req_id @@ fun () ->
  with_parent_span parent_span @@ fun () ->
  Obs.Span.phase ~detail:("sid=" ^ sreq.Proto.sid) "serve.session"
  @@ fun () ->
  Obs.Health.beat ();
  match
    Session.handle t.sessions ~cache:t.cache
      ~default_deadline_ms:t.config.default_deadline_ms
      ~pressure:(pressure_of pressure) sreq
  with
  | Proto.Session_reply s ->
      (* stamp the served-under trace id on the ack and on the embedded
         solve reply so clients can join either against explain *)
      Proto.Session_reply
        {
          s with
          trace = Some req_id;
          solve =
            Option.map
              (fun (r : Proto.reply) -> { r with Proto.trace = Some req_id })
              s.Proto.solve;
        }
  | other -> other

(* Profile frames drive [Obs.Profile] in-band. The engines are
   process-wide, so a capture sees every domain's work, not just this
   worker's; the capture window parks this worker in [sleepf]
   (health-marked as waiting, not wedged) while the rest of the pool
   keeps solving — which is exactly the traffic being profiled. *)
let handle_profile (pr : Proto.profile_request) =
  let status_body () =
    String.concat "\n" (Obs.Profile.status_lines ()) ^ "\n"
  in
  let rendered () =
    Obs.Profile.render ?ctx:pr.Proto.pfilter pr.Proto.pformat
  in
  match pr.Proto.paction with
  | Proto.P_status -> Proto.Profile_reply { body = status_body () }
  | Proto.P_start -> (
      match Obs.Profile.start ?rate:pr.Proto.prate pr.Proto.pmode with
      | Ok () -> Proto.Profile_reply { body = status_body () }
      | Error msg -> Proto.Error msg)
  | Proto.P_stop ->
      if Obs.Profile.running () = None then Proto.Error "profiler not running"
      else begin
        (* render before disarming so the rings are not cleared by a
           future start between the two steps *)
        let body = rendered () in
        Obs.Profile.stop ();
        Proto.Profile_reply { body }
      end
  | Proto.P_capture seconds -> (
      match Obs.Profile.start ?rate:pr.Proto.prate pr.Proto.pmode with
      | Error msg -> Proto.Error msg
      | Ok () ->
          Obs.Health.waiting ();
          Unix.sleepf seconds;
          Obs.Health.beat ();
          let body = rendered () in
          Obs.Profile.stop ();
          Proto.Profile_reply { body })

(* One incoming frame, one response — the dispatch shared by both
   transports (stdio's channel loop here, the mux event loop's parsed
   frames). Solve and session frames carry their own heartbeats inside
   their request context; admin frames beat here. *)
let handle_incoming ?pressure t (incoming : Proto.incoming) =
  match incoming with
  | Proto.Solve req -> handle_request ?pressure t req
  | Proto.Stats format ->
      Obs.Health.beat ();
      handle_stats format
  | Proto.Events { count; min_level } ->
      Obs.Health.beat ();
      handle_events ?count ~min_level ()
  | Proto.Health ->
      Obs.Health.beat ();
      handle_health t
  | Proto.Explain id ->
      Obs.Health.beat ();
      handle_explain id
  | Proto.Session sreq -> handle_session ?pressure t sreq
  | Proto.Profile pr ->
      Obs.Health.beat ();
      handle_profile pr

(* A frame that failed to parse still gets exactly one response; it
   counts as an error in the request family like any other failure. *)
let protocol_error msg =
  Obs.Counter.incr c_errors;
  Obs.Labeled.incr c_req_error;
  Proto.Error msg

(* Shedding strips the solver budget instead of refusing service: the
   frame is answered through the same dispatch path with deadline 0,
   which yields the near-linear fast path and a [degraded] reply — or
   the cached result when one exists, which costs nothing and is better
   than degrading. *)
let shed t (incoming : Proto.incoming) =
  match incoming with
  | Proto.Profile _ ->
      Proto.Error "overloaded: profile frame shed (retry when healthy)"
  | Proto.Solve req ->
      handle_incoming t (Proto.Solve { req with Proto.deadline_ms = Some 0.0 })
  | Proto.Session ({ op = Proto.S_resolve _; _ } as sreq) ->
      handle_incoming t
        (Proto.Session
           { sreq with Proto.op = Proto.S_resolve { deadline_ms = Some 0.0 } })
  | Proto.Session _ | Proto.Stats _ | Proto.Events _ | Proto.Health
  | Proto.Explain _ ->
      (* session mutations are O(delta) bookkeeping and admin frames read
         registries — cheap enough to run rather than fail *)
      handle_incoming t incoming

type service = {
  pool : Parallel.Pool.t;
  run : pressure:bool -> Proto.incoming -> Proto.response;
  admin_on_loop : bool;
  shed : Proto.incoming -> Proto.response;
}

let service (t : t) =
  {
    pool = t.pool;
    run = (fun ~pressure incoming -> handle_incoming ~pressure t incoming);
    admin_on_loop = true;
    shed = shed t;
  }

let serve_channels t ic oc =
  let respond response =
    Proto.write_response oc response;
    (* the session is about to park in [read_incoming]; a blocked read
       is not a wedged task *)
    Obs.Health.waiting ()
  in
  let rec loop () =
    match Proto.read_incoming ic with
    | Ok None -> ()
    | Ok (Some incoming) ->
        respond (handle_incoming t incoming);
        loop ()
    | Error msg ->
        respond (protocol_error msg);
        loop ()
  in
  loop ()

let run_stdio t = serve_channels t stdin stdout

let shutdown t =
  Atomic.set t.stopping true;
  (* the ticker re-checks [stopping] after each sleep, so joining waits
     at most one interval *)
  (match t.ticker with
  | Some d ->
      Domain.join d;
      t.ticker <- None
  | None -> ());
  Obs.Health.set_stuck_hook None;
  Parallel.Pool.wait_idle t.pool;
  Parallel.Pool.shutdown t.pool
