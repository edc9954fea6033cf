(* The serving benchmark. A run drives one workload against an in-process
   Serve.Mux on loopback TCP: two client connections in a closed loop,
   a server pool of two (one worker domain), the watchdog off, no
   deadlines. It prints the end-to-end metrics — or, with --trace 1, the
   per-layer metrics of a traced run — as a table, then one JSON summary
   as the last line of stdout. README.md has the metric definitions.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --workload NAME --seed N --counts-only *)

module P = Serve.Proto
module W = Workload
open Util

let server_config =
  {
    Serve.Server.default_config with
    jobs = 2;
    cache_capacity = 256;
    watchdog_interval_s = None;
  }

(* --- a live server ------------------------------------------------------ *)

type live = {
  server : Serve.Server.t;
  mux : Serve.Mux.t;
  runner : unit Domain.t;
  conns : Client.conn array;
}

let start () =
  let server = Serve.Server.create server_config in
  let mux = Serve.Mux.create server in
  let port =
    match Serve.Mux.add_tcp mux ~host:"127.0.0.1" ~port:0 with
    | Unix.ADDR_INET (_, port) -> port
    | Unix.ADDR_UNIX _ -> failwith "expected a TCP address"
  in
  let runner = Domain.spawn (fun () -> Serve.Mux.run mux) in
  {
    server;
    mux;
    runner;
    conns = Array.init W.connections (fun _ -> Client.connect port);
  }

let stop live =
  Array.iter Client.close live.conns;
  Serve.Mux.stop live.mux;
  Domain.join live.runner;
  Serve.Server.shutdown live.server

(* --- set-up --------------------------------------------------------------- *)

type setup = {
  live : live;
  w : W.workload;
  primed : Client.tally;  (* the priming replies, logged for the replay *)
}

(* Server start, workload generation and (hit-relabel) cache priming. *)
let setup kind ~seed =
  let live = start () in
  let w = W.generate kind ~seed in
  let primed = Client.tally ~keep_log:true () in
  let bases = w.W.bases in
  let streams =
    Array.init W.connections (fun conn ->
        let next = ref conn in
        fun () ->
          let b = !next in
          next := b + W.connections;
          W.solve_item ~id:(-1 - b) bases.(b))
  in
  Client.run live.conns streams ~limit:(Array.length bases / W.connections)
    ~deadline_us:infinity primed;
  { live; w; primed }

let setup_reps = 5

(* Set up [reps] times and keep the last: set-up time is reported as the
   median, so work moved into set-up shows. *)
let timed_setup kind ~seed ~reps =
  let rec go k times =
    let t0 = now_us () in
    let s = setup kind ~seed in
    let times = ((now_us () -. t0) /. 1e6) :: times in
    if k >= reps then (s, times)
    else begin
      stop s.live;
      (* The stopped mux's loop domain leaves its heartbeat slot behind
         as a working task; once older than the task budget, the health
         lattice would report it stuck and shed the live server's heavy
         tier. Forget it, as a fresh process would. *)
      Obs.Health.reset ();
      (* free this set-up before the next, so the peak heap does not
         depend on when the collector got to it *)
      Gc.full_major ();
      go (k + 1) times
    end
  in
  go 1 []

let median_of xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- work counters --------------------------------------------------------- *)

let work_prefixes =
  [
    "lp.simplex.";
    "core.binary_search.probes";
    "algos.exact.nodes";
    "algos.incremental.";
    "serve.cache_";
    "serve.canon.prehash_";
    "serve.dispatch.";
  ]

let labeled_values () =
  List.map
    (fun (s : Obs.Labeled.sample) ->
      (Printf.sprintf "%s{%s}" s.Obs.Labeled.metric s.Obs.Labeled.label_value, s.Obs.Labeled.value))
    (Obs.Labeled.snapshot ())

let work_counters () =
  List.filter
    (fun (name, _) -> List.exists (fun prefix -> String.starts_with ~prefix name) work_prefixes)
    (Obs.Counter.snapshot ())
  @ List.filter
      (fun (name, _) -> String.starts_with ~prefix:"serve.session.resolve{" name)
      (labeled_values ())

let get l name = Option.value ~default:0 (List.assoc_opt name l)
let delta before after = List.map (fun (name, v) -> (name, v - get before name)) after

(* The fixed prefix: deterministic work counts, and the warm-up of the
   timed window. Returns the streams, positioned after the prefix. *)
let prefix_phase s =
  let streams =
    Array.init W.connections (fun conn -> W.stream s.w ~conn ~start:0)
  in
  let before = work_counters () in
  let t = Client.tally () in
  Client.run s.live.conns streams ~limit:(W.prefix_frames s.w.W.kind) ~deadline_us:infinity t;
  let counts = delta before (work_counters ()) in
  (streams, t, counts, W.digest s.w)

(* --- windows ----------------------------------------------------------- *)

type snap = {
  wall_us : float;  (* the clock Obs.Phase records carry *)
  counters : (string * int) list;
  labeled : (string * int) list;
  gc : Gc.stat;
  exact_solves : int;
}

let hist name = Option.map Obs.Histogram.merged (Obs.Histogram.find name)

let snap () =
  {
    wall_us = Obs.Sink.now_us ();
    counters = Obs.Counter.snapshot ();
    labeled = labeled_values ();
    gc = Gc.quick_stat ();
    exact_solves =
      Option.fold ~none:0 ~some:(fun s -> s.Obs.Histogram.count) (hist "algos.exact.nodes_per_solve");
  }

let shed a b =
  List.fold_left
    (fun acc outcome ->
      let name = Printf.sprintf "serve.mux.admission{%s}" outcome in
      acc + get b.labeled name - get a.labeled name)
    0
    [ "shed_queue_full"; "shed_pressure"; "shed_deadline" ]

let window ?spans ?(keep_log = false) live streams ~seconds =
  let t = Client.tally ~keep_log () in
  let start_us = now_us () in
  Client.run ?spans live.conns streams ~limit:max_int
    ~deadline_us:(start_us +. (seconds *. 1e6)) t;
  (t, start_us)

(* The end-to-end timings are medians over [k] equal spans of the window
   of [f] applied to the sorted latencies completed in each span, so a
   brief disturbance of the machine moves one span's figure, not the
   run's. *)
let over_parts (t : Client.tally) ~start_us ~seconds ~k f =
  let parts = Array.init k (fun _ -> Fvec.create ()) in
  let part_us = seconds *. 1e6 /. float_of_int k in
  for i = 0 to Fvec.length t.Client.latency_us - 1 do
    let p = int_of_float ((Fvec.get t.Client.done_us i -. start_us) /. part_us) in
    Fvec.push parts.(max 0 (min (k - 1) p)) (Fvec.get t.Client.latency_us i)
  done;
  median_of (Array.to_list (Array.map (fun v -> f (Fvec.sorted v)) parts))

let parts = 5

(* --- output ----------------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string; better : string; note : string }

let metric ?(better = "lower") ?(note = "") name value unit = { name; value; unit; better; note }

let print_table metrics =
  List.iter
    (fun m -> Printf.printf "  %-40s %16.6g  %-8s %-7s %s\n" m.name m.value m.unit m.better m.note)
    metrics

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_summary ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (json_number m.value) m.unit)
          metrics))

let print_failures label (t : Client.tally) =
  Option.iter (fun msg -> Printf.printf "  %s: first failure: %s\n" label msg) t.Client.first_failure

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

(* --- the three modes ---------------------------------------------------- *)

let counts_only kind ~name ~seed =
  let s, _ = timed_setup kind ~seed ~reps:1 in
  Fun.protect ~finally:(fun () -> stop s.live) @@ fun () ->
  let _, prefix, counts, digest = prefix_phase s in
  Printf.printf
    "{\"workload\": \"%s\", \"seed\": %d, \"digest\": \"%s\", \"failed\": %d, \"counters\": {%s}}\n%!"
    name seed digest
    (Client.failed prefix + Client.failed s.primed)
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) counts))

let end_to_end kind ~name ~seed ~seconds =
  let s, setup_times = timed_setup kind ~seed ~reps:setup_reps in
  Fun.protect ~finally:(fun () -> stop s.live) @@ fun () ->
  let streams, prefix, counts, digest = prefix_phase s in
  let a = snap () in
  let t, start_us = window s.live streams ~seconds in
  let b = snap () in
  let shed = shed a b in
  let failed = Client.failed t + shed in
  let n = Fvec.length t.Client.latency_us in
  let per_part k f = over_parts t ~start_us ~seconds ~k f in
  (* fewer, longer spans for p99 where samples are scarce, so each span
     keeps at least 10 samples beyond its p99 *)
  let k99 = max 1 (min parts (n / 1000)) in
  let beyond = (n / k99) - int_of_float (Float.ceil (0.99 *. float_of_int (n / k99))) in
  let quality = Client.quality_ratio_mean t ~lower_bound:(W.lower_bound s.w) in
  let metrics =
    [
      metric "throughput_rps" ~better:"higher"
        (per_part parts (fun lat ->
             float_of_int (Float.Array.length lat) /. (seconds /. float_of_int parts)))
        "1/s"
        ~note:
          (Printf.sprintf "median of %d spans; %d schedule-bearing replies in %g s" parts
             t.Client.schedules seconds);
      metric "latency_p50_ms"
        (per_part parts (fun lat -> quantile lat 0.5) /. 1000.)
        "ms"
        ~note:(Printf.sprintf "median of %d spans; %d samples" parts n);
      metric "latency_p99_ms"
        (per_part k99 (fun lat -> quantile lat 0.99) /. 1000.)
        "ms"
        ~note:(Printf.sprintf "median of %d spans; %d samples, ~%d beyond each span's p99" k99 n beyond);
      metric "quality_ratio_mean" quality "ratio"
        ~note:(Printf.sprintf "%d replies, makespan / Core.Bounds.lower_bound" t.Client.schedules);
      metric "setup_s" (median_of setup_times) "s"
        ~note:(Printf.sprintf "median of %d set-ups" (List.length setup_times));
      metric "peak_heap_mb" (peak_heap_mb ()) "MiB" ~note:"Gc top heap words";
    ]
  in
  let reported =
    [
      metric "failed_share" (ratio_i failed t.Client.attempted) "ratio"
        ~note:
          (Printf.sprintf "%d of %d frames: errors %d, transport %d, check %d, shed %d" failed
             t.Client.attempted t.Client.errors t.Client.transport t.Client.bad shed);
      metric "degraded_share"
        (ratio_i t.Client.degraded t.Client.schedules)
        "ratio"
        ~note:(Printf.sprintf "%d of %d replies" t.Client.degraded t.Client.schedules);
    ]
  in
  Printf.printf "workload %s seed %d: %d connections, closed loop, %g s window, pool jobs %d\n"
    name seed W.connections seconds server_config.Serve.Server.jobs;
  print_table (List.filteri (fun i _ -> i < 3) metrics @ reported @ List.filteri (fun i _ -> i >= 3) metrics);
  Printf.printf "prefix: %d frames per connection, digest %s\n" (W.prefix_frames kind) digest;
  List.iter (fun (k, v) -> Printf.printf "  %-40s %d\n" k v) counts;
  print_failures "priming" s.primed;
  print_failures "prefix" prefix;
  print_failures "window" t;
  let correct =
    failed = 0 && t.Client.degraded = 0 && t.Client.schedules > 0
    && Client.failed prefix = 0
    && Client.failed s.primed = 0
  in
  print_summary ~correct ~attempted:t.Client.attempted ~failed metrics

(* --- the traced run ------------------------------------------------------ *)

let output_dir () =
  let root = Option.value ~default:".bench_build" (Sys.getenv_opt "CARGO_TARGET_DIR") in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  let dir = Filename.concat root "perfbench" in
  mkdir_p dir;
  dir

let hist_p50 name =
  match hist name with
  | Some s when s.Obs.Histogram.count > 0 -> Obs.Histogram.quantile s 0.5
  | Some _ | None -> 0.0

let lp_ms_per_solve ~from_us ~to_us =
  let durs =
    List.filter_map
      (fun (r : Obs.Phase.record) ->
        if r.Obs.Phase.name = "lp.simplex.solve" && r.Obs.Phase.start_us >= from_us
           && r.Obs.Phase.start_us <= to_us
        then Some r.Obs.Phase.dur_us
        else None)
      (Obs.Phase.snapshot ())
  in
  ratio (List.fold_left ( +. ) 0.0 durs) (float_of_int (List.length durs)) /. 1000.

let layer_metrics ~sp ~(r : Replay.t) ~(t : Client.tally) ~a ~b ~window_s ~rps_plain ~lp_ms
    ~mux_wait ~pool_wait =
  let d name = get b.counters name - get a.counters name in
  let dl name = get b.labeled name - get a.labeled name in
  let med name = median (Spans.durations sp name) in
  let replies = t.Client.schedules in
  let heavy = d "serve.dispatch.heavy_runs" in
  let dispatches = heavy + d "serve.dispatch.fast_only" + d "serve.dispatch.degraded" + d "serve.dispatch.shed" in
  let lp_solves = d "lp.simplex.solves" in
  let resolves = d "serve.session.resolves" in
  let mode m = ratio_i (dl (Printf.sprintf "serve.session.resolve{%s}" m)) resolves in
  let prehash = d "serve.canon.prehash_hits" + d "serve.canon.prehash_misses" in
  let lookups = d "serve.cache_hits" + d "serve.cache_misses" in
  let total_candidate_ms = Array.fold_left (fun acc c -> acc +. c.Replay.ms) 0.0 r.Replay.portfolio in
  let portfolio =
    List.concat
      (List.mapi
         (fun i (cname, _) ->
           let c = r.Replay.portfolio.(i) in
           let p = "portfolio." ^ cname in
           [
             metric (p ^ ".ms") (ratio c.Replay.ms (float_of_int c.Replay.calls)) "ms";
             metric (p ^ ".wins") ~better:"higher" (float_of_int c.Replay.wins) "count";
             metric (p ^ ".time_share") (ratio c.Replay.ms total_candidate_ms) "ratio";
             metric (p ^ ".win_share") ~better:"higher"
               (ratio_i c.Replay.wins r.Replay.portfolio_runs)
               "ratio";
           ])
         Replay.candidates)
  in
  let rps_traced = float_of_int replies /. window_s in
  [
    metric "mux.overhead_us_p50" (median t.Client.overhead_us) "us";
    metric "mux.queue_wait_us_p50" mux_wait "us";
    metric "mux.shed" (float_of_int (shed a b)) "count";
    metric "proto.decode_us" (med "proto.decode") "us";
    metric "proto.encode_us" (med "proto.encode") "us";
    metric "proto.request_bytes" (Fvec.mean r.Replay.request_bytes) "bytes";
    metric "proto.reply_bytes" (Fvec.mean r.Replay.reply_bytes) "bytes";
    metric "canon.prehash_us" (med "canon.prehash") "us";
    metric "canon.canonicalize_us" (med "canon.canonicalize") "us";
    metric "canon.key_us" (med "canon.key") "us";
    metric "canon.map_back_us" (med "canon.map_back") "us";
    metric "canon.prehash_hit_ratio" ~better:"higher" (ratio_i (d "serve.canon.prehash_hits") prehash) "ratio";
    metric "cache.find_us" (med "cache.find") "us";
    metric "cache.put_us" (med "cache.put") "us";
    metric "cache.hit_ratio" ~better:"higher" (ratio_i (d "serve.cache_hits") lookups) "ratio";
    metric "cache.evictions" (ratio_i (d "serve.cache_evictions") replies) "1/req";
    metric "dispatch.solve_ms_p50" (med "dispatch.solve" /. 1000.) "ms";
    metric "dispatch.heavy_share" (ratio_i heavy dispatches) "ratio";
    metric "dispatch.heavy_useful_share" ~better:"higher" (ratio_i t.Client.heavy_kept heavy) "ratio";
    metric "dispatch.degraded" (float_of_int (d "serve.dispatch.degraded" + d "serve.dispatch.shed")) "count";
  ]
  @ portfolio
  @ [
      metric "portfolio.polish.ms" (Fvec.mean (Spans.durations sp "portfolio.polish") /. 1000.) "ms";
      metric "lp.solves" (ratio_i lp_solves replies) "1/req";
      metric "lp.iters" (ratio_i (d "lp.simplex.phase1_iters" + d "lp.simplex.phase2_iters") lp_solves) "1/solve";
      metric "lp.degenerate_pivots" (ratio_i (d "lp.simplex.degenerate_pivots") lp_solves) "1/solve";
      metric "lp.ms_per_solve" lp_ms "ms";
      metric "binsearch.probes_per_heavy" (ratio_i (d "core.binary_search.probes") heavy) "1/run";
      metric "exact.nodes" (ratio_i (d "algos.exact.nodes") (b.exact_solves - a.exact_solves)) "1/solve";
      metric "exact.ns_per_node" (ratio (r.Replay.exact_us *. 1000.) (float_of_int r.Replay.exact_nodes)) "ns";
      metric "session.mutate_us_p50" (med "session.mutate") "us";
      metric "session.resolve_ms_p50" (med "session.resolve" /. 1000.) "ms";
      metric "session.repair_share" ~better:"higher" (mode "repair") "ratio";
      metric "session.fallback_share" (mode "fallback") "ratio";
      metric "session.cache_share" ~better:"higher" (mode "cache") "ratio";
      metric "incremental.greedy_placed"
        (ratio_i (d "algos.incremental.greedy_placed") (d "algos.incremental.repairs"))
        "1/repair";
      metric "bounds.lb_us" (med "bounds.lb") "us";
      metric "pool.queue_wait_us_p50" pool_wait "us";
      (* one worker domain serves the pool *)
      metric "pool.busy_share" (ratio (float_of_int (d "pool.task_run_us")) (window_s *. 1e6)) "ratio";
      metric "obs.trace_overhead_pct" (100. *. ratio (rps_plain -. rps_traced) rps_plain) "%";
      metric "gc.minor_mb_per_req"
        (ratio ((b.gc.Gc.minor_words -. a.gc.Gc.minor_words) *. float_of_int (Sys.word_size / 8) /. 1048576.0)
           (float_of_int replies))
        "MiB/req";
      metric "gc.major_collections" (float_of_int (b.gc.Gc.major_collections - a.gc.Gc.major_collections)) "count";
      metric "trace.unattributed_share"
        (ratio (r.Replay.server_us -. r.Replay.attributed_us) r.Replay.server_us)
        "ratio";
      metric "trace.replayed_requests" ~better:"higher" (float_of_int r.Replay.replayed) "count";
    ]

let traced kind ~name ~seed ~seconds =
  let s, _ = timed_setup kind ~seed ~reps:1 in
  Fun.protect ~finally:(fun () -> stop s.live) @@ fun () ->
  let streams, prefix, _, _ = prefix_phase s in
  let third = seconds /. 3.0 in
  let plain, _ = window s.live streams ~seconds:third in
  let rps_plain = float_of_int plain.Client.schedules /. third in
  let streams =
    Array.init W.connections (fun conn ->
        W.stream s.w ~conn ~start:W.traced_start)
  in
  List.iter
    (fun h -> Option.iter Obs.Histogram.reset (Obs.Histogram.find h))
    [ "serve.mux.queue_wait_us"; "pool.queue_wait_latency_us" ];
  let sp = Spans.create () in
  let a = snap () in
  let t, _ = window ~spans:sp ~keep_log:true s.live streams ~seconds:third in
  let b = snap () in
  let mux_wait = hist_p50 "serve.mux.queue_wait_us" in
  let pool_wait = hist_p50 "pool.queue_wait_latency_us" in
  let lp_ms = lp_ms_per_solve ~from_us:a.wall_us ~to_us:b.wall_us in
  let dir = output_dir () in
  let r =
    Replay.create ~capacity:server_config.Serve.Server.cache_capacity
      ~wire_path:(Filename.concat dir "frame.tmp") ~sp ~primed:(List.rev s.primed.Client.log)
  in
  Replay.run r ~log:(List.rev t.Client.log) ~budget_s:third ~extras:(kind = W.Cold_portfolio);
  let metrics =
    layer_metrics ~sp ~r ~t ~a ~b ~window_s:third ~rps_plain ~lp_ms ~mux_wait ~pool_wait
  in
  let spans_path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.json" name seed) in
  Spans.write sp spans_path;
  let failed = Client.failed t + shed a b in
  Printf.printf
    "workload %s seed %d: traced run, %g s untraced + %g s traced window, %d of %d frames replayed \
     in-process (%d makespan mismatches)\n"
    name seed third third r.Replay.replayed t.Client.schedules r.Replay.mismatches;
  print_table metrics;
  Printf.printf "spans: %d written to %s\n" (Spans.count sp) spans_path;
  print_failures "prefix" prefix;
  print_failures "untraced window" plain;
  print_failures "traced window" t;
  let correct =
    failed = 0 && Client.failed plain = 0 && Client.failed prefix = 0
    && t.Client.schedules > 0 && r.Replay.mismatches = 0
  in
  print_summary ~correct ~attempted:t.Client.attempted ~failed metrics

(* --- command line -------------------------------------------------------- *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref 0 and counts = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME hit-relabel, cold-portfolio or session-churn");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 1: the traced run and its per-layer metrics");
      ("--counts-only", Arg.Set counts, " print the frame-stream digest and work counts of the fixed prefix");
    ]
  in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.assoc_opt !workload W.kinds with
  | None ->
      Printf.eprintf "perfbench: unknown workload %S (expected one of: %s)\n" !workload
        (String.concat ", " (List.map fst W.kinds));
      exit 2
  | Some _ when !seconds < 1.0 || (!trace <> 0 && !trace <> 1) ->
      prerr_endline usage;
      exit 2
  | Some kind -> (
      Client.hard_stop_us := now_us () +. 170e6;
      let name = !workload and seed = !seed and seconds = !seconds in
      try
        if !counts then counts_only kind ~name ~seed
        else if !trace = 1 then traced kind ~name ~seed ~seconds
        else end_to_end kind ~name ~seed ~seconds
      with e ->
        Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
        exit 1)
