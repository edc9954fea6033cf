(* Continuous sampling profiler. Two engines share one sample store:

     Cpu    ITIMER_PROF fires SIGPROF every 1/hz seconds of CPU time;
            the handler captures [Printexc.get_callstack] for whichever
            domain the signal lands on. Weight 1.0 per sample, so a
            frame's aggregate weight approximates its CPU share.
     Alloc  [Gc.Memprof] (claimed through [Memprof.start_sampler] so
            the gc gauges and any future user compose) delivers the
            allocation site's callstack with an unbiased byte estimate
            as the weight.

   Samples land in a per-domain Ring, whose lock-free registration lets
   the SIGPROF handler initialise a domain's ring. Merging happens at
   read time in [samples]/[aggregate]; the handler only ever touches its
   own domain's ring, a few atomics, and DLS refs, all
   async-signal-safe at the OCaml level because handlers run at
   safepoints.

   Overhead guard: when the health gauge reports Unhealthy (severity
   >= 2, see [Health]), samples are dropped at the door and counted in
   [obs.profile.dropped] — a struggling process sheds its profiler
   first. *)

type mode = Cpu | Alloc

let mode_to_string = function Cpu -> "cpu" | Alloc -> "alloc"

let mode_of_string = function
  | "cpu" -> Ok Cpu
  | "alloc" -> Ok Alloc
  | s -> Error (Printf.sprintf "unknown profile mode %S (want cpu|alloc)" s)

type format = Collapsed | Json

let format_to_string = function Collapsed -> "collapsed" | Json -> "json"

let format_of_string = function
  | "collapsed" -> Ok Collapsed
  | "json" -> Ok Json
  | s -> Error (Printf.sprintf "unknown profile format %S (want collapsed|json)" s)

let default_cpu_hz = 99.0
let default_alloc_rate = 1e-4
let max_depth = 64

(* --- sample store -------------------------------------------------- *)

type sample = {
  bt : Printexc.raw_backtrace;
  weight : float;
  ctx : string option;
}

let default_capacity = 8192

let ring =
  Ring.create ~capacity:default_capacity
    { bt = Printexc.get_callstack 0; weight = 0.0; ctx = None }

let clear () = Ring.clear ring

(* --- counters and pause guard -------------------------------------- *)

let c_samples = Counter.make "obs.profile.samples"
let c_dropped = Counter.make "obs.profile.dropped"
let c_overruns = Counter.make "obs.profile.overruns"

(* Interned: the same gauge [Health.status] refreshes with its severity
   (0 ok, 1 degraded, 2 unhealthy). Reading a gauge is one atomic load,
   cheap enough for the signal handler; calling [Health.status] there
   would run checks and take locks. *)
let g_health = Gauge.make "health.status"
let paused () = Gauge.value g_health >= 2.0

let record ?bt weight =
  if paused () then Counter.incr c_dropped
  else begin
    let r = Ring.mine ring in
    if Ring.pushed r >= Ring.capacity ring then Counter.incr c_overruns;
    let bt =
      match bt with Some b -> b | None -> Printexc.get_callstack max_depth
    in
    Ring.push r { bt; weight; ctx = Sink.current_ctx () };
    Counter.incr c_samples
  end

(* --- engines ------------------------------------------------------- *)

type engine = {
  e_mode : mode;
  e_rate : float; (* hz for Cpu, sampling rate for Alloc *)
  e_started_us : float;
  e_prev : Sys.signal_behavior; (* restored on stop (Cpu only) *)
}

let state_mutex = Mutex.create ()
let current : engine option ref = ref None

let on_sigprof (_signum : int) = record 1.0

let locked f =
  Mutex.lock state_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock state_mutex) f

let start ?rate mode =
  locked (fun () ->
      match !current with
      | Some e ->
          Error
            (Printf.sprintf "profiler already running (mode=%s)"
               (mode_to_string e.e_mode))
      | None -> (
          match mode with
          | Cpu ->
              let hz = Option.value ~default:default_cpu_hz rate in
              if not (hz > 0.0 && hz <= 10_000.0) then
                Error (Printf.sprintf "cpu rate %g out of range (0, 10000] hz" hz)
              else begin
                clear ();
                let prev =
                  Sys.signal Sys.sigprof (Sys.Signal_handle on_sigprof)
                in
                let interval = 1.0 /. hz in
                ignore
                  (Unix.setitimer Unix.ITIMER_PROF
                     { Unix.it_interval = interval; it_value = interval });
                current :=
                  Some
                    {
                      e_mode = Cpu;
                      e_rate = hz;
                      e_started_us = Sink.now_us ();
                      e_prev = prev;
                    };
                Ok ()
              end
          | Alloc -> (
              let sr = Option.value ~default:default_alloc_rate rate in
              if not (sr > 0.0 && sr <= 1.0) then
                Error
                  (Printf.sprintf "alloc sampling rate %g out of range (0, 1]"
                     sr)
              else
                match
                  Memprof.start_sampler ~owner:"obs.profile.alloc"
                    ~sampling_rate:sr ~callback:(fun ~bytes ~callstack ->
                      record ~bt:callstack bytes)
                with
                | Error _ as e -> e
                | Ok () ->
                    clear ();
                    current :=
                      Some
                        {
                          e_mode = Alloc;
                          e_rate = sr;
                          e_started_us = Sink.now_us ();
                          e_prev = Sys.Signal_default;
                        };
                    Ok ())))

let stop () =
  locked (fun () ->
      match !current with
      | None -> ()
      | Some e ->
          (match e.e_mode with
          | Cpu ->
              ignore
                (Unix.setitimer Unix.ITIMER_PROF
                   { Unix.it_interval = 0.0; it_value = 0.0 });
              Sys.set_signal Sys.sigprof e.e_prev
          | Alloc -> Memprof.stop_sampler ());
          current := None)

let running () =
  locked (fun () -> Option.map (fun e -> e.e_mode) !current)

(* --- status -------------------------------------------------------- *)

type stat = {
  s_mode : mode option;
  s_rate : float;
  s_started_us : float;
  s_samples : int;
  s_dropped : int;
  s_overruns : int;
  s_retained : int;
  s_rings : int;
}

let stat () =
  let e = locked (fun () -> !current) in
  {
    s_mode = Option.map (fun e -> e.e_mode) e;
    s_rate = (match e with Some e -> e.e_rate | None -> 0.0);
    s_started_us = (match e with Some e -> e.e_started_us | None -> 0.0);
    s_samples = Counter.value c_samples;
    s_dropped = Counter.value c_dropped;
    s_overruns = Counter.value c_overruns;
    s_retained = List.length (Ring.items ring);
    s_rings = Ring.rings ring;
  }

let status_lines () =
  let s = stat () in
  [
    Printf.sprintf "engine mode=%s running=%b rate=%g"
      (match s.s_mode with Some m -> mode_to_string m | None -> "-")
      (s.s_mode <> None) s.s_rate;
    Printf.sprintf "totals samples=%d dropped=%d overruns=%d retained=%d rings=%d"
      s.s_samples s.s_dropped s.s_overruns s.s_retained s.s_rings;
  ]

(* --- symbolization and aggregation --------------------------------- *)

(* Frame names feed the collapsed format ("a;b;c weight"), so the two
   separators must never appear inside a frame. *)
let sanitize_frame name =
  String.map
    (fun c -> match c with ';' | ' ' | '\t' | '\n' | '\r' -> '_' | c -> c)
    name

let frame_name slot =
  match Printexc.Slot.name slot with
  | Some n -> sanitize_frame n
  | None -> (
      match Printexc.Slot.location slot with
      | Some l ->
          sanitize_frame
            (Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number)
      | None -> "?")

(* The profiler's own frames (record, the SIGPROF closure) sit innermost
   on every CPU sample; strip them so flamegraph leaves are user code. *)
let internal_frame name =
  let has_prefix p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  has_prefix "Obs.Profile." || has_prefix "Obs__Profile."
  || has_prefix "Stdlib.Printexc" || has_prefix "Stdlib__Printexc"

(* Root-first frame list for one raw backtrace. *)
let stack_of_backtrace bt =
  match Printexc.backtrace_slots bt with
  | None -> [ "?" ]
  | Some slots ->
      (* slots are innermost-first; skip leading internal frames, then
         reverse into root-first order *)
      let n = Array.length slots in
      let first = ref 0 in
      while !first < n && internal_frame (frame_name slots.(!first)) do
        incr first
      done;
      if !first >= n then [ "?" ]
      else
        let kept = n - !first in
        List.init kept (fun i -> frame_name slots.(n - 1 - i))

let samples ?ctx () =
  List.filter_map
    (fun s ->
      match ctx with
      | Some want when s.ctx <> Some want -> None
      | _ -> Some (stack_of_backtrace s.bt, s.weight))
    (Ring.items ring)

(* Pure fold from weighted stacks to collapsed lines, sorted by stack
   string — the order samples arrive in (ring order, domain order)
   cannot show in the output, which the merge-invariance test relies
   on. *)
let collapse stacks =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (frames, w) ->
      let key =
        match frames with [] -> "?" | fs -> String.concat ";" fs
      in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (prev +. w))
    stacks;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let aggregate ?ctx () = collapse (samples ?ctx ())

let render ?ctx fmt =
  let collapsed = aggregate ?ctx () in
  let buf = Buffer.create 4096 in
  (match fmt with
  | Collapsed ->
      List.iter
        (fun (stack, w) -> Buffer.add_string buf (Printf.sprintf "%s %.0f\n" stack w))
        collapsed
  | Json ->
      List.iter
        (fun (stack, w) ->
          Buffer.add_string buf
            (Printf.sprintf "{\"stack\": \"%s\", \"weight\": %.0f}\n"
               (Trace.escape stack) w))
        collapsed);
  Buffer.contents buf
