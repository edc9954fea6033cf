(** Long-lived scheduling service: session loop, cache wiring, dispatch.

    One server owns a canonicalizing result {!Cache} and a
    {!Parallel.Pool}; {!handle_incoming} answers one parsed frame of any
    kind and is the core both transports share. {!serve_channels} runs
    one sequential session over a pair of channels to end-of-stream and
    never lets a malformed request kill it — that is [--stdio],
    deterministic and cram-testable. Listening sockets (Unix-domain and
    TCP) are served by {!Mux} through {!service}: it parses frames on its
    event loop and runs solver-bound ones on this server's pool.

    Per-request observability: a [serve.request] span brackets each
    request and carries a process-unique request id as the ambient
    {!Obs.Sink} context (so do the nested cache/dispatch/solver spans —
    Chrome traces group by the [req] arg); the labeled family
    [serve.requests{status="ok"|"error"|"degraded"}] counts every
    response exactly once; [serve.request_errors] keeps the flat error
    count; request latency lands in the [serve.request_latency_us]
    histogram; and the cache and dispatch layers contribute their own
    counters, spans and histograms. A [stats v1] admin frame is answered
    in-band with the {!Obs.Expo} exposition (Prometheus or JSON) of all
    of the above — admin traffic stays outside the request metrics.

    Flight recorder: every request records [serve.request] /
    [serve.request.done] events in {!Obs.Event} under its request id,
    alongside the dispatch-decision and solver events of the layers it
    calls; bytes allocated per request land in the
    [serve.request_alloc_bytes] histogram and the [gc.*] gauges are
    refreshed on every response. When [dump_channel] is set, a request
    that finishes slow (over [slow_ms]) or non-ok ([error]/[degraded])
    dumps its recorder slice as JSON lines — one header line, then the
    request's events — rate-bounded by [dump_min_interval_s]
    (suppressed dumps count in [serve.recorder_dumps_suppressed]). An
    [events v1] admin frame is answered with the recorder's retained
    events.

    Health & SLO: {!create} registers this server's saturation meters
    (pool queue fill, cache fill, heap footprint) and SLO objectives
    (99% availability over [serve.requests], 99% of requests under the
    default deadline) with {!Obs.Health} / {!Obs.Slo}, points the
    watchdog's stuck-task hook at the same rate-bounded dump channel
    (header [{"dump":"stuck-task",...}]), and — when
    [watchdog_interval_s] is set — spawns a ticker domain that runs the
    watchdog, samples the SLO rings and GC gauges, and refreshes the
    [health.status] gauge every interval. The stdio loop and the mux
    loop mark their domain [waiting] while parked in a read or [select]
    so only genuinely wedged tasks trip the watchdog. A [health v1] admin frame is answered with
    the composite status, meters, burn rates and per-domain heartbeat
    ages; {!handle_request} passes [Obs.Health.status] to
    {!Dispatch.solve} as the [pressure] signal, so a non-[Ok] status
    sheds the heavy solver tier pre-emptively ([serve.dispatch.shed]).

    Sessions: [session v1] frames route into the server's
    {!Session} registry — create/mutate/resolve/close long-lived
    scheduling sessions whose resolves repair the previous schedule
    incrementally instead of re-solving from scratch. Session resolves
    share the server's result cache (under ["session:"]-prefixed
    delta-aware keys) and the registry's fill feeds a [sessions]
    saturation meter; the watchdog ticker sweeps idle sessions. Session
    frames carry their own [serve.session.*] metrics and stay outside
    the [serve.requests] family.

    Profiling: [profile v1] frames drive the in-process sampling
    profiler ({!Obs.Profile}) in-band — status, start/stop, or a whole
    windowed capture ([seconds N]) answered with collapsed stacks. The
    engines are process-wide, so a capture sees every pool domain's
    work; the worker serving the frame parks in the capture window
    marked [waiting] while the rest of the pool keeps solving. Like the
    other admin frames, profile traffic stays outside the request
    metrics. *)

type config = {
  cache_capacity : int;  (** LRU entries kept (default 128) *)
  default_deadline_ms : float option;
      (** budget applied when a request names none (default: none) *)
  jobs : int;
      (** pool domains; {!Mux} runs up to [jobs - 1] solver-bound frames
          at once next to its loop (with 1, on the loop itself) *)
  slow_ms : float option;
      (** latency threshold for a slow-request dump; [None] (default)
          disables the slow trigger (non-ok responses still dump when
          [dump_channel] is set) *)
  dump_channel : out_channel option;
      (** where recorder dumps go; [None] (default) disables dumping *)
  dump_min_interval_s : float;
      (** at most one dump per this many seconds (default 1.0) *)
  task_budget_s : float;
      (** heartbeat age before a working task counts as stuck
          (default 30.0) *)
  watchdog_interval_s : float option;
      (** period of the background watchdog/SLO-sampling ticker; [None]
          (default) disables it — tests and benches want deterministic
          counters, [schedtool serve] turns it on. The ticker also sweeps
          idle sessions ({!Session.evict_idle}) *)
  session : Session.config;
      (** session-registry knobs: live-session cap, idle timeout,
          repair-drift fallback ratio, polish budget *)
  prehash_cap : int;
      (** fingerprint-set bound (default 65536): fingerprints live in two
          half-cap generations; filling the current one retires the
          older half ([serve.canon.prehash_rotations]) instead of
          dropping the whole set *)
}

val default_config : config

type t

val create : config -> t

val handle_request : ?pressure:bool -> t -> Proto.request -> Proto.response
(** The transport-independent core: fingerprint ({!Canon.prehash}),
    canonicalize, consult the cache, and on a miss dispatch under the
    request's deadline and cache the result (degraded results are not
    cached — a later request without deadline pressure deserves the real
    solver). An instance whose relabeling-invariant pre-hash was never
    stored provably cannot be cached, so the lookup-side canonicalization
    is skipped and the original labeling is solved directly
    ([serve.canon.prehash_misses]; seen pre-hashes count in
    [serve.canon.prehash_hits]). Cached schedules are translated back
    through the request's labeling. Used directly by the bench
    harness.

    [pressure] fixes the admission-control verdict passed to
    {!Dispatch.solve}; by default [Obs.Health.status] is read when the
    heavy solver is about to run. *)

val handle_incoming : ?pressure:bool -> t -> Proto.incoming -> Proto.response
(** Dispatch one parsed frame of any kind to its handler — the shared
    core of both transports ({!serve_channels} and the mux event loop).
    Admin frames stamp a health heartbeat here; solve/session frames
    carry their own inside their request context. [pressure] is handed
    to solve and session frames as in {!handle_request}: the mux passes
    the health verdict it took at admission, so frames queued behind an
    admitted one cannot shed it. *)

val protocol_error : string -> Proto.response
(** The response for a frame that failed to parse: counts the failure in
    the request-error metrics and returns the [status error] reply. *)

(** What {!Mux} serves: a server's ({!service}) or a shard router's
    ({!Router.service}). *)
type service = {
  pool : Parallel.Pool.t;  (** runs the frames the mux queues *)
  run : pressure:bool -> Proto.incoming -> Proto.response;
      (** answer one frame under the admission-time health verdict *)
  admin_on_loop : bool;
      (** stats, events, health and explain frames answer on the loop *)
  shed : Proto.incoming -> Proto.response;
      (** the reply, computed on the loop, to a shed frame *)
}

val service : t -> service
(** {!handle_incoming} on this server's pool, admin frames on the loop;
    a shed frame runs with a zero deadline (the degraded fast path, or
    the cached result), except a profile frame, which gets an error. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Run one session until end-of-stream: read frames and answer each
    before reading the next, so replies keep request order and every
    frame sees the effects of the ones before it (the cache hit of a
    repeated instance). Protocol errors produce [status error] responses
    and the session continues. *)

val run_stdio : t -> unit
(** [serve_channels] over stdin/stdout. *)

val shutdown : t -> unit
(** Stop the watchdog ticker, wait for in-flight pool tasks to finish,
    and shut the pool down. Idempotent. Stop the transport first. *)
