(** Continuous sampling profiler: CPU and allocation engines feeding
    per-domain sample rings (one {!Ring}), aggregated into collapsed-stack
    form ([a;b;c weight]) with ambient request/trace-id attribution from
    [Sink].

    The CPU engine arms [ITIMER_PROF]; every 1/hz seconds of process
    CPU time, SIGPROF lands on some domain and the handler records
    that domain's callstack (weight 1.0). The allocation engine claims
    [Gc.Memprof] through {!Memprof.start_sampler} and records each
    sampled allocation's callstack weighted by its estimated size in
    bytes. At most one engine runs at a time.

    Overhead guard: while the [health.status] gauge reports Unhealthy
    (severity >= 2), incoming samples are dropped and counted in
    [obs.profile.dropped] — a struggling process sheds its profiler
    first. [obs.profile.samples] counts recorded samples and
    [obs.profile.overruns] ring-slot overwrites. *)

type mode = Cpu | Alloc

val mode_to_string : mode -> string
val mode_of_string : string -> (mode, string) result

type format = Collapsed | Json

val format_to_string : format -> string
val format_of_string : string -> (format, string) result

val default_cpu_hz : float
(** 99 Hz — the conventional off-beat rate that avoids lockstep with
    10 ms schedulers. *)

val default_alloc_rate : float
(** 1e-4: sample one allocated word in ten thousand. *)

val default_capacity : int
(** Sample slots per domain ring (8192). *)

val clear : unit -> unit
(** Drop retained samples in every ring (counters are unaffected). *)

val start : ?rate:float -> mode -> (unit, string) result
(** Start an engine, clearing retained samples first. [rate] is the
    timer frequency in Hz for [Cpu] (default {!default_cpu_hz}) and
    the per-word sampling probability for [Alloc] (default
    {!default_alloc_rate}). [Error] when an engine is already running,
    the rate is out of range, or (alloc) the runtime's [Gc.Memprof] is
    unavailable or claimed by another user. *)

val stop : unit -> unit
(** Disarm the running engine, if any; retained samples survive so a
    final {!aggregate} can follow. Idempotent. *)

val running : unit -> mode option

val record : ?bt:Printexc.raw_backtrace -> float -> unit
(** Record one sample on the calling domain's ring: [bt] (default: the
    caller's stack) weighted by the argument, tagged with the ambient
    [Sink] context. Exposed for tests; engines call it internally. *)

type stat = {
  s_mode : mode option;  (** running engine, if any *)
  s_rate : float;  (** its rate (0 when idle) *)
  s_started_us : float;  (** engine start time ([Sink.now_us]) *)
  s_samples : int;  (** obs.profile.samples *)
  s_dropped : int;  (** obs.profile.dropped *)
  s_overruns : int;  (** obs.profile.overruns *)
  s_retained : int;  (** samples currently held across rings *)
  s_rings : int;  (** registered per-domain rings *)
}

val stat : unit -> stat

val status_lines : unit -> string list
(** Two [key value...] lines (engine …, totals …) used by the admin
    frame and CLI. *)

val samples : ?ctx:string -> unit -> (string list * float) list
(** Symbolized samples merged from every ring, each a root-first frame
    list with its weight; [ctx] keeps only samples recorded under that
    request/trace id. Frame names are sanitized (no [';'] or spaces). *)

val collapse : (string list * float) list -> (string * float) list
(** Pure fold into collapsed-stack lines: frames joined with [';'],
    weights summed per distinct stack, sorted by stack string —
    independent of sample order, so merging shards in any order yields
    identical output. *)

val aggregate : ?ctx:string -> unit -> (string * float) list
(** [collapse (samples ?ctx ())]. *)

val render : ?ctx:string -> format -> string
(** Render {!aggregate}: [Collapsed] gives one [stack weight] line per
    entry; [Json] one [{"stack": …, "weight": …}] object per line. *)
