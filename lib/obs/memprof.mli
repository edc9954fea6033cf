(** GC and allocation profiling.

    [sample] refreshes a set of [gc.*] gauges from [Gc.quick_stat] so
    the exposition ([Expo], [schedtool metrics]) shows heap pressure;
    allocation deltas from [Gc.allocated_bytes] give bytes-allocated
    per request or per phase. *)

val minor_words : Gauge.t
val major_words : Gauge.t
val promoted_words : Gauge.t
val heap_words : Gauge.t
val compactions : Gauge.t
val minor_collections : Gauge.t
val major_collections : Gauge.t

val sample : unit -> unit
(** Refresh every [gc.*] gauge from [Gc.quick_stat] (cheap: no heap
    walk). Called per served request and before each exposition
    render. *)

val allocated_bytes : unit -> float
(** Bytes allocated by the calling domain since it started (monotonic;
    from [Gc.allocated_bytes]). *)

val with_alloc : (unit -> 'a) -> 'a * float
(** [with_alloc f] runs [f ()], returning its result and the bytes the
    calling domain allocated during the call. *)

(** {2 Gc.Memprof ownership}

    [Gc.Memprof] admits exactly one active profile per process. Any
    module that wants sampled allocation callbacks (e.g. [Profile]'s
    allocation engine) claims the slot here instead of calling
    [Gc.Memprof.start] directly, so two users can never double-install
    the sampler. *)

val start_sampler :
  owner:string ->
  sampling_rate:float ->
  callback:(bytes:float -> callstack:Printexc.raw_backtrace -> unit) ->
  (unit, string) result
(** Claim the process-wide [Gc.Memprof] slot and start sampling.
    [callback] receives, for each sampled allocation, an unbiased
    estimate of its size in bytes ([n_samples / sampling_rate] words)
    and the allocation site's callstack; it may run on any domain.
    Returns [Error] naming the current holder when the slot is taken,
    or describing the runtime limitation where [Gc.Memprof.start] is
    unavailable (OCaml 5.1 multicore raises [Failure]). *)

val stop_sampler : unit -> unit
(** Stop the active sampler and release the slot. No-op when idle. *)
