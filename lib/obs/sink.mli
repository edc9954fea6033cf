(** Tracing switch, clock, and ambient per-domain context.

    The switch gates the scopes that only record while tracing
    ({!Span.with_span}): when disabled (the default) such a scope costs
    one atomic load. {!Span.phase} records into the always-on {!Phase}
    ring either way, and {!Trace} renders that ring as a Chrome trace.
    Counters ({!Counter}) are deliberately {e not} gated — they are plain
    atomic adds, flushed in batches by the instrumented layers.

    The ambient request context and the innermost open span id live in
    two [Domain.DLS] slots, so reading or setting them never takes a
    lock. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val now_us : unit -> float
(** Wall-clock microseconds (the timestamp base used for all records). *)

val with_ctx : string -> (unit -> 'a) -> 'a
(** [with_ctx id f] runs [f] with the calling domain's ambient context
    set to [id]; every phase record and event made inside carries it
    (rendered as a [req] arg in the Chrome trace, so Perfetto can group
    one request's spans across interleaved sessions). Contexts nest — the
    previous context is restored even if [f] raises — and cost one
    domain-local write whether or not tracing is enabled. *)

val current_ctx : unit -> string option
(** The calling domain's ambient context, if any. *)

val new_span_id : unit -> int
(** Allocate a process-unique span id (atomic counter, never reused). *)

val with_span_id : int -> (unit -> 'a) -> 'a
(** [with_span_id id f] runs [f] with the calling domain's ambient span
    set to [id]: spans opened inside link to [id] as their parent. Nests
    and restores like {!with_ctx}; maintained by [Span.phase] and
    reinstalled across [Parallel.Pool] submission. *)

val current_span : unit -> int option
(** The calling domain's innermost open span id, if any. *)
