(** Nestable timed scopes, recorded in the {!Phase} ring.

    A {!phase} always records one completed-span record when it closes.
    A {!with_span} is a phase only while tracing is enabled
    ({!Sink.enabled}); otherwise it is one atomic load plus the call to
    [f]. Chrome traces ({!Trace}) render what the ring retains. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] is [phase name f] when tracing is enabled and
    [f ()] otherwise. *)

val phase :
  ?detail:string -> ?result_detail:('a -> string) -> string ->
  (unit -> 'a) -> 'a
(** [phase name f] is a span with identity: it allocates a span id
    ({!Sink.new_span_id}), links to the innermost enclosing phase as its
    parent, runs [f] with that id ambient (so nested phases chain), and
    on exit — normal or raising — records a completed-span record with
    wall time and the calling domain's allocation delta in the always-on
    {!Phase} ring. [detail] annotates the record; [result_detail], when
    given, is applied to [f]'s result to compute the annotation instead
    (e.g. a probe's feasibility verdict) — on an exception [detail] is
    used. *)

val timed : string -> (unit -> 'a) -> 'a * float
(** [timed name f] is [with_span name f] that additionally measures and
    returns the elapsed wall-clock seconds — measured whether or not
    tracing is enabled, so callers can rely on it for reporting. *)

type summary = { name : string; count : int; total_s : float }
(** Aggregate of all completed spans of one name. *)

val summarize : Phase.record list -> summary list
(** Count and total duration per span name, sorted by name. Durations
    of nested same-name spans both count, as in a flame graph. *)
