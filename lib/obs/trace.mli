(** Chrome trace-event export of the {!Phase} ring.

    The emitted JSON loads directly in [chrome://tracing] and in Perfetto
    (legacy trace-event format): one [B]/[E] pair per retained phase
    record, with the recording domain as [tid] so concurrent pool work
    renders as parallel tracks. Timestamps are microseconds relative to
    the earliest retained span start. A trace holds what the ring
    retains — the newest {!Phase.default_capacity} spans per domain
    unless resized — not every span since start. *)

val escape : string -> string
(** JSON string-body escaping: quote, backslash, [\n], [\r], [\t] and
    other control characters as [\u00XX]. The one escaper of [Obs]'s
    JSON writers. *)

val to_string : unit -> string
(** Serialize the retained phase records. Pairs nest per [tid] in time
    order: a record nests inside the innermost record of its domain whose
    interval contains it. Each event's [args] carry [req] (the ambient
    context, when set), [sid] and [psid] (the span and parent ids,
    [psid] only with a parent), and each [E] also [alloc_b]. *)

val to_file : string -> unit
(** [to_string] written to a file (truncates an existing file). *)

val validate_string : string -> (int, string) result
(** Self-check of the trace format used by the golden tests and the
    [@obs-smoke] alias: parses the JSON with a minimal scanner, checks
    the [traceEvents] array and the required keys of each record, and
    verifies that Begin/End events pair up per [tid]. Returns the number
    of trace events on success. *)

val validate_file : string -> (int, string) result

val merge_strings : (string * string) list -> (string, string) result
(** [merge_strings [(label, text); ...]] combines several Chrome trace
    files — typically a loadgen client's trace and the server trace that
    answered it — onto one timeline. Each input's [t0_us] wall-clock
    anchor (written by {!to_string}) rebases its relative timestamps
    against the earliest anchor; each input is assigned its own [pid]
    (input order, starting at 1) and a [process_name] metadata record
    naming it [label], so spans from both processes line up on real time
    but render as separate process tracks. Inputs without an anchor keep
    their timestamps ([t0_us = 0]). *)

val merge_files : string list -> (string, string) result
(** {!merge_strings} over files, labelled by basename. *)

val check_json : string -> (unit, string) result
(** Structural check that [text] is one well-formed JSON value (no
    trace-shape rules) — used to validate {!Event} JSON-lines dumps in
    tests without an external JSON dependency. *)
