(** Phase attribution: completed spans in bounded per-domain rings.

    The phase recorder is the one span recorder, built like {!Event}'s
    flight recorder: each domain owns a fixed-capacity {!Ring} of
    completed-span records that newer records overwrite, so a long-lived
    server retains the phase trees of recent requests — enough to answer
    an [explain v1] frame or write a Chrome trace ({!Trace}) — at bounded
    cost and without a lock on the hot path. Records are written by
    [Span.phase] when a span closes and carry real span ids plus parent
    links, so one request's records reassemble into a tree. *)

type record = {
  name : string;
  detail : string;  (** phase annotation, e.g. [guess=42 feasible=true]; [""] when none *)
  ctx : string option;  (** ambient trace/request id at close *)
  id : int;  (** process-unique span id ({!Sink.new_span_id}) *)
  parent : int option;  (** enclosing span's id; [None] for a root *)
  start_us : float;  (** absolute start, microseconds since the epoch *)
  dur_us : float;  (** wall time of the span *)
  alloc_bytes : float;  (** bytes allocated by the owning domain inside *)
  domain : int;
  seq : int;  (** per-domain emission (close) index *)
}

val default_capacity : int
(** Ring slots per domain at startup (4096). *)

val set_capacity : int -> unit
(** Resize every domain's ring, discarding retained records. Call only
    at quiescent points. Raises [Invalid_argument] when [n < 1]. *)

val push :
  name:string -> detail:string -> id:int -> parent:int option ->
  start_us:float -> dur_us:float -> alloc_bytes:float -> unit -> unit
(** Record one completed span on the calling domain's ring, stamping the
    ambient {!Sink.current_ctx}. Called by [Span.phase]; exposed for
    tests and external instrumentation. *)

val snapshot : unit -> record list
(** All retained records across every domain's ring, ordered by start
    time (start-time ties broken by span id, i.e. open order). *)

val recent : ?ctx:string -> unit -> record list
(** [snapshot] filtered to one trace/request id. *)

val depth : record list -> record -> int
(** Distance from [r] to its root through parent links, within the given
    record set; records whose parent was evicted count as roots. *)

val clear : unit -> unit
(** Drop all retained records in every ring (tests). *)
