(** Flight recorder: leveled structured events in per-domain ring
    buffers.

    Always on at bounded cost: each domain owns a fixed-capacity
    {!Ring} that newer events overwrite, so a long-lived process retains
    the recent past without growing. Emission is lock-free on the hot
    path (the calling domain writes only its own ring); reads merge all
    rings. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
val level_of_string : string -> level option

(** Field values. Rendered as native JSON types in dumps. *)
type value = Str of string | Int of int | Float of float | Bool of bool

type t = {
  name : string;
  level : level;
  fields : (string * value) list;
  ts_us : float;  (** monotonic microseconds, same clock as [Sink.now_us] *)
  domain : int;
  ctx : string option;  (** ambient request id from [Sink.with_ctx] *)
  seq : int;  (** per-domain emission index; breaks timestamp ties *)
}

val default_capacity : int
(** Ring slots per domain at startup (512). *)

val set_level : level -> unit
(** Set the minimum severity recorded. Default [Info]; events below the
    threshold cost one atomic load. *)

val enabled : level -> bool
(** [enabled l] is true when events at level [l] would be recorded. Use
    to skip expensive field construction. *)

val set_capacity : int -> unit
(** Resize every domain's ring to [n] slots, discarding recorded
    events. Call only at quiescent points (startup, tests). Raises
    [Invalid_argument] when [n < 1]. *)

val emit : ?level:level -> string -> (string * value) list -> unit
(** [emit name fields] records one event in the calling domain's ring
    (and the JSON sink, if set) when [name]'s level passes the
    threshold. [level] defaults to [Info]. *)

val set_json_sink : out_channel option -> unit
(** Mirror every recorded event as a JSON line on the given channel
    (flushed per event, serialized by a mutex) — for live tailing.
    [None] disables. *)

val snapshot : unit -> t list
(** All retained events across every domain's ring, oldest first
    (ordered by timestamp, then domain/seq). *)

val recent :
  ?ctx:string -> ?min_level:level -> ?count:int -> unit -> t list
(** [snapshot] filtered to a request id and/or minimum level, keeping
    only the last [count] events when given. *)

val to_json_line : t -> string
(** One event as a single-line JSON object:
    [{"ts_us":..,"level":"info","name":..,"domain":0,"req":"r5","fields":{..}}].
    ["req"] is omitted without a ctx, ["fields"] when empty. *)

val dump_jsonl :
  ?ctx:string -> ?min_level:level -> ?count:int -> out_channel -> unit
(** Write [recent] as JSON lines and flush. *)

val clear : unit -> unit
(** Drop all retained events in every ring (tests). *)
