(** Per-domain storage for every obs recorder.

    A {!slot} gives each domain its own value, created on the domain's
    first {!get} in a [Domain.DLS] slot and registered in a lock-free
    list (a compare-and-set push, no mutex), so writers never contend and
    the registration is safe inside a signal handler. Values of
    terminated domains stay registered, so what they recorded survives a
    pool shutdown.

    A ring {!t} is a slot holding one fixed-capacity buffer per domain
    that newer items overwrite: [Event], [Phase] and [Profile] keep
    their records in one. Histogram shards and health heartbeats use a
    bare {!slot}. Readers ({!all}, {!items}) may run while other domains
    write — word-sized stores cannot tear — but {!set_capacity} and
    {!clear} belong at quiescent points. *)

(** {1 Per-domain slots} *)

type 'a slot

val slot : (unit -> 'a) -> 'a slot
(** [slot init] makes a slot whose value for each domain is [init ()],
    run on that domain the first time it calls {!get}. *)

val get : 'a slot -> 'a
(** The calling domain's value. *)

val all : 'a slot -> 'a list
(** Every value created so far, one per domain that called {!get}. *)

(** {1 Overwriting rings} *)

type 'a t

type 'a buffer
(** One domain's ring. *)

val create : capacity:int -> 'a -> 'a t
(** [create ~capacity dummy]: rings of [capacity] slots per domain;
    [dummy] fills empty slots and is never returned. *)

val capacity : 'a t -> int

val mine : 'a t -> 'a buffer
(** The calling domain's ring, created and registered on first use. *)

val pushed : 'a buffer -> int
(** Items pushed on this ring since it was created or last cleared: the
    per-domain emission index of the next item. *)

val push : 'a buffer -> 'a -> unit
(** Append one item, overwriting the oldest when the ring is full. *)

val items : 'a t -> 'a list
(** Retained items of every domain's ring, each domain's oldest first. *)

val rings : 'a t -> int
(** Number of domains that have a ring. *)

val set_capacity : 'a t -> int -> unit
(** Resize every ring to [n] slots, discarding retained items. Raises
    [Invalid_argument] when [n < 1]. *)

val clear : 'a t -> unit
(** Drop every retained item in every ring. *)
