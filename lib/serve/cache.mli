(** Size-bounded LRU result cache, keyed by canonical instance keys
    ({!Canon.key}).

    Thread-safe: the server handles sessions concurrently on a
    {!Parallel.Pool}, so every operation takes an internal mutex.
    [find] and [put] are O(1): entries sit in [capacity] slots
    allocated by [create], threaded in recency order by an intrusive
    doubly linked list, so memory is bounded by the capacity. A hit
    relinks its entry in place and keeps nothing of the lookup key.

    Feeds the obs layer: [serve.cache_hits], [serve.cache_misses] and
    [serve.cache_evictions] accumulate across all caches, the
    [serve.cache_size] gauge tracks the occupancy after the most recent
    [put], and each eviction records a [serve.cache.evict] flight-recorder
    event carrying the evicted entry's age (seconds) and hit count. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] if [capacity < 1]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Number of live entries (<= capacity). *)

val find : 'a t -> string -> 'a option
(** Lookup, refreshing the entry's recency on a hit. Bumps
    [serve.cache_hits] or [serve.cache_misses]. *)

val put : 'a t -> string -> 'a -> unit
(** Insert or overwrite, evicting the least-recently-used entry when
    full (bumping [serve.cache_evictions]). *)

val keys : 'a t -> string list
(** The live keys, most recently used first, so the last is the next
    eviction. Does not refresh recency. *)
