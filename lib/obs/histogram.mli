(** Log-bucketed histograms with bounded relative error and per-domain
    sharded cells.

    A histogram's buckets grow geometrically: bucket 0 holds values
    [<= 1], bucket [i >= 1] covers [(ratio^(i-1), ratio^i]], and a final
    bucket overflows to [+inf] (values beyond ~1e12 land there).
    {!quantile} reports the upper bound of the bucket containing the
    requested order statistic, capped at the tracked maximum, so for
    values in (1, 1e12) the estimate [e] of a true quantile [v]
    satisfies [v <= e < ratio * v] — the relative error is bounded by
    the bucket ratio.

    Recording is contention-free across {!Parallel.Pool} worker domains:
    each domain owns a private shard (a {!Ring.slot} holding one
    bucket-count array), and {!observe} touches only that shard.
    {!merged} folds every shard at read time; shards of terminated
    domains stay registered, so their observations survive a pool
    shutdown. Merging while other domains record is safe (word-sized
    writes cannot tear) but may observe a shard mid-update, so a live
    scrape is approximate to within the in-flight observations. *)

type t

val default_ratio : float
(** Bucket growth factor used when [make] gets no [?ratio]: 1.25, i.e.
    quantile estimates within 25% of the truth. *)

val make : ?ratio:float -> string -> t
(** Intern the histogram named [name], creating it on first use. The
    [ratio] (> 1) is fixed by whichever call creates the histogram;
    later [make]s of the same name return the existing histogram and
    ignore their [ratio]. *)

val name : t -> string
val ratio : t -> float

val observe : t -> float -> unit
(** Record one value into the calling domain's shard. Non-finite values
    count toward [count] but land in the extreme buckets ([nan] and
    [-inf] in bucket 0, [+inf] in the overflow bucket). When an ambient
    {!Sink} context (trace/request id) is set, the observation also
    replaces the bucket's exemplar — a bounded reservoir of one slot per
    bucket per shard, so tracing adds no allocation growth. *)

type exemplar = {
  e_trace : string;  (** trace/request id ambient at observation *)
  e_value : float;  (** the observed value *)
  e_ts_us : float;  (** absolute observation time, microseconds *)
}

type snapshot = {
  sname : string;
  sratio : float;
  count : int;  (** total observations across all shards *)
  sum : float;  (** sum of all observed values *)
  max_value : float;  (** exact maximum observed; [nan] when empty *)
  buckets : (float * int) list;
      (** nonempty buckets, ascending [(upper_bound, count)]; the
          overflow bucket's upper bound is [infinity] *)
  exemplars : (float * exemplar) list;
      (** buckets' latest traced observations, ascending by upper bound;
          across shards the newest timestamp wins *)
}

val merged : t -> snapshot
(** Fold every domain's shard into one snapshot. *)

val snapshot : ?include_empty:bool -> unit -> snapshot list
(** Merged snapshots of every registered histogram that has at least one
    observation, sorted by name. With [~include_empty:true], zero-count
    histograms are included too (the exposition layer wants them so a
    registered series never vanishes from a scrape). *)

val quantile : snapshot -> float -> float
(** [quantile s q] for [q] in [[0, 1]]: the upper bound of the bucket
    holding the [ceil (q * count)]-th smallest observation, capped at
    the exact tracked maximum (so no quantile exceeds [max_value], and
    the overflow bucket reports it). Raises [Invalid_argument] on an
    empty snapshot or [q] outside [[0, 1]]. *)

val find : string -> t option
(** Look up a histogram by name without creating it. *)

val reset : t -> unit
(** Zero every shard of one histogram. Do not call while other domains
    are recording into it. *)
