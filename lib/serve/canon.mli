(** Instance canonicalization for the result cache.

    Two requests that differ only by a relabeling of jobs, machines or
    setup classes describe the same scheduling problem; the cache must
    serve the second from the first's result. A color-refinement pass
    over the effective processing/setup times assigns each job, machine
    and class an isomorphism-invariant rank; entities are reordered by
    rank, and the permutations translate a cached canonical schedule back
    into the request's original labeling.

    {b Key.} The cache key is an exact byte encoding of the canonical
    form, never a digest: the fields {!Core.Instance_io} writes (setups,
    sizes, job classes, then speeds, eligibility rows or ptimes rows and
    the optional setup matrix), in canonical order, read straight from
    the request through the permutations. Counts, ranks and flags are
    varints; a time is the varint of v + 1 when it is an integral v in
    [0, 2^61), else a 0 byte and its 8 IEEE bytes. Neither {!label} nor
    {!key} builds the relabeled instance or its text.

    {b Ties.} Entities left with equal colors form a cell. A cell of
    twins (machines with identical rows and speeds; classes with equal
    setups and no jobs) keeps its index order, since every order of twins
    writes the same key. Otherwise the key is the least over every order
    of the non-twin class and machine cells; job cells are sorted by their
    columns, which gives the least job order for each of those. Each
    candidate order bumps [serve.canon.tie_orders]. The search stops after
    1024 orders, bumping [serve.canon.capped], and keeps the least key seen:
    still the exact key of one labeling, so a relabeled twin may miss the
    cache but never gets a wrong schedule. Instances without non-twin ties
    never search and move neither counter. *)

type labeling = {
  key : string;  (** the exact canonical key *)
  job_perm : int array;
      (** [job_perm.(jc)] = original index of canonical job [jc] *)
  machine_perm : int array;
  class_perm : int array;
}

val label : Core.Instance.t -> labeling
(** The canonical permutations and key, without building the canonical
    instance: all a cache lookup needs. *)

val canonical_instance : Core.Instance.t -> labeling -> Core.Instance.t
(** The instance relabeled by its labeling: the canonical form. *)

type t = {
  instance : Core.Instance.t;  (** the canonical form *)
  labeling : labeling;
}

val canonicalize : Core.Instance.t -> t
(** {!label} plus {!canonical_instance}. *)

val key : Core.Instance.t -> string
(** [(label i).key]. Relabelings of the same instance map to equal keys
    unless the tie search was capped. *)

val to_original : labeling -> int array -> int array
(** [to_original l a] translates an assignment over the canonical
    instance (canonical job -> canonical machine) into one over the
    original instance. Raises [Invalid_argument] on a length mismatch. *)

val to_canonical : labeling -> int array -> int array
(** Inverse of {!to_original}: translate an assignment over the original
    instance into the canonical labeling — used to store a schedule that
    was computed without canonicalizing first. Raises [Invalid_argument]
    on a length mismatch. *)

val assignment_to_original : t -> int array -> int array
(** {!to_original} of [t.labeling]. *)

val assignment_to_canonical : t -> int array -> int array
(** {!to_canonical} of [t.labeling]. *)

val prehash : Core.Instance.t -> int
(** Cheap relabeling-invariant fingerprint (commutative sums of
    per-entity hashes; O(nm + mK) with no sorting or refinement
    rounds). Relabelings of an instance always collide; unrelated
    instances may (harmlessly) collide too. The server consults a set of
    seen pre-hashes before running full color refinement: an unseen
    pre-hash proves the result cache cannot hold the instance, so the
    lookup-side canonicalization is skipped entirely. *)

val shuffle : Workloads.Rng.t -> Core.Instance.t -> Core.Instance.t
(** A uniformly random relabeling of jobs, machines and classes — the
    same problem in a different presentation. Used by the loadgen client
    and the canonicalization property tests. *)
