(* Log-bucketed histograms with per-domain sharded cells.

   Bucket i >= 1 covers (ratio^(i-1), ratio^i]; bucket 0 holds values
   <= 1 and the last bucket overflows to +inf. Recording touches only
   the calling domain's shard (a Ring.slot), so the hot path is a few
   array writes and never contends with other domains; [merged] folds
   every shard at read time. *)

let default_ratio = 1.25

(* Upper bound on representable values: 1e12 us is ~11.5 days, 1e12
   nodes is far beyond any solve; everything above lands in the overflow
   bucket. *)
let max_tracked = 1e12

type exemplar = { e_trace : string; e_value : float; e_ts_us : float }

type shard = {
  counts : int array;
  mutable sum : float;
  mutable max_value : float;
  (* last traced observation per bucket: a bounded reservoir (one slot
     per bucket per shard) linking a bucket to the trace id that landed
     in it most recently — enough for a p99 bucket in the exposition to
     name an explainable trace. Only observations made under an ambient
     Sink context record one. *)
  exemplars : exemplar option array;
}

type t = {
  name : string;
  ratio : float;
  log_ratio : float;
  nbuckets : int;  (* includes bucket 0 and the overflow bucket *)
  shards : shard Ring.slot;
}

type snapshot = {
  sname : string;
  sratio : float;
  count : int;
  sum : float;
  max_value : float;
  buckets : (float * int) list;
  exemplars : (float * exemplar) list;
}

let registry : t Registry.t = Registry.create ()

let nbuckets_for ratio =
  (* bucket 0, enough log buckets to reach max_tracked, one overflow *)
  2 + int_of_float (Float.ceil (log max_tracked /. log ratio))

let make ?(ratio = default_ratio) name =
  if ratio <= 1.0 then invalid_arg "Histogram.make: ratio must be > 1";
  Registry.find_or_create registry name (fun name ->
      let nbuckets = nbuckets_for ratio in
      let shards =
        Ring.slot (fun () ->
            {
              counts = Array.make nbuckets 0;
              sum = 0.0;
              max_value = neg_infinity;
              exemplars = Array.make nbuckets None;
            })
      in
      { name; ratio; log_ratio = log ratio; nbuckets; shards })

let name t = t.name
let ratio t = t.ratio

(* Index of the bucket covering [v]: 0 for v <= 1 (and non-finite junk),
   the overflow bucket beyond [max_tracked]. *)
let bucket_index t v =
  if not (Float.is_finite v) || v <= 1.0 then if v > 1.0 then t.nbuckets - 1 else 0
  else
    let i = int_of_float (Float.ceil (log v /. t.log_ratio)) in
    if i < 1 then 1 else if i > t.nbuckets - 1 then t.nbuckets - 1 else i

let upper_bound t i =
  if i = 0 then 1.0
  else if i >= t.nbuckets - 1 then infinity
  else t.ratio ** float_of_int i

let observe t v =
  let s = Ring.get t.shards in
  let i = bucket_index t v in
  s.counts.(i) <- s.counts.(i) + 1;
  s.sum <- s.sum +. v;
  if v > s.max_value then s.max_value <- v;
  (match Sink.current_ctx () with
  | None -> ()
  | Some trace ->
      s.exemplars.(i) <-
        Some { e_trace = trace; e_value = v; e_ts_us = Sink.now_us () })

let merged t =
  let counts = Array.make t.nbuckets 0 in
  let exemplars = Array.make t.nbuckets None in
  let sum = ref 0.0 and max_value = ref neg_infinity in
  List.iter
    (fun s ->
      Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) s.counts;
      Array.iteri
        (fun i e ->
          (* newest observation wins across shards *)
          match (e, exemplars.(i)) with
          | None, _ -> ()
          | Some x, Some y when y.e_ts_us >= x.e_ts_us -> ()
          | (Some _ as x), _ -> exemplars.(i) <- x)
        s.exemplars;
      sum := !sum +. s.sum;
      if s.max_value > !max_value then max_value := s.max_value)
    (Ring.all t.shards);
  let count = Array.fold_left ( + ) 0 counts in
  let buckets = ref [] and exlist = ref [] in
  for i = t.nbuckets - 1 downto 0 do
    if counts.(i) > 0 then buckets := (upper_bound t i, counts.(i)) :: !buckets;
    (match exemplars.(i) with
    | Some e -> exlist := (upper_bound t i, e) :: !exlist
    | None -> ())
  done;
  {
    sname = t.name;
    sratio = t.ratio;
    count;
    sum = !sum;
    max_value = (if count = 0 then nan else !max_value);
    buckets = !buckets;
    exemplars = !exlist;
  }

let find name = Registry.find registry name

let snapshot ?(include_empty = false) () =
  List.filter_map
    (fun (_, t) ->
      let s = merged t in
      if s.count = 0 && not include_empty then None else Some s)
    (Registry.to_list registry)

let quantile s q =
  if s.count = 0 then invalid_arg "Histogram.quantile: empty histogram";
  if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile: q outside [0, 1]";
  (* rank of the order statistic we report, 1-based *)
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int s.count))) in
  let rec go seen = function
    | [] -> s.max_value (* unreachable: ranks are <= count *)
    | (ub, c) :: rest ->
        if seen + c >= rank then
          (* no observation exceeds the tracked maximum, so it caps the
             bucket bound — and stands in for the overflow bucket's
             infinite one *)
          Float.min ub s.max_value
        else go (seen + c) rest
  in
  go 0 s.buckets

let reset t =
  List.iter
    (fun s ->
      Array.fill s.counts 0 t.nbuckets 0;
      Array.fill s.exemplars 0 t.nbuckets None;
      s.sum <- 0.0;
      s.max_value <- neg_infinity)
    (Ring.all t.shards)
