let c_hits = Obs.Counter.make "serve.cache_hits"
let c_misses = Obs.Counter.make "serve.cache_misses"
let c_evictions = Obs.Counter.make "serve.cache_evictions"
let h_lookup_us = Obs.Histogram.make "serve.cache.lookup_latency_us"
let g_size = Obs.Gauge.make "serve.cache_size"

(* Entries live in [capacity] preallocated slots. A circular doubly
   linked list threads the occupied slots in recency order through
   [newer]/[older]; slot [capacity] is its sentinel, so
   [older.(sentinel)] is the most recently used slot and
   [newer.(sentinel)] the least. A hit relinks its slot in place; nothing
   it allocates outlives it. *)
type 'a t = {
  mutex : Mutex.t;
  capacity : int;
  slots : (string, int) Hashtbl.t;
  keys : string array;
  values : 'a option array;  (* [None] only on a never-used slot *)
  created_us : float array;
  hits : int array;
  newer : int array;
  older : int array;
  mutable used : int;  (* slots [0, used) have held an entry *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  {
    mutex = Mutex.create ();
    capacity;
    slots = Hashtbl.create (2 * capacity);
    keys = Array.make capacity "";
    values = Array.make capacity None;
    created_us = Array.make capacity 0.0;
    hits = Array.make capacity 0;
    newer = Array.make (capacity + 1) capacity;
    older = Array.make (capacity + 1) capacity;
    used = 0;
  }

let capacity t = t.capacity
let length t = Mutex.protect t.mutex (fun () -> Hashtbl.length t.slots)

let unlink t s =
  let n = t.newer.(s) and o = t.older.(s) in
  t.older.(n) <- o;
  t.newer.(o) <- n

let push_newest t s =
  let sentinel = t.capacity in
  let newest = t.older.(sentinel) in
  t.newer.(newest) <- s;
  t.older.(s) <- newest;
  t.newer.(s) <- sentinel;
  t.older.(sentinel) <- s

let keys t =
  Mutex.protect t.mutex (fun () ->
      let rec go s acc =
        if s = t.capacity then List.rev acc
        else go t.older.(s) (t.keys.(s) :: acc)
      in
      go t.older.(t.capacity) [])

let find t key =
  Obs.Span.with_span "serve.cache.lookup" @@ fun () ->
  let t0 = Obs.Sink.now_us () in
  let result =
    Mutex.protect t.mutex (fun () ->
        match Hashtbl.find t.slots key with
        | s ->
            Obs.Counter.incr c_hits;
            t.hits.(s) <- t.hits.(s) + 1;
            unlink t s;
            push_newest t s;
            t.values.(s)
        | exception Not_found ->
            Obs.Counter.incr c_misses;
            None)
  in
  Obs.Histogram.observe h_lookup_us (Obs.Sink.now_us () -. t0);
  result

(* The slot a new key goes into: a never-used one while there are any,
   else the least recently used entry's, evicted. *)
let free_slot t =
  if t.used < t.capacity then begin
    t.used <- t.used + 1;
    t.used - 1
  end
  else begin
    let s = t.newer.(t.capacity) in
    unlink t s;
    Hashtbl.remove t.slots t.keys.(s);
    Obs.Counter.incr c_evictions;
    let age_s = (Obs.Sink.now_us () -. t.created_us.(s)) /. 1e6 in
    Obs.Event.emit "serve.cache.evict"
      [ ("age_s", Obs.Event.Float age_s); ("hits", Obs.Event.Int t.hits.(s)) ];
    s
  end

let put t key value =
  Mutex.protect t.mutex (fun () ->
      let s =
        match Hashtbl.find t.slots key with
        | s ->
            unlink t s;
            s
        | exception Not_found ->
            let s = free_slot t in
            Hashtbl.add t.slots key s;
            t.keys.(s) <- key;
            s
      in
      t.values.(s) <- Some value;
      t.created_us.(s) <- Obs.Sink.now_us ();
      t.hits.(s) <- 0;
      push_newest t s;
      Obs.Gauge.set g_size (float_of_int (Hashtbl.length t.slots)))
