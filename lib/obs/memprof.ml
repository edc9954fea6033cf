(* GC and allocation profiling. Gauges mirror Gc.quick_stat so the
   Prometheus/JSON exposition shows heap pressure next to the request
   counters; allocation deltas come from Gc.allocated_bytes, which
   counts per-domain minor allocations (monotonic, survives
   collections) and is the cheapest honest "bytes allocated by this
   request" signal OCaml offers. *)

let minor_words = Gauge.make "gc.minor_words"
let major_words = Gauge.make "gc.major_words"
let promoted_words = Gauge.make "gc.promoted_words"
let heap_words = Gauge.make "gc.heap_words"
let compactions = Gauge.make "gc.compactions"
let minor_collections = Gauge.make "gc.minor_collections"
let major_collections = Gauge.make "gc.major_collections"

let sample () =
  let s = Gc.quick_stat () in
  (* quick_stat's cross-domain aggregates only refresh at major-GC
     boundaries, so a short-lived or quiet process reads 0 there;
     Gc.minor_words is the calling domain's live allocation counter and
     is always current — take the larger of the two views *)
  Gauge.set minor_words (Float.max s.Gc.minor_words (Gc.minor_words ()));
  Gauge.set major_words s.Gc.major_words;
  Gauge.set promoted_words s.Gc.promoted_words;
  Gauge.set heap_words (float_of_int s.Gc.heap_words);
  Gauge.set compactions (float_of_int s.Gc.compactions);
  Gauge.set minor_collections (float_of_int s.Gc.minor_collections);
  Gauge.set major_collections (float_of_int s.Gc.major_collections)

let allocated_bytes = Gc.allocated_bytes

(* [with_alloc f] runs [f ()] and returns its result with the bytes
   the calling domain allocated during the call. *)
let with_alloc f =
  let before = Gc.allocated_bytes () in
  let x = f () in
  (x, Gc.allocated_bytes () -. before)

(* --- Gc.Memprof ownership ------------------------------------------
   Gc.Memprof admits exactly one active profile per process, so every
   would-be user (Profile's allocation engine today, a future leak
   detector tomorrow) must claim it through one door. The owner string
   names the claimant so a second claim fails with who holds it rather
   than an opaque Gc failure. On runtimes where Memprof is not wired
   up for multicore (5.1.x raises Failure at start), the claim reports
   Error instead of raising, so callers degrade gracefully. *)

let sampler_mutex = Mutex.create ()
let sampler_holder = ref None

let word_bytes = float_of_int (Sys.word_size / 8)

let start_sampler ~owner ~sampling_rate ~callback =
  Mutex.lock sampler_mutex;
  let result =
    match !sampler_holder with
    | Some holder ->
        Error (Printf.sprintf "Gc.Memprof already claimed by %s" holder)
    | None -> (
        let sample (a : Gc.Memprof.allocation) =
          (* Memprof samples each allocated word with probability
             [sampling_rate]; n_samples / rate is an unbiased estimate
             of the allocation's size in words. *)
          let bytes =
            float_of_int a.Gc.Memprof.n_samples /. sampling_rate *. word_bytes
          in
          callback ~bytes ~callstack:a.Gc.Memprof.callstack;
          None
        in
        match
          Gc.Memprof.start ~sampling_rate
            { Gc.Memprof.null_tracker with
              alloc_minor = sample;
              alloc_major = sample;
            }
        with
        | _profile ->
            sampler_holder := Some owner;
            Ok ()
        | exception Failure msg -> Error ("Gc.Memprof unavailable: " ^ msg))
  in
  Mutex.unlock sampler_mutex;
  result

let stop_sampler () =
  Mutex.lock sampler_mutex;
  (match !sampler_holder with
  | None -> ()
  | Some _ ->
      (try Gc.Memprof.stop () with Failure _ -> ());
      sampler_holder := None);
  Mutex.unlock sampler_mutex
