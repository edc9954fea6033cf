let on = Atomic.make false
let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false
let now_us () = Unix.gettimeofday () *. 1e6

(* Ambient per-domain context (e.g. a request id): every phase record
   and event carries the context current on its domain, so trace
   consumers can group the spans of one request even when many requests
   interleave across domains. *)
let ctx_key : string option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_ctx () = !(Domain.DLS.get ctx_key)

let with_ctx ctx f =
  let cell = Domain.DLS.get ctx_key in
  let saved = !cell in
  cell := Some ctx;
  Fun.protect ~finally:(fun () -> cell := saved) f

(* Span identity: process-unique ids allocated from one atomic counter,
   plus a per-domain ambient "innermost open span" slot so a newly
   opened span can link to its parent without threading ids through
   every call site. The slot is maintained by Span.phase and reinstalled
   across Parallel.Pool submission, so parent links survive the hop to a
   worker domain. *)
let next_span_id = Atomic.make 1
let new_span_id () = Atomic.fetch_and_add next_span_id 1

let span_key : int option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_span () = !(Domain.DLS.get span_key)

let with_span_id id f =
  let cell = Domain.DLS.get span_key in
  let saved = !cell in
  cell := Some id;
  Fun.protect ~finally:(fun () -> cell := saved) f
