(* Per-domain storage shared by every obs recorder: a Domain.DLS slot
   whose values register themselves in a lock-free list, and on top of
   it one fixed-capacity overwriting ring. Registration is a CAS push
   rather than a mutex because Profile's SIGPROF handler may be the
   first to touch a domain's ring, and a DLS initialiser that took a
   lock could deadlock against a reader holding it. *)

type 'a slot = { key : 'a Domain.DLS.key; values : 'a list Atomic.t }

let rec register values v =
  let old = Atomic.get values in
  if not (Atomic.compare_and_set values old (v :: old)) then register values v

let slot init =
  let values = Atomic.make [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let v = init () in
        register values v;
        v)
  in
  { key; values }

let get s = Domain.DLS.get s.key
let all s = Atomic.get s.values

type 'a buffer = { mutable slots : 'a array; mutable next : int }
type 'a t = { dummy : 'a; cap : int Atomic.t; buffers : 'a buffer slot }

let create ~capacity dummy =
  let cap = Atomic.make capacity in
  let buffers =
    slot (fun () -> { slots = Array.make (Atomic.get cap) dummy; next = 0 })
  in
  { dummy; cap; buffers }

let capacity t = Atomic.get t.cap
let mine t = get t.buffers
let pushed b = b.next

let push b x =
  b.slots.(b.next mod Array.length b.slots) <- x;
  b.next <- b.next + 1

let retained b =
  let cap = Array.length b.slots in
  let n = min b.next cap in
  List.init n (fun i -> b.slots.((b.next - n + i) mod cap))

let items t = List.concat_map retained (all t.buffers)
let rings t = List.length (all t.buffers)

let set_capacity t n =
  if n < 1 then invalid_arg "Ring.set_capacity: capacity must be >= 1";
  Atomic.set t.cap n;
  List.iter
    (fun b ->
      b.slots <- Array.make n t.dummy;
      b.next <- 0)
    (all t.buffers)

let clear t =
  List.iter
    (fun b ->
      Array.fill b.slots 0 (Array.length b.slots) t.dummy;
      b.next <- 0)
    (all t.buffers)
