(* Small shared helpers: a nanosecond clock, a growable float vector with
   exact order statistics, and ratios that read 0 on an empty base. *)

(* Monotonic clock in microseconds with nanosecond resolution: the
   per-layer spans are a few microseconds long. *)
let now_us () = Int64.to_float (Monotonic_clock.now ()) /. 1e3

module Fvec = struct
  type t = { mutable data : Float.Array.t; mutable len : int }

  let create () = { data = Float.Array.make 256 0.0; len = 0 }

  let push v x =
    if v.len = Float.Array.length v.data then begin
      let bigger = Float.Array.make (2 * v.len) 0.0 in
      Float.Array.blit v.data 0 bigger 0 v.len;
      v.data <- bigger
    end;
    Float.Array.set v.data v.len x;
    v.len <- v.len + 1

  let length v = v.len
  let get v i = Float.Array.get v.data i

  let sum v =
    let s = ref 0.0 in
    for i = 0 to v.len - 1 do
      s := !s +. Float.Array.get v.data i
    done;
    !s

  let mean v = if v.len = 0 then 0.0 else sum v /. float_of_int v.len

  let sorted v =
    let a = Float.Array.sub v.data 0 v.len in
    Float.Array.sort Float.compare a;
    a
end

(* Nearest-rank quantile of a sorted sample; 0 for an empty one. *)
let quantile sorted q =
  let n = Float.Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    Float.Array.get sorted (max 0 (min (n - 1) (rank - 1)))

let median v = quantile (Fvec.sorted v) 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

let close_enough a b =
  Float.abs (a -. b)
  <= 1e-6 *. Float.max 1e-12 (Float.max (Float.abs a) (Float.abs b))
