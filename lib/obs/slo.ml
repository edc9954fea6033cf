(* Declarative service-level objectives with multi-window burn rates.

   An objective maps existing registries onto a (good, total) pair:
   availability counts label values of a Labeled counter family as good,
   latency counts histogram observations at or under a threshold as
   good. [sample] appends a timestamped (good, total) reading to a
   bounded ring per objective; [reports] differences the newest reading
   against the reading just outside each window to get the windowed
   success ratio, and turns it into a burn rate:

     burn = (1 - ratio) / (1 - target)

   i.e. the speed at which the error budget is being spent — 1.0 burns
   the budget exactly at the objective boundary, >1 exhausts it early.
   The classic multi-window alerting setup reads a short window (fast
   detection) alongside a long one (noise suppression). *)

type kind =
  | Availability of { family : string; good_values : string list }
  | Latency of { histogram : string; threshold_us : float }

(* ring of (ts_us, good, total) readings, oldest overwritten *)
type ring = {
  ts : float array;
  good : float array;
  total : float array;
  mutable len : int;
  mutable head : int;  (* next write position *)
}

type objective = { target : float; kind : kind; ring : ring }

let ring_capacity = 4096

let make_ring () =
  {
    ts = Array.make ring_capacity 0.0;
    good = Array.make ring_capacity 0.0;
    total = Array.make ring_capacity 0.0;
    len = 0;
    head = 0;
  }

let registry : objective Registry.t = Registry.create ()

(* guards the readings rings; the registry locks itself *)
let mutex = Mutex.create ()

let windows = [ ("5m", 300.0); ("1h", 3600.0) ]

let register ~name ~target kind =
  if target <= 0.0 || target >= 1.0 then
    invalid_arg "Slo.register: target must be in (0, 1)";
  Registry.replace registry name { target; kind; ring = make_ring () }

let clear () = Registry.clear registry

(* Current cumulative (good, total) for an objective, read straight from
   the live registries. *)
let read_kind = function
  | Availability { family; good_values } ->
      List.fold_left
        (fun (good, total) (s : Labeled.sample) ->
          if s.metric <> family then (good, total)
          else
            let v = float_of_int s.value in
            ( (if List.mem s.label_value good_values then good +. v else good),
              total +. v ))
        (0.0, 0.0) (Labeled.snapshot ())
  | Latency { histogram; threshold_us } -> (
      match Histogram.find histogram with
      | None -> (0.0, 0.0)
      | Some h ->
          let s = Histogram.merged h in
          let good =
            List.fold_left
              (fun acc (ub, n) ->
                if ub <= threshold_us then acc + n else acc)
              0 s.Histogram.buckets
          in
          (float_of_int good, float_of_int s.Histogram.count))

let push ring ts good total =
  ring.ts.(ring.head) <- ts;
  ring.good.(ring.head) <- good;
  ring.total.(ring.head) <- total;
  ring.head <- (ring.head + 1) mod ring_capacity;
  if ring.len < ring_capacity then ring.len <- ring.len + 1

let sample () =
  let now = Sink.now_us () in
  List.iter
    (fun (_, o) ->
      let good, total = read_kind o.kind in
      Mutex.lock mutex;
      push o.ring now good total;
      Mutex.unlock mutex)
    (Registry.to_list registry)

(* i-th newest reading, 0 = most recent *)
let nth_newest ring i =
  let idx = (ring.head - 1 - i + (2 * ring_capacity)) mod ring_capacity in
  (ring.ts.(idx), ring.good.(idx), ring.total.(idx))

type report = {
  rname : string;
  rtarget : float;
  window : string;
  span_s : float;  (** actual time between the two readings differenced *)
  good : float;
  total : float;
  ratio : float;  (** 1.0 when the window saw no traffic *)
  burn : float;  (** error-budget burn rate; 0.0 with no traffic *)
}

let report_of (name, o) (wname, wspan) =
  Mutex.lock mutex;
  let r = o.ring in
  let result =
    if r.len < 2 then
      { rname = name; rtarget = o.target; window = wname; span_s = 0.0;
        good = 0.0; total = 0.0; ratio = 1.0; burn = 0.0 }
    else begin
      let newest_ts, newest_good, newest_total = nth_newest r 0 in
      let horizon = newest_ts -. (wspan *. 1e6) in
      (* oldest reading still inside the window, else the oldest held *)
      let base = ref (nth_newest r (r.len - 1)) in
      (try
         for i = r.len - 1 downto 1 do
           let ((ts, _, _) as reading) = nth_newest r i in
           if ts >= horizon then begin
             base := reading;
             raise Exit
           end
         done
       with Exit -> ());
      let base_ts, base_good, base_total = !base in
      let good = Float.max 0.0 (newest_good -. base_good) in
      let total = Float.max 0.0 (newest_total -. base_total) in
      let ratio = if total <= 0.0 then 1.0 else good /. total in
      let burn = if total <= 0.0 then 0.0 else (1.0 -. ratio) /. (1.0 -. o.target) in
      {
        rname = name;
        rtarget = o.target;
        window = wname;
        span_s = (newest_ts -. base_ts) /. 1e6;
        good;
        total;
        ratio;
        burn;
      }
    end
  in
  Mutex.unlock mutex;
  result

let reports () =
  List.concat_map
    (fun o -> List.map (report_of o) windows)
    (Registry.to_list registry)

let render_lines () =
  List.map
    (fun r ->
      Printf.sprintf
        "slo name=%s window=%s target=%.4f span_s=%.1f good=%.0f total=%.0f \
         ratio=%.4f burn=%.2f"
        r.rname r.window r.rtarget r.span_s r.good r.total r.ratio r.burn)
    (reports ())
