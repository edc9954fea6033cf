let min_cost_of_job t j =
  let k = t.Instance.job_class.(j) in
  let best = ref infinity in
  for i = 0 to Instance.num_machines t - 1 do
    let c = Instance.ptime t i j +. Instance.setup_time t i k in
    if c < !best then best := c
  done;
  !best

let job_bound t =
  let best = ref 0.0 in
  for j = 0 to Instance.num_jobs t - 1 do
    let c = min_cost_of_job t j in
    if c > !best then best := c
  done;
  !best

let volume_bound t =
  let m = Instance.num_machines t in
  match t.Instance.env with
  | Instance.Identical | Instance.Uniform _ ->
      let speed_sum = ref 0.0 in
      for i = 0 to m - 1 do
        speed_sum := !speed_sum +. Instance.speed t i
      done;
      (* only classes with jobs pay a setup, as in [class_bound] *)
      let setup_sum = ref 0.0 in
      for k = 0 to Instance.num_classes t - 1 do
        if Instance.jobs_of_class t k <> [] then
          setup_sum := !setup_sum +. t.Instance.setups.(k)
      done;
      let setup_sum = !setup_sum in
      (Instance.total_size t +. setup_sum) /. !speed_sum
  | Instance.Restricted _ | Instance.Unrelated _ ->
      let work = ref 0.0 in
      for j = 0 to Instance.num_jobs t - 1 do
        let best = ref infinity in
        for i = 0 to m - 1 do
          let p = Instance.ptime t i j in
          if p < !best then best := p
        done;
        work := !work +. !best
      done;
      for k = 0 to Instance.num_classes t - 1 do
        if Instance.jobs_of_class t k <> [] then begin
          let best = ref infinity in
          for i = 0 to m - 1 do
            let s = Instance.setup_time t i k in
            if s < !best then best := s
          done;
          work := !work +. !best
        end
      done;
      !work /. float_of_int m

let class_bound t =
  let m = Instance.num_machines t in
  let best = ref 0.0 in
  (match t.Instance.env with
  | Instance.Identical | Instance.Uniform _ ->
      let speeds = Array.init m (Instance.speed t) in
      Array.sort (fun a b -> compare b a) speeds;
      let prefix = Array.make (m + 1) 0.0 in
      for q = 1 to m do
        prefix.(q) <- prefix.(q - 1) +. speeds.(q - 1)
      done;
      for k = 0 to Instance.num_classes t - 1 do
        if Instance.jobs_of_class t k <> [] then begin
          let volume = Instance.class_size t k in
          let setup = t.Instance.setups.(k) in
          let bound_k = ref infinity in
          for q = 1 to m do
            let b = ((float_of_int q *. setup) +. volume) /. prefix.(q) in
            if b < !bound_k then bound_k := b
          done;
          if !bound_k > !best then best := !bound_k
        end
      done
  | Instance.Restricted _ | Instance.Unrelated _ ->
      for k = 0 to Instance.num_classes t - 1 do
        let jobs = Instance.jobs_of_class t k in
        if jobs <> [] then begin
          let min_setup = ref infinity in
          for i = 0 to m - 1 do
            let s = Instance.setup_time t i k in
            if s < !min_setup then min_setup := s
          done;
          let min_work =
            List.fold_left
              (fun acc j ->
                let bp = ref infinity in
                for i = 0 to m - 1 do
                  let p = Instance.ptime t i j in
                  if p < !bp then bp := p
                done;
                acc +. !bp)
              0.0 jobs
          in
          let b = !min_setup +. (min_work /. float_of_int m) in
          if b > !best then best := b
        end
      done);
  !best

let naive_upper_bound t =
  let sum = ref 0.0 in
  for j = 0 to Instance.num_jobs t - 1 do
    sum := !sum +. min_cost_of_job t j
  done;
  !sum

(* Capped by the naive upper bound: summing in another order, a bound
   that is tight can land an ulp above it (one job: (p + s)/v against
   p/v + s/v), and every binary search starts from lo <= hi. *)
let lower_bound t =
  Float.min (naive_upper_bound t)
    (Float.max (class_bound t) (Float.max (job_bound t) (volume_bound t)))
