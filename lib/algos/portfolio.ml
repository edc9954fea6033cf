type report = {
  best : Common.result;
  winner : string;
  all : (string * float) list;
}

let h_candidate_us = Obs.Histogram.make "algos.portfolio.candidate_latency_us"

let members t =
  List.filter (fun (e : Catalog.entry) -> e.portfolio && e.applies t) Catalog.all

let factor t =
  match List.filter_map (fun (e : Catalog.entry) -> e.factor) (members t) with
  | [] -> None
  | f :: fs -> Some (List.fold_left Float.min f fs)

let run ?(seed = 1) instance =
  if not (Catalog.all_jobs_eligible instance) then
    invalid_arg "Portfolio.run: job eligible nowhere";
  let attempts =
    List.map
      (fun (e : Catalog.entry) ->
        let t0 = Obs.Sink.now_us () in
        let r = e.run ~seed instance in
        Obs.Histogram.observe h_candidate_us (Obs.Sink.now_us () -. t0);
        (e.name, r))
      (members instance)
  in
  match attempts with
  | [] -> assert false (* greedy applies to every environment *)
  | first :: rest ->
      let winner, best =
        List.fold_left
          (fun ((_, b) as acc) ((_, r) as cand) ->
            if r.Common.makespan < b.Common.makespan then cand else acc)
          first rest
      in
      (* final polish: local search never hurts and often trims a bit *)
      let polished = Local_search.polish instance best in
      let winner =
        if polished.Common.makespan < best.Common.makespan -. 1e-12 then
          winner ^ "+local-search"
        else winner
      in
      Obs.Event.emit "algos.portfolio.done"
        [
          ("winner", Obs.Event.Str winner);
          ("makespan", Obs.Event.Float polished.Common.makespan);
          ("candidates", Obs.Event.Int (List.length attempts));
        ];
      {
        best = polished;
        winner;
        all =
          (winner, polished.Common.makespan)
          :: List.filter
               (fun (n, _) -> n <> winner)
               (List.map (fun (n, r) -> (n, r.Common.makespan)) attempts);
      }
