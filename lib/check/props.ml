module I = Core.Instance

type cost = Algos.Catalog.cost = Cheap | Heavy

type algo = {
  name : string;
  applies : I.t -> bool;
  factor : I.t -> float option;
  scale_equivariant : bool;
  cost : cost;
  run : seed:int -> I.t -> Algos.Common.result;
}

let of_entry (e : Algos.Catalog.entry) =
  {
    name = e.name;
    applies = e.applies;
    factor = (fun _ -> e.factor);
    scale_equivariant = e.scale_equivariant;
    cost = e.cost;
    run = e.run;
  }

let registry () =
  List.map of_entry Algos.Catalog.all
  @ [
      {
        name = "portfolio";
        applies = Algos.Catalog.all_jobs_eligible;
        factor = Algos.Portfolio.factor;
        scale_equivariant = false;
        cost = Heavy;
        run =
          (fun ~seed t -> (Algos.Portfolio.run ~seed t).Algos.Portfolio.best);
      };
    ]

let find ~name algos =
  let name =
    match Algos.Catalog.find name with Some e -> e.name | None -> name
  in
  List.find_opt (fun a -> a.name = name) algos

let mutant =
  {
    name = "mutant-stack";
    applies = (fun _ -> true);
    factor = (fun _ -> Some 1.0);
    scale_equivariant = true;
    cost = Cheap;
    run =
      (fun ~seed:_ t ->
        (* everything on machine 0, eligibility be damned: trips
           [schedule-valid] on restricted instances and [ratio-bound]
           everywhere else *)
        let sched = Core.Schedule.unsafe_make t (Array.make (I.num_jobs t) 0) in
        { Algos.Common.schedule = sched; makespan = Core.Schedule.makespan sched });
  }

let check_result ~oracle instance algo (r : Algos.Common.result) =
  let open Violation in
  let name = algo.name in
  let buf = ref [] in
  let add x = buf := x :: !buf in
  if not (Core.Schedule.is_valid instance r.Algos.Common.schedule) then
    add
      (v ~algo:name ~prop:"schedule-valid"
         "schedule assigns a job to an ineligible machine");
  let recomputed = Core.Schedule.makespan r.Algos.Common.schedule in
  if not (approx_eq r.Algos.Common.makespan recomputed) then
    add
      (v ~algo:name ~prop:"makespan-consistent"
         "reported makespan %g but the schedule's loads give %g"
         r.Algos.Common.makespan recomputed);
  if not (Float.is_finite r.Algos.Common.makespan) then
    add
      (v ~algo:name ~prop:"makespan-consistent" "makespan %g is not finite"
         r.Algos.Common.makespan);
  if not (leq oracle.Oracle.lb r.Algos.Common.makespan) then
    add
      (v ~algo:name ~prop:"lb-sandwich"
         "makespan %g beats the certified lower bound %g"
         r.Algos.Common.makespan oracle.Oracle.lb);
  (match oracle.Oracle.opt with
  | Some opt ->
      if not (leq opt r.Algos.Common.makespan) then
        add
          (v ~algo:name ~prop:"lb-sandwich"
             "makespan %g beats the proven optimum %g" r.Algos.Common.makespan
             opt);
      (match algo.factor instance with
      | Some f ->
          if not (leq r.Algos.Common.makespan (f *. opt)) then
            add
              (v ~algo:name ~prop:"ratio-bound"
                 "makespan %g exceeds %g * opt %g = %g"
                 r.Algos.Common.makespan f opt (f *. opt))
      | None -> ())
  | None -> ());
  List.rev !buf

let check_io_roundtrip instance =
  let text = Core.Instance_io.to_string instance in
  match Core.Instance_io.of_string_result text with
  | Error e ->
      [
        Violation.v ~algo:"io" ~prop:"io-roundtrip"
          "printed instance fails to parse: %s"
          (Core.Instance_io.error_to_string e);
      ]
  | Ok reparsed ->
      let text' = Core.Instance_io.to_string reparsed in
      if text <> text' then
        [
          Violation.v ~algo:"io" ~prop:"io-roundtrip"
            "parse o print is not the identity (printed forms differ)";
        ]
      else []

let check_algo ~oracle ~seed instance algo =
  if not (algo.applies instance) then []
  else
    match algo.run ~seed instance with
    | r -> check_result ~oracle instance algo r
    | exception e ->
        [
          Violation.v ~algo:algo.name ~prop:"no-crash"
            "raised %s although the preconditions hold" (Printexc.to_string e);
        ]
