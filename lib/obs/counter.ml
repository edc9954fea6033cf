type t = { name : string; cell : int Atomic.t }

let registry : t Registry.t = Registry.create ()

let make name =
  Registry.find_or_create registry name (fun name ->
      { name; cell = Atomic.make 0 })

let name t = t.name
let value t = Atomic.get t.cell
let incr t = ignore (Atomic.fetch_and_add t.cell 1)
let add t n = if n <> 0 then ignore (Atomic.fetch_and_add t.cell n)
let reset t = Atomic.set t.cell 0
let find name = Registry.find registry name

let snapshot () =
  List.map
    (fun (name, t) -> (name, Atomic.get t.cell))
    (Registry.to_list registry)

let delta ~before ~after =
  let moved =
    List.filter_map
      (fun (name, v) ->
        let b = Option.value ~default:0 (List.assoc_opt name before) in
        if v <> b then Some (name, v - b) else None)
      after
  in
  (* counters in [before] but gone from [after] (reset or re-registered
     between snapshots) would otherwise vanish silently: report the drop *)
  let dropped =
    List.filter_map
      (fun (name, b) ->
        if b <> 0 && not (List.mem_assoc name after) then Some (name, -b)
        else None)
      before
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) (moved @ dropped)
