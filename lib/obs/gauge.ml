type t = { name : string; cell : float option Atomic.t }

let registry : t Registry.t = Registry.create ()

let make name =
  Registry.find_or_create registry name (fun name ->
      { name; cell = Atomic.make None })

let name t = t.name
let set t v = Atomic.set t.cell (Some v)
let value t = Option.value ~default:0.0 (Atomic.get t.cell)

let rec set_max t v =
  let cur = Atomic.get t.cell in
  let keep = match cur with Some x -> x >= v | None -> false in
  if not keep then
    if not (Atomic.compare_and_set t.cell cur (Some v)) then set_max t v

let snapshot () =
  List.filter_map
    (fun (name, t) -> Option.map (fun v -> (name, v)) (Atomic.get t.cell))
    (Registry.to_list registry)
