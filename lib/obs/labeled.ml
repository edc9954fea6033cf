(* Labeled counter families: one metric name, one label key, one atomic
   cell per label value — e.g. serve.requests{status="ok"}. Cells are
   interned like Counter's, so instrumented layers resolve their cell
   once at module init and the hot path is a single atomic add. *)

type cell = int Atomic.t
type family = { fname : string; label : string; cells : cell Registry.t }

type sample = {
  metric : string;
  label : string;
  label_value : string;
  value : int;
}

let registry : family Registry.t = Registry.create ()

let family name ~label =
  let f =
    Registry.find_or_create registry name (fun fname ->
        { fname; label; cells = Registry.create () })
  in
  if f.label <> label then
    invalid_arg
      (Printf.sprintf
         "Labeled.family: %S already registered with label %S (asked for %S)"
         name f.label label);
  f

let name (f : family) = f.fname
let label (f : family) = f.label
(* a closed function, so resolving an existing cell allocates nothing *)
let new_cell _ = Atomic.make 0
let cell f label_value = Registry.find_or_create f.cells label_value new_cell
let incr c = ignore (Atomic.fetch_and_add c 1)
let add c n = if n <> 0 then ignore (Atomic.fetch_and_add c n)
let value c = Atomic.get c

(* families and cells both list sorted by name, so the concatenation is
   sorted by metric, then label value *)
let snapshot () =
  List.concat_map
    (fun (_, f) ->
      List.map
        (fun (label_value, c) ->
          {
            metric = f.fname;
            label = f.label;
            label_value;
            value = Atomic.get c;
          })
        (Registry.to_list f.cells))
    (Registry.to_list registry)
