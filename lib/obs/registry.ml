type 'a t = {
  table : (string, 'a) Hashtbl.t;
  mutex : Mutex.t;
  (* [to_list]'s answer until the next change: health checks and scrapes
     list a registry far more often than anything registers *)
  mutable sorted : (string * 'a) list option;
}

let create () =
  { table = Hashtbl.create 16; mutex = Mutex.create (); sorted = None }

(* No closure and no option on the hit path: Labeled.cell runs this on
   every session resolve. *)
let find_or_create t name make =
  Mutex.lock t.mutex;
  match Hashtbl.find t.table name with
  | v ->
      Mutex.unlock t.mutex;
      v
  | exception Not_found -> (
      match make name with
      | v ->
          Hashtbl.add t.table name v;
          t.sorted <- None;
          Mutex.unlock t.mutex;
          v
      | exception e ->
          Mutex.unlock t.mutex;
          raise e)

let find t name =
  Mutex.lock t.mutex;
  let v = Hashtbl.find_opt t.table name in
  Mutex.unlock t.mutex;
  v

let replace t name v =
  Mutex.lock t.mutex;
  Hashtbl.replace t.table name v;
  t.sorted <- None;
  Mutex.unlock t.mutex

let to_list t =
  Mutex.lock t.mutex;
  let entries =
    match t.sorted with
    | Some entries -> entries
    | None ->
        let entries =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        t.sorted <- Some entries;
        entries
  in
  Mutex.unlock t.mutex;
  entries

let clear t =
  Mutex.lock t.mutex;
  Hashtbl.reset t.table;
  t.sorted <- None;
  Mutex.unlock t.mutex
