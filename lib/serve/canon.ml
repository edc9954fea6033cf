module I = Core.Instance

type labeling = {
  key : string;
  job_perm : int array;
  machine_perm : int array;
  class_perm : int array;
}

type t = { instance : Core.Instance.t; labeling : labeling }

let c_tie_orders = Obs.Counter.make "serve.canon.tie_orders"
let c_capped = Obs.Counter.make "serve.canon.capped"

(* [inverse perm] maps an old index to its new one. *)
let inverse perm =
  let inv = Array.make (Array.length perm) 0 in
  Array.iteri (fun x old -> inv.(old) <- x) perm;
  inv

(* Build the instance obtained by relabeling: new index [x] is old index
   [perm.(x)] for jobs, machines and classes alike. *)
let relabel inst ~job_perm ~machine_perm ~class_perm =
  let n = I.num_jobs inst and m = I.num_machines inst in
  let kk = I.num_classes inst in
  let class_rank = inverse class_perm in
  let sizes = Array.init n (fun jn -> inst.I.sizes.(job_perm.(jn))) in
  let job_class =
    Array.init n (fun jn -> class_rank.(inst.I.job_class.(job_perm.(jn))))
  in
  let setups = Array.init kk (fun kn -> inst.I.setups.(class_perm.(kn))) in
  let pick_matrix mat cols col_perm =
    Array.init m (fun i ->
        let row = mat.(machine_perm.(i)) in
        Array.init cols (fun c -> row.(col_perm.(c))))
  in
  match inst.I.env with
  | I.Identical -> I.identical ~num_machines:m ~sizes ~job_class ~setups
  | I.Uniform speeds ->
      let speeds = Array.init m (fun i -> speeds.(machine_perm.(i))) in
      I.uniform ~speeds ~sizes ~job_class ~setups
  | I.Restricted eligible ->
      I.restricted ~eligible:(pick_matrix eligible n job_perm) ~sizes
        ~job_class ~setups
  | I.Unrelated p ->
      let setup_matrix =
        Option.map
          (fun s -> pick_matrix s kk class_perm)
          inst.I.setup_matrix
      in
      I.unrelated ?setup_matrix ~p:(pick_matrix p n job_perm) ~job_class
        ~setups ()

(* --- color refinement ---------------------------------------------------

   Jobs, machines and classes each carry an integer color; one round
   recomputes every entity's signature from its own scalar data and the
   multiset of (neighbor color, edge weight) pairs, then replaces colors
   by the dense rank of the signatures. Signatures are built from
   isomorphism-invariant inputs only, so by induction the final colors are
   invariant under relabeling. Including the entity's previous color in
   its signature makes each round a refinement of the last, so the loop
   reaches a fixpoint after at most n + m + K rounds. *)

let rank_signatures sigs =
  let sorted = Array.copy sigs in
  Array.sort compare sorted;
  let tbl = Hashtbl.create (Array.length sigs) in
  let next = ref 0 in
  Array.iter
    (fun s ->
      if not (Hashtbl.mem tbl s) then begin
        Hashtbl.add tbl s !next;
        incr next
      end)
    sorted;
  Array.map (Hashtbl.find tbl) sigs

let refine inst =
  let n = I.num_jobs inst and m = I.num_machines inst in
  let kk = I.num_classes inst in
  let jc = ref (Array.make n 0) in
  let mc = ref (Array.make m 0) in
  let kc = ref (Array.make kk 0) in
  let stable = ref false in
  let rounds = ref 0 in
  while (not !stable) && !rounds <= n + m + kk do
    incr rounds;
    let jc0 = !jc and mc0 = !mc and kc0 = !kc in
    let job_sigs =
      Array.init n (fun j ->
          let by_machine =
            List.sort compare
              (List.init m (fun i -> (mc0.(i), I.ptime inst i j)))
          in
          (jc0.(j), kc0.(inst.I.job_class.(j)), inst.I.sizes.(j), by_machine))
    in
    let machine_sigs =
      Array.init m (fun i ->
          let by_job =
            List.sort compare (List.init n (fun j -> (jc0.(j), I.ptime inst i j)))
          in
          let by_class =
            List.sort compare
              (List.init kk (fun k -> (kc0.(k), I.setup_time inst i k)))
          in
          (mc0.(i), I.speed inst i, by_job, by_class))
    in
    let class_sigs =
      Array.init kk (fun k ->
          let members =
            List.sort compare
              (List.filter_map
                 (fun j ->
                   if inst.I.job_class.(j) = k then Some jc0.(j) else None)
                 (List.init n Fun.id))
          in
          let by_machine =
            List.sort compare
              (List.init m (fun i -> (mc0.(i), I.setup_time inst i k)))
          in
          (kc0.(k), inst.I.setups.(k), members, by_machine))
    in
    jc := rank_signatures job_sigs;
    mc := rank_signatures machine_sigs;
    kc := rank_signatures class_sigs;
    stable := !jc = jc0 && !mc = mc0 && !kc = kc0
  done;
  (!jc, !mc, !kc)

let sort_by_color colors =
  let idx = Array.init (Array.length colors) Fun.id in
  Array.sort
    (fun a b ->
      match compare colors.(a) colors.(b) with 0 -> compare a b | c -> c)
    idx;
  idx

(* --- the key -------------------------------------------------------------

   The key is an exact byte encoding of the canonical form, written
   straight from the original instance through the permutations: the
   fields Instance_io writes, in canonical order. Counts, class ranks
   and eligibility flags are LEB128 varints. A time that is an integral
   v in [0, 2^61) is the varint of v + 1; any other time (a fraction,
   infinity, -0.0) is a 0 byte and its 8 IEEE bytes. No value's code is
   a prefix of another's, so two keys are equal iff the canonical forms
   are, and comparing two keys bytewise compares the codes of their
   values one by one. *)

let add_uint buf v =
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (!v land 0x7f lor 0x80));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !v)

let add_time buf x =
  if Float.is_integer x && (not (Float.sign_bit x)) && x < 0x1p61 then
    add_uint buf (int_of_float x + 1)
  else begin
    Buffer.add_char buf '\000';
    Buffer.add_int64_le buf (Int64.bits_of_float x)
  end

let add_flag buf b = add_uint buf (Bool.to_int b)

let encode inst ~job_perm ~machine_perm ~class_perm =
  let n = I.num_jobs inst and m = I.num_machines inst in
  let kk = I.num_classes inst in
  let class_rank = inverse class_perm in
  let per_machine =
    match inst.I.env with
    | I.Identical -> 0
    | I.Uniform _ -> 1
    | I.Restricted _ -> n
    | I.Unrelated _ -> n + kk
  in
  (* most values take one byte *)
  let buf = Buffer.create (8 + kk + (2 * n) + (m * per_machine)) in
  (* machine-major rows of a matrix, columns in [col_perm] order *)
  let rows mat col_perm add =
    Array.iter
      (fun i ->
        let row = mat.(i) in
        Array.iter (fun c -> add buf row.(c)) col_perm)
      machine_perm
  in
  Buffer.add_char buf
    (match inst.I.env with
    | I.Identical -> 'i'
    | I.Uniform _ -> 'u'
    | I.Restricted _ -> 'r'
    | I.Unrelated _ -> 'p');
  add_uint buf m;
  add_uint buf kk;
  add_uint buf n;
  Array.iter (fun k -> add_time buf inst.I.setups.(k)) class_perm;
  (match inst.I.env with
  | I.Unrelated _ -> ()
  | I.Identical | I.Uniform _ | I.Restricted _ ->
      Array.iter (fun j -> add_time buf inst.I.sizes.(j)) job_perm);
  Array.iter (fun j -> add_uint buf class_rank.(inst.I.job_class.(j))) job_perm;
  (match inst.I.env with
  | I.Identical -> ()
  | I.Uniform speeds ->
      Array.iter (fun i -> add_time buf speeds.(i)) machine_perm
  | I.Restricted eligible -> rows eligible job_perm add_flag
  | I.Unrelated p -> (
      rows p job_perm add_time;
      match inst.I.setup_matrix with
      | None -> Buffer.add_char buf '\000'
      | Some s ->
          Buffer.add_char buf '\001';
          rows s class_perm add_time));
  Buffer.contents buf

(* A job's own values in key order (size, class rank, its entry in each
   machine row), encoded as in the key. *)
let job_column inst ~machine_perm ~class_rank j =
  let buf = Buffer.create 16 in
  (match inst.I.env with
  | I.Unrelated _ -> ()
  | I.Identical | I.Uniform _ | I.Restricted _ ->
      add_time buf inst.I.sizes.(j));
  add_uint buf class_rank.(inst.I.job_class.(j));
  (match inst.I.env with
  | I.Identical | I.Uniform _ -> ()
  | I.Restricted eligible ->
      Array.iter (fun i -> add_flag buf eligible.(i).(j)) machine_perm
  | I.Unrelated p -> Array.iter (fun i -> add_time buf p.(i).(j)) machine_perm);
  Buffer.contents buf

(* --- ties ----------------------------------------------------------------

   Entities left with equal colors form a cell. Twins have pointwise
   identical data: machines with equal rows and speed, classes with equal
   setups and no jobs (a class with jobs is pinned by their class
   entries). Any order of twins writes the same key bytes, so a cell of
   twins keeps its index order. A cell that holds non-twins is searched:
   the key is the least over every order of the non-twin class and
   machine cells. Jobs need no enumeration: with the class and machine
   orders fixed, the job segments of the key are least when each job
   cell is sorted by its columns, because the key lists the jobs' values
   field by field. Past [max_tie_orders] candidate orders the search
   keeps the least key seen, which is still the exact key of one
   labeling: a relabeled twin may then miss the cache, but never gets a
   wrong schedule. *)

let max_tie_orders = 1024

let same_time x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let machine_twins inst i i' =
  (match inst.I.env with
  | I.Identical -> true
  | I.Uniform speeds -> same_time speeds.(i) speeds.(i')
  | I.Restricted eligible -> eligible.(i) = eligible.(i')
  | I.Unrelated p -> Array.for_all2 same_time p.(i) p.(i'))
  &&
  match inst.I.setup_matrix with
  | None -> true
  | Some s -> Array.for_all2 same_time s.(i) s.(i')

let class_twins inst ~empty k k' =
  empty.(k) && empty.(k')
  && same_time inst.I.setups.(k) inst.I.setups.(k')
  &&
  match inst.I.setup_matrix with
  | None -> true
  | Some s -> Array.for_all (fun row -> same_time row.(k) row.(k')) s

(* Maximal runs of equal color, of length >= 2, in a color-sorted
   permutation, as (start, length). *)
let cells colors perm =
  let len = Array.length perm in
  let rec go start acc =
    if start >= len then List.rev acc
    else begin
      let stop = ref (start + 1) in
      while !stop < len && colors.(perm.(!stop)) = colors.(perm.(start)) do
        incr stop
      done;
      let len = !stop - start in
      go !stop (if len >= 2 then (start, len) :: acc else acc)
    end
  in
  go 0 []

(* A searched cell: its position in [perm], its members' twin groups
   (each group's members in index order) and the current arrangement,
   a sequence of group ids stepped through in lexicographic order so
   that orders differing only by twin swaps are visited once. *)
type tied = {
  perm : int array;
  start : int;
  groups : int array array;
  arrangement : int array;
}

let tied_cell perm ~twins (start, len) =
  let groups = ref [] in
  for x = start to start + len - 1 do
    let e = perm.(x) in
    let rec place = function
      | [] -> [ [ e ] ]
      | (g :: _ as members) :: rest when twins g e -> (members @ [ e ]) :: rest
      | g :: rest -> g :: place rest
    in
    groups := place !groups
  done;
  match !groups with
  | [ _ ] -> None
  | gs ->
      let groups = Array.of_list (List.map Array.of_list gs) in
      let arrangement =
        Array.concat
          (List.mapi (fun g ms -> Array.make (Array.length ms) g)
             (Array.to_list groups))
      in
      Some { perm; start; groups; arrangement }

let apply_arrangement c =
  let next = Array.make (Array.length c.groups) 0 in
  Array.iteri
    (fun x g ->
      c.perm.(c.start + x) <- c.groups.(g).(next.(g));
      next.(g) <- next.(g) + 1)
    c.arrangement

let swap a i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

(* Step [a] to its lexicographic successor; past the last arrangement,
   wrap to the first (ascending) and return false. *)
let next_arrangement a =
  let len = Array.length a in
  let reverse lo hi =
    let lo = ref lo and hi = ref hi in
    while !lo < !hi do
      swap a !lo !hi;
      incr lo;
      decr hi
    done
  in
  let i = ref (len - 2) in
  while !i >= 0 && a.(!i) >= a.(!i + 1) do
    decr i
  done;
  if !i < 0 then begin
    reverse 0 (len - 1);
    false
  end
  else begin
    let j = ref (len - 1) in
    while a.(!j) <= a.(!i) do
      decr j
    done;
    swap a !i !j;
    reverse (!i + 1) (len - 1);
    true
  end

let search inst ~job_cells ~job_perm ~machine_perm ~class_perm tied =
  let best = ref None in
  let orders = ref 0 in
  let rec advance = function
    | [] -> false
    | c :: rest -> next_arrangement c.arrangement || advance rest
  in
  let more = ref true in
  while !more do
    incr orders;
    List.iter apply_arrangement tied;
    let class_rank = inverse class_perm in
    let job_perm = Array.copy job_perm in
    List.iter
      (fun (start, len) ->
        let columns =
          Array.init len (fun x ->
              let j = job_perm.(start + x) in
              (job_column inst ~machine_perm ~class_rank j, j))
        in
        Array.stable_sort (fun (a, _) (b, _) -> String.compare a b) columns;
        Array.iteri (fun x (_, j) -> job_perm.(start + x) <- j) columns)
      job_cells;
    let key = encode inst ~job_perm ~machine_perm ~class_perm in
    (match !best with
    | Some l when String.compare l.key key <= 0 -> ()
    | Some _ | None ->
        best :=
          Some
            {
              key;
              job_perm;
              machine_perm = Array.copy machine_perm;
              class_perm = Array.copy class_perm;
            });
    if not (advance tied) then more := false
    else if !orders >= max_tie_orders then begin
      Obs.Counter.incr c_capped;
      more := false
    end
  done;
  Obs.Counter.add c_tie_orders !orders;
  Option.get !best

let label inst =
  let jc, mc, kc = refine inst in
  let job_perm = sort_by_color jc in
  let machine_perm = sort_by_color mc in
  let class_perm = sort_by_color kc in
  let empty = Array.make (I.num_classes inst) true in
  Array.iter (fun k -> empty.(k) <- false) inst.I.job_class;
  let tied =
    List.filter_map
      (tied_cell class_perm ~twins:(class_twins inst ~empty))
      (cells kc class_perm)
    @ List.filter_map
        (tied_cell machine_perm ~twins:(machine_twins inst))
        (cells mc machine_perm)
  in
  if tied = [] then
    {
      key = encode inst ~job_perm ~machine_perm ~class_perm;
      job_perm;
      machine_perm;
      class_perm;
    }
  else
    search inst ~job_cells:(cells jc job_perm) ~job_perm ~machine_perm
      ~class_perm tied

let canonical_instance inst l =
  relabel inst ~job_perm:l.job_perm ~machine_perm:l.machine_perm
    ~class_perm:l.class_perm

let canonicalize inst =
  let labeling = label inst in
  { instance = canonical_instance inst labeling; labeling }

let key inst = (label inst).key

(* Cheap relabeling-invariant fingerprint, consulted before full color
   refinement: every per-entity term is built from label-independent
   data (sizes, effective processing/setup times, speeds) and folded
   with commutative integer sums over all jobs/machines/classes, so any
   permutation of the three index spaces leaves the hash unchanged.
   Collisions are harmless (they only cost a canonicalization); what
   matters is that relabelings can never produce different hashes. *)
let prehash inst =
  let n = I.num_jobs inst and m = I.num_machines inst in
  let kk = I.num_classes inst in
  let env_tag =
    match inst.I.env with
    | I.Identical -> 0
    | I.Uniform _ -> 1
    | I.Restricted _ -> 2
    | I.Unrelated _ -> 3
  in
  let job_sum = ref 0 in
  for j = 0 to n - 1 do
    let pt = ref 0 in
    for i = 0 to m - 1 do
      pt := !pt + Hashtbl.hash (I.ptime inst i j)
    done;
    job_sum :=
      !job_sum
      + Hashtbl.hash
          (inst.I.sizes.(j), inst.I.setups.(inst.I.job_class.(j)), !pt)
  done;
  let machine_sum = ref 0 in
  for i = 0 to m - 1 do
    let pt = ref 0 in
    for j = 0 to n - 1 do
      pt := !pt + Hashtbl.hash (I.ptime inst i j)
    done;
    let su = ref 0 in
    for k = 0 to kk - 1 do
      su := !su + Hashtbl.hash (I.setup_time inst i k)
    done;
    machine_sum := !machine_sum + Hashtbl.hash (I.speed inst i, !pt, !su)
  done;
  let class_sum = ref 0 in
  for k = 0 to kk - 1 do
    class_sum :=
      !class_sum
      + Hashtbl.hash
          ( inst.I.setups.(k),
            I.class_size inst k,
            List.length (I.jobs_of_class inst k) )
  done;
  Hashtbl.hash (env_tag, n, m, kk, !job_sum, !machine_sum, !class_sum)

let to_canonical l assignment =
  let n = Array.length l.job_perm in
  if Array.length assignment <> n then
    invalid_arg
      (Printf.sprintf "Canon.assignment_to_canonical: %d entries for %d jobs"
         (Array.length assignment) n);
  let machine_rank = inverse l.machine_perm in
  Array.init n (fun jc -> machine_rank.(assignment.(l.job_perm.(jc))))

let to_original l assignment =
  let n = Array.length l.job_perm in
  if Array.length assignment <> n then
    invalid_arg
      (Printf.sprintf
         "Canon.assignment_to_original: %d entries for %d jobs"
         (Array.length assignment) n);
  let out = Array.make n (-1) in
  for jc = 0 to n - 1 do
    out.(l.job_perm.(jc)) <- l.machine_perm.(assignment.(jc))
  done;
  out

let assignment_to_canonical t = to_canonical t.labeling
let assignment_to_original t = to_original t.labeling

let shuffle rng inst =
  relabel inst
    ~job_perm:(Workloads.Rng.permutation rng (I.num_jobs inst))
    ~machine_perm:(Workloads.Rng.permutation rng (I.num_machines inst))
    ~class_perm:(Workloads.Rng.permutation rng (I.num_classes inst))
