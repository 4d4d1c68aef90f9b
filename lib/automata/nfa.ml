type t = {
  alphabet : string array;
  sym_index : (string, int) Hashtbl.t;
  start : int;
  accepting : bool array;
  (* transitions.(state).(symbol) = successor states *)
  transitions : int list array array;
}

let other_symbol = "\u{22A5}"

let start a = a.start
let is_accepting a s = a.accepting.(s)
let successors a s i = a.transitions.(s).(i)

let alphabet a = Array.to_list a.alphabet
let size a = Array.length a.accepting

(* ------------------------------------------------------------------ *)
(* Glushkov construction. Atoms of the regex are numbered 1..n; state 0
   is the initial state. *)

type atom = A_sym of string | A_any

let of_regex ~alphabet:alpha r =
  let alphabet = Array.of_list alpha in
  let sym_index = Hashtbl.create 16 in
  Array.iteri (fun i s -> Hashtbl.replace sym_index s i) alphabet;
  (* Number the atoms and record their labels. *)
  let atoms = ref [] in
  let natoms = ref 0 in
  let add_atom a =
    incr natoms;
    atoms := a :: !atoms;
    !natoms
  in
  (* For each sub-regex return (nullable, first, last) and accumulate the
     follow relation. positions are atom numbers. *)
  let follow = Hashtbl.create 64 in
  let add_follow p q =
    let existing = try Hashtbl.find follow p with Not_found -> [] in
    if not (List.mem q existing) then Hashtbl.replace follow p (q :: existing)
  in
  let rec go r =
    match r with
    | Regex.Empty -> (false, [], [], true) (* last flag: is the language empty *)
    | Regex.Epsilon -> (true, [], [], false)
    | Regex.Sym s ->
      if not (Hashtbl.mem sym_index s) then
        invalid_arg (Printf.sprintf "Nfa.of_regex: symbol %S not in the alphabet" s);
      let p = add_atom (A_sym s) in
      (false, [ p ], [ p ], false)
    | Regex.Any ->
      let p = add_atom A_any in
      (false, [ p ], [ p ], false)
    | Regex.Seq (a, b) ->
      let na, fa, la, ea = go a in
      let nb, fb, lb, eb = go b in
      if ea || eb then (false, [], [], true)
      else begin
        List.iter (fun p -> List.iter (add_follow p) fb) la;
        let first = if na then fa @ fb else fa in
        let last = if nb then lb @ la else lb in
        (na && nb, first, last, false)
      end
    | Regex.Alt (a, b) ->
      let na, fa, la, ea = go a in
      let nb, fb, lb, eb = go b in
      if ea && eb then (false, [], [], true)
      else if ea then (nb, fb, lb, false)
      else if eb then (na, fa, la, false)
      else (na || nb, fa @ fb, la @ lb, false)
    | Regex.Star a ->
      let _, fa, la, ea = go a in
      if ea then (true, [], [], false)
      else begin
        List.iter (fun p -> List.iter (add_follow p) fa) la;
        (true, fa, la, false)
      end
    | Regex.Plus a ->
      let na, fa, la, ea = go a in
      if ea then (false, [], [], true)
      else begin
        List.iter (fun p -> List.iter (add_follow p) fa) la;
        (na, fa, la, false)
      end
    | Regex.Opt a ->
      let _, fa, la, ea = go a in
      if ea then (true, [], [], false) else (true, fa, la, false)
  in
  let null, first, last, empty = go r in
  let n = !natoms in
  let atom_of = Array.make (n + 1) A_any in
  List.iteri (fun i a -> atom_of.(n - i) <- a) !atoms;
  let nsyms = Array.length alphabet in
  let transitions = Array.init (n + 1) (fun _ -> Array.make nsyms []) in
  let accepting = Array.make (n + 1) false in
  if not empty then begin
    if null then accepting.(0) <- true;
    List.iter (fun p -> accepting.(p) <- true) last;
    let connect src p =
      match atom_of.(p) with
      | A_sym s ->
        let i = Hashtbl.find sym_index s in
        transitions.(src).(i) <- p :: transitions.(src).(i)
      | A_any ->
        for i = 0 to nsyms - 1 do
          transitions.(src).(i) <- p :: transitions.(src).(i)
        done
    in
    List.iter (fun p -> connect 0 p) first;
    Hashtbl.iter (fun p qs -> List.iter (fun q -> connect p q) qs) follow
  end;
  { alphabet; sym_index; start = 0; accepting; transitions }

let common_alphabet rs =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let add s =
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.replace seen s ();
      out := s :: !out
    end
  in
  List.iter (fun r -> List.iter add (Regex.symbols r)) rs;
  add other_symbol;
  List.rev !out

let step a states sym =
  match Hashtbl.find_opt a.sym_index sym with
  | None -> []
  | Some i ->
    let out = Hashtbl.create 8 in
    List.iter
      (fun s -> List.iter (fun q -> Hashtbl.replace out q ()) a.transitions.(s).(i))
      states;
    Hashtbl.fold (fun q () acc -> q :: acc) out []

let accepts a word =
  let final = List.fold_left (step a) [ a.start ] word in
  List.exists (fun s -> a.accepting.(s)) final

let reachable a =
  let n = size a in
  let seen = Array.make n false in
  let rec visit s =
    if not seen.(s) then begin
      seen.(s) <- true;
      Array.iter (fun succs -> List.iter visit succs) a.transitions.(s)
    end
  in
  visit a.start;
  seen

let is_empty a =
  let seen = reachable a in
  not
    (Array.exists (fun s -> s)
       (Array.mapi (fun i r -> r && a.accepting.(i)) seen))

let check_same_alphabet a b =
  if a.alphabet <> b.alphabet then
    invalid_arg "Nfa: automata have different alphabets"

let product a b =
  check_same_alphabet a b;
  let na = size a and nb = size b in
  let nsyms = Array.length a.alphabet in
  let idx s t = (s * nb) + t in
  let transitions = Array.init (na * nb) (fun _ -> Array.make nsyms []) in
  let accepting = Array.make (na * nb) false in
  for s = 0 to na - 1 do
    for u = 0 to nb - 1 do
      accepting.(idx s u) <- a.accepting.(s) && b.accepting.(u);
      for i = 0 to nsyms - 1 do
        transitions.(idx s u).(i) <-
          List.concat_map
            (fun s' -> List.map (fun u' -> idx s' u') b.transitions.(u).(i))
            a.transitions.(s).(i)
      done
    done
  done;
  {
    alphabet = a.alphabet;
    sym_index = a.sym_index;
    start = idx a.start b.start;
    accepting;
    transitions;
  }

let prefix_closure a =
  (* States co-reachable from an accepting state become accepting. We
     compute co-reachability over the reversed transition relation. *)
  let n = size a in
  let preds = Array.make n [] in
  Array.iteri
    (fun s by_sym ->
      Array.iter (fun succs -> List.iter (fun q -> preds.(q) <- s :: preds.(q)) succs) by_sym)
    a.transitions;
  let co = Array.make n false in
  let rec visit s =
    if not co.(s) then begin
      co.(s) <- true;
      List.iter visit preds.(s)
    end
  in
  Array.iteri (fun s acc -> if acc then visit s) a.accepting;
  { a with accepting = co }

(* The product explored on the fly from the start pair, stopping at the
   first accepting pair: only reachable pairs are ever built. *)
let intersects a b =
  check_same_alphabet a b;
  let nb = size b in
  let nsyms = Array.length a.alphabet in
  let seen = Array.make (size a * nb) false in
  let rec visit s u =
    let i = (s * nb) + u in
    (not seen.(i))
    && begin
      seen.(i) <- true;
      (a.accepting.(s) && b.accepting.(u))
      ||
      let rec sym k =
        k < nsyms
        && (List.exists
              (fun s' -> List.exists (fun u' -> visit s' u') b.transitions.(u).(k))
              a.transitions.(s).(k)
           || sym (k + 1))
      in
      sym 0
    end
  in
  visit a.start b.start

let some_word a =
  (* BFS from the start state, remembering one incoming symbol per state. *)
  let n = size a in
  let visited = Array.make n false in
  let parent = Array.make n None in
  let queue = Queue.create () in
  visited.(a.start) <- true;
  Queue.add a.start queue;
  let found = ref None in
  while !found = None && not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    if a.accepting.(s) then found := Some s
    else
      Array.iteri
        (fun i succs ->
          List.iter
            (fun q ->
              if not visited.(q) then begin
                visited.(q) <- true;
                parent.(q) <- Some (s, a.alphabet.(i));
                Queue.add q queue
              end)
            succs)
        a.transitions.(s)
  done;
  match !found with
  | None -> None
  | Some s ->
    let rec unwind s acc =
      match parent.(s) with
      | None -> acc
      | Some (p, sym) -> unwind p (sym :: acc)
    in
    Some (unwind s [])
