module Tree = Axml_xml.Tree

type node = {
  id : int;
  label : label;
  attrs : (string * string) list;
  mutable children : node list;
  mutable parent : node option;
  mutable viewpos : int;
  mutable viewstamp : int;
}

and label =
  | Elem of string
  | Data of string
  | Call of call

and call = { fname : string; call_id : int }

(* A document-order (pre-order) index of one subtree, held as a gap
   buffer so that a splice patches it in place. Logical position [i]
   lives in slot [i] before the gap and in slot [i + gap_len] past it.
   [vsize] holds each slot's subtree {e size}, not its end, so entries
   survive the gap's moves: the children of [i] are [i+1],
   [i+1 + size (i+1)], ... — a skip-walk that never touches the mutable
   tree. Labels and attrs are read through the node (both are fixed at
   construction), parents through its parent pointer. Views built
   through the per-document cache identify nodes by stamping their slot
   into [viewpos]/[viewstamp]; ad-hoc subtree views carry an id table
   instead so they never disturb a document's stamps. *)
type view = {
  vdoc_uid : int;
  mutable vgeneration : int;
  vstamp : int;
  mutable vnodes : node array;  (* gap slots hold [hole] *)
  mutable vsize : int array;  (* subtree size, per slot *)
  mutable gap_start : int;
  mutable gap_len : int;
  vids : (int, int) Hashtbl.t option;  (* ad-hoc views only *)
}

type t = {
  mutable root : node;
  mutable next_id : int;
  mutable next_call_id : int;
  uid : int;
  mutable generation : int;
  mutable view_cache : view option;
  mutable reindexed : int;  (* cumulative nodes (re)indexed into views *)
}

let next_doc_uid = Atomic.make 0
let next_view_stamp = Atomic.make 0

let fresh_id d =
  let id = d.next_id in
  d.next_id <- id + 1;
  id

let mk d ?(attrs = []) label =
  {
    id = fresh_id d;
    label;
    attrs;
    children = [];
    parent = None;
    viewpos = -1;
    viewstamp = -1;
  }

let adopt parent child =
  match child.parent with
  | Some _ -> invalid_arg "Doc: node already has a parent"
  | None -> child.parent <- Some parent

let elem d ?(attrs = []) name children =
  let n = mk d ~attrs (Elem name) in
  List.iter (adopt n) children;
  n.children <- children;
  n

let data d value = mk d (Data value)

let call d fname params =
  let call_id = d.next_call_id in
  d.next_call_id <- call_id + 1;
  let n = mk d (Call { fname; call_id }) in
  List.iter (adopt n) params;
  n.children <- params;
  n

let create () =
  let dummy_root =
    {
      id = 0;
      label = Elem "root";
      attrs = [];
      children = [];
      parent = None;
      viewpos = -1;
      viewstamp = -1;
    }
  in
  {
    root = dummy_root;
    next_id = 1;
    next_call_id = 1;
    uid = Atomic.fetch_and_add next_doc_uid 1;
    generation = 0;
    view_cache = None;
    reindexed = 0;
  }

(* Every structural mutation bumps the generation; [replace_call] patches
   the cached view in place of this wholesale invalidation. *)
let touch d =
  d.generation <- d.generation + 1;
  d.view_cache <- None

let set_root d n =
  (match n.parent with
  | Some _ -> invalid_arg "Doc.set_root: node has a parent"
  | None -> ());
  d.root <- n;
  touch d

let root d = d.root
let uid d = d.uid
let generation d = d.generation
let view_indexed_total d = d.reindexed

(* ------------------------------------------------------------------ *)

let call_elem_name = "axml:call"

let rec import d (t : Tree.t) : node =
  match t with
  | Tree.Text s -> data d s
  | Tree.Element { name; attrs; children } when String.equal name call_elem_name -> (
    match List.assoc_opt "name" attrs with
    | None -> invalid_arg "Doc.of_xml: <axml:call> without a name attribute"
    | Some fname -> call d fname (List.map (import d) children))
  | Tree.Element { name; attrs; children } ->
    elem d ~attrs name (List.map (import d) children)

let forest_of_xml d forest = List.map (import d) forest

let of_xml t =
  let d = create () in
  set_root d (import d t);
  d

let parse s = of_xml (Axml_xml.Parse.tree s)

let rec node_to_xml n =
  match n.label with
  | Data s -> Tree.Text s
  | Elem name -> Tree.Element { name; attrs = n.attrs; children = List.map node_to_xml n.children }
  | Call { fname; _ } ->
    Tree.Element
      {
        name = call_elem_name;
        attrs = ("name", fname) :: n.attrs;
        children = List.map node_to_xml n.children;
      }

let to_xml d = node_to_xml d.root
let to_string ?indent d = Axml_xml.Print.to_string ?indent (to_xml d)

(* ------------------------------------------------------------------ *)

let append_child d parent child =
  adopt parent child;
  parent.children <- parent.children @ [ child ];
  touch d

let remove_node d n =
  match n.parent with
  | None -> invalid_arg "Doc.remove_node: cannot detach the root"
  | Some p ->
    p.children <- List.filter (fun c -> c.id <> n.id) p.children;
    n.parent <- None;
    touch d

let rec subtree_count n = List.fold_left (fun acc c -> acc + subtree_count c) 1 n.children

(* Fills the gap's slots. Never stamped, so [index_of] of a node whose
   slot was dropped into the gap is [None] — and the node is released. *)
let hole =
  { id = -1; label = Data ""; attrs = []; children = []; parent = None; viewpos = -1; viewstamp = -1 }

let phys v i = if i < v.gap_start then i else i + v.gap_len
let view_size v = Array.length v.vnodes - v.gap_len

let view_index_of v n =
  match v.vids with
  | Some h -> Hashtbl.find_opt h n.id
  | None ->
    let p = n.viewpos in
    if n.viewstamp = v.vstamp && p >= 0 && p < Array.length v.vnodes && v.vnodes.(p) == n then
      Some (if p < v.gap_start then p else p - v.gap_len)
    else None

(* Indexes [nd]'s subtree in pre-order from slot [!pos]. *)
let rec index_subtree v pos nd =
  let i = !pos in
  incr pos;
  v.vnodes.(i) <- nd;
  (match v.vids with
  | None ->
    nd.viewpos <- i;
    nd.viewstamp <- v.vstamp
  | Some h -> Hashtbl.replace h nd.id i);
  List.iter (index_subtree v pos) nd.children;
  v.vsize.(i) <- !pos - i

(* Moves the gap to logical position [g]: the nodes between the old and
   the new position cross it and are restamped, the slots they vacate
   join the gap. O(distance). The distance is why the view is a gap
   buffer rather than two arrays with slack at the end: a splice's next
   neighbour is usually close by (on perfbench's rewrite workload the
   gap moves 60 slots per splice on average, 85% of moves within 64
   slots), while an end-slack buffer would shift and restamp the whole
   suffix (360 slots on average there). A size-preserving splice never
   opens a gap and moves nothing. *)
let move_gap v g =
  let gs = v.gap_start and gl = v.gap_len in
  if gl > 0 && g > gs then begin
    Array.blit v.vnodes (gs + gl) v.vnodes gs (g - gs);
    Array.blit v.vsize (gs + gl) v.vsize gs (g - gs);
    for p = gs to g - 1 do
      v.vnodes.(p).viewpos <- p
    done;
    let from = max g (gs + gl) in
    Array.fill v.vnodes from (g + gl - from) hole
  end
  else if gl > 0 && g < gs then begin
    Array.blit v.vnodes g v.vnodes (g + gl) (gs - g);
    Array.blit v.vsize g v.vsize (g + gl) (gs - g);
    for p = g + gl to gs + gl - 1 do
      v.vnodes.(p).viewpos <- p
    done;
    Array.fill v.vnodes g (min gs (g + gl) - g) hole
  end;
  v.gap_start <- g

(* Doubles the capacity until the gap holds [need] slots; the suffix
   past the gap moves to the new end and is restamped. *)
let grow v need =
  let cap = Array.length v.vnodes in
  let live = cap - v.gap_len in
  let rec double c = if c - live >= need then c else double (2 * c) in
  let cap' = double (2 * cap) in
  let nodes = Array.make cap' hole and size = Array.make cap' 0 in
  let gs = v.gap_start in
  let tail = live - gs in
  Array.blit v.vnodes 0 nodes 0 gs;
  Array.blit v.vsize 0 size 0 gs;
  Array.blit v.vnodes (cap - tail) nodes (cap' - tail) tail;
  Array.blit v.vsize (cap - tail) size (cap' - tail) tail;
  for p = cap' - tail to cap' - 1 do
    nodes.(p).viewpos <- p
  done;
  v.vnodes <- nodes;
  v.vsize <- size;
  v.gap_len <- cap' - live

(* Splice-patches the cached view in place: move the gap to the end of
   the call's span, drop the span into it, index the fresh subtrees at
   the gap and widen the ancestors' sizes along the parent chain. Costs
   O(gap distance + span + result + depth), amortized growth aside.
   Returns the number of nodes indexed, or [None] (view untouched) when
   the invoked node cannot be located in [v] — the caller then drops
   the cache. *)
let patch_view v ~parent fnode fresh =
  match view_index_of v fnode with
  | None -> None
  | Some s ->
    let old = v.vsize.(fnode.viewpos) in
    move_gap v (s + old);
    Array.fill v.vnodes s old hole;
    v.gap_start <- s;
    v.gap_len <- v.gap_len + old;
    let added = List.fold_left (fun acc n -> acc + subtree_count n) 0 fresh in
    if added > v.gap_len then grow v added;
    let pos = ref s in
    List.iter (index_subtree v pos) fresh;
    v.gap_start <- s + added;
    v.gap_len <- v.gap_len - added;
    (* the ancestors precede the gap, so their slots are their positions *)
    let delta = added - old in
    let rec widen a =
      v.vsize.(a.viewpos) <- v.vsize.(a.viewpos) + delta;
      Option.iter widen a.parent
    in
    widen parent;
    Some added

let replace_call d fnode result =
  (match fnode.label with
  | Call _ -> ()
  | Elem _ | Data _ -> invalid_arg "Doc.replace_call: not a function node");
  match fnode.parent with
  | None -> invalid_arg "Doc.replace_call: function node has no parent"
  | Some parent ->
    (* validate membership before touching anything: a failed replace
       must not leave freshly imported nodes adopted but unspliced *)
    if not (List.exists (fun c -> c.id = fnode.id) parent.children) then
      invalid_arg "Doc.replace_call: node not among its parent's children";
    let cache =
      match d.view_cache with
      | Some v when v.vgeneration = d.generation -> Some v
      | _ -> None
    in
    let fresh = List.map (import d) result in
    List.iter (adopt parent) fresh;
    let rec splice = function
      | [] -> assert false
      | c :: rest -> if c.id = fnode.id then fresh @ rest else c :: splice rest
    in
    parent.children <- splice parent.children;
    fnode.parent <- None;
    d.generation <- d.generation + 1;
    (match cache with
    | None -> d.view_cache <- None
    | Some v -> (
      match patch_view v ~parent fnode fresh with
      | Some added ->
        v.vgeneration <- d.generation;
        d.reindexed <- d.reindexed + added
      | None -> d.view_cache <- None));
    fresh

(* ------------------------------------------------------------------ *)

let rec iter_node f n =
  f n;
  List.iter (iter_node f) n.children

let iter f d = iter_node f d.root

let fold f acc d =
  let acc = ref acc in
  iter (fun n -> acc := f !acc n) d;
  !acc

let is_data n = match n.label with Elem _ | Data _ -> true | Call _ -> false
let is_call n = match n.label with Call _ -> true | Elem _ | Data _ -> false
let call_name n = match n.label with Call { fname; _ } -> Some fname | Elem _ | Data _ -> None

let function_nodes d = List.rev (fold (fun acc n -> if is_call n then n :: acc else acc) [] d)

let visible_function_nodes d =
  (* Traverse without descending into function nodes' parameters. *)
  let out = ref [] in
  let rec go n =
    match n.label with
    | Call _ -> out := n :: !out
    | Elem _ | Data _ -> List.iter go n.children
  in
  go d.root;
  List.rev !out

let ancestors n =
  let rec up acc n = match n.parent with None -> List.rev acc | Some p -> up (p :: acc) p in
  up [] n

let label_path n =
  let labels =
    List.filter_map
      (fun a -> match a.label with Elem name -> Some name | Data _ | Call _ -> None)
      (ancestors n)
  in
  List.rev labels

let size d = fold (fun n _ -> n + 1) 0 d
let count_calls d = List.length (function_nodes d)
let data_children n = List.filter is_data n.children
let text_value n = match n.label with Data v -> Some v | Elem _ | Call _ -> None

let rec pp_node ppf n =
  match n.label with
  | Data s -> Format.fprintf ppf "%S" s
  | Elem name ->
    Format.fprintf ppf "@[<hv 2><%s>%a</%s>@]" name
      (Format.pp_print_list pp_node) n.children name
  | Call { fname; call_id } ->
    Format.fprintf ppf "@[<hv 2>[%d]%s(%a)@]" call_id fname
      (Format.pp_print_list pp_node) n.children

let pp ppf d = pp_node ppf d.root

(* ------------------------------------------------------------------ *)

type doc = t

module View = struct
  type t = view

  let build ~stamped ~doc_uid ~generation root_node =
    let n = subtree_count root_node in
    let v =
      {
        vdoc_uid = doc_uid;
        vgeneration = generation;
        vstamp = (if stamped then Atomic.fetch_and_add next_view_stamp 1 else -1);
        vnodes = Array.make n root_node;
        vsize = Array.make n 0;
        gap_start = n;
        gap_len = 0;
        vids = (if stamped then None else Some (Hashtbl.create (max 16 n)));
      }
    in
    index_subtree v (ref 0) root_node;
    v

  let snapshot (d : doc) =
    match d.view_cache with
    | Some v when v.vgeneration = d.generation -> v
    | _ ->
      let v = build ~stamped:true ~doc_uid:d.uid ~generation:d.generation d.root in
      d.reindexed <- d.reindexed + view_size v;
      d.view_cache <- Some v;
      v

  let of_node n = build ~stamped:false ~doc_uid:(-1) ~generation:(-1) n
  let size = view_size
  let generation v = v.vgeneration
  let doc_uid v = v.vdoc_uid
  let root (_ : t) = 0
  let node v i = v.vnodes.(phys v i)
  let label v i = (node v i).label
  let attrs v i = (node v i).attrs
  let subtree_end v i = i + v.vsize.(phys v i)
  let index_of = view_index_of

  let parent v i =
    match (node v i).parent with
    | None -> -1
    | Some p -> ( match index_of v p with Some j -> j | None -> -1)

  let is_data v i = match label v i with Elem _ | Data _ -> true | Call _ -> false
  let is_call v i = match label v i with Call _ -> true | Elem _ | Data _ -> false

  let children v i =
    let stop = subtree_end v i in
    let rec go j acc = if j >= stop then List.rev acc else go (subtree_end v j) (j :: acc) in
    go (i + 1) []

  let top_subtrees v = children v 0

  let partition v ~jobs tops =
    let jobs = max 1 jobs in
    if jobs <= 1 then [ tops ]
    else begin
      let weight i = subtree_end v i - i in
      let total = List.fold_left (fun acc i -> acc + weight i) 0 tops in
      let target = max 1 ((total + jobs - 1) / jobs) in
      let chunks = ref [] in
      let cur = ref [] in
      let w = ref 0 in
      let close () =
        if !cur <> [] then begin
          chunks := List.rev !cur :: !chunks;
          cur := [];
          w := 0
        end
      in
      List.iter
        (fun i ->
          cur := i :: !cur;
          w := !w + weight i;
          if !w >= target && List.length !chunks < jobs - 1 then close ())
        tops;
      close ();
      List.rev !chunks
    end

  let visible_calls v =
    let n = size v in
    let rec go i acc =
      if i >= n then List.rev acc
      else
        let nd = node v i in
        match nd.label with
        | Call _ -> go (subtree_end v i) (nd :: acc)
        | Elem _ | Data _ -> go (i + 1) acc
    in
    go 0 []

  let rec subtree_to_xml v i =
    let nd = node v i in
    match nd.label with
    | Data s -> Tree.Text s
    | Elem name ->
      Tree.Element { name; attrs = nd.attrs; children = List.map (subtree_to_xml v) (children v i) }
    | Call { fname; _ } ->
      Tree.Element
        {
          name = call_elem_name;
          attrs = ("name", fname) :: nd.attrs;
          children = List.map (subtree_to_xml v) (children v i);
        }

  let materialize v = subtree_to_xml v 0
end
