module Doc = Axml_doc
module View = Axml_doc.View
module Exec = Axml_exec.Exec

module P = Pattern

type binding = {
  results : (int * Doc.node) list;
  vars : (string * string) list;
}

let empty_binding = { results = []; vars = [] }

let label_string (lbl : Doc.label) =
  match lbl with
  | Doc.Elem name -> Some name
  | Doc.Data value -> Some value
  | Doc.Call _ -> None

let doc_label (n : Doc.node) = label_string n.Doc.label

let label_matches (ql : P.label) (lbl : Doc.label) =
  match ql, lbl with
  | P.Const s, Doc.Elem e -> String.equal s e
  | P.Value v, Doc.Data d -> String.equal v d
  | (P.Var _ | P.Wildcard), (Doc.Elem _ | Doc.Data _) -> true
  | P.Fun P.Any_fun, Doc.Call _ -> true
  | P.Fun (P.Named fs), Doc.Call c -> List.mem c.Doc.fname fs
  | P.Or, _ -> invalid_arg "Eval.label_matches: OR node"
  | (P.Const _ | P.Value _ | P.Var _ | P.Wildcard), Doc.Call _ -> false
  | (P.Const _ | P.Value _), (Doc.Elem _ | Doc.Data _) -> false
  | P.Fun _, (Doc.Elem _ | Doc.Data _) -> false

(* ------------------------------------------------------------------ *)
(* Bindings as small sorted association lists, with consistent merge.   *)

let rec merge_sorted ~conflict xs ys =
  match xs, ys with
  | [], zs | zs, [] -> Some zs
  | (kx, vx) :: xs', (ky, vy) :: ys' ->
    let c = compare kx ky in
    if c < 0 then
      Option.map (fun rest -> (kx, vx) :: rest) (merge_sorted ~conflict xs' ys)
    else if c > 0 then
      Option.map (fun rest -> (ky, vy) :: rest) (merge_sorted ~conflict xs ys')
    else if conflict vx vy then
      Option.map (fun rest -> (kx, vx) :: rest) (merge_sorted ~conflict xs' ys')
    else None

let join ~relax_joins b1 b2 =
  (* Result keys (pids) are unique per query node, so equal keys always
     carry the same image; variables must agree on their labels unless
     joins are relaxed. *)
  match merge_sorted ~conflict:(fun (x : Doc.node) y -> x.Doc.id = y.Doc.id) b1.results b2.results with
  | None -> None
  | Some results -> (
    match
      merge_sorted
        ~conflict:(fun x y -> relax_joins || String.equal x y)
        b1.vars b2.vars
    with
    | None -> None
    | Some vars -> Some { results; vars })

let binding_key b =
  (List.map (fun (pid, (n : Doc.node)) -> (pid, n.Doc.id)) b.results, b.vars)

let dedup bindings =
  match bindings with
  | [] | [ _ ] -> bindings
  | _ ->
    let seen = Hashtbl.create (List.length bindings) in
    List.filter
      (fun b ->
        let key = binding_key b in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      bindings

let join_lists ~relax_joins l1 l2 =
  match l1, l2 with
  | [], _ | _, [] -> []
  | [ b1 ], l2 when b1 == empty_binding -> l2
  | l1, [ b2 ] when b2 == empty_binding -> l1
  | l1, l2 ->
    dedup
      (List.concat_map (fun b1 -> List.filter_map (fun b2 -> join ~relax_joins b1 b2) l2) l1)

(* ------------------------------------------------------------------ *)
(* Parallel fan-out accounting: one [par] per evaluation run, shared by
   every context that should count into the same report.               *)

type par = {
  par_jobs : int;
  mutable batches : int;  (* parallel map dispatches *)
}

let par ~jobs = { par_jobs = max 1 jobs; batches = 0 }
let par_jobs p = p.par_jobs
let par_batches p = p.batches
let par_count p chunks = p.batches <- p.batches + chunks

(* ------------------------------------------------------------------ *)
(* Evaluation context: memo tables that outlive splices.               *)

module Itbl = Hashtbl.Make (Int)

(* Per document node: pattern pid -> bindings, as short association
   lists (a node meets few pattern nodes). An entry for (pattern node,
   document node) depends only on the document node's subtree, and
   document ids are never reused, so a splice invalidates exactly the
   entries of the splice parent and its ancestors. *)
type slot = {
  mutable at : (int * binding list) list;  (* pattern node mapped to the node *)
  mutable below : (int * binding list) list;  (* ... strictly below it *)
}

let rec assoc_pid pid = function
  | [] -> None
  | (k, r) :: rest -> if k = pid then Some r else assoc_pid pid rest

type ctx = {
  relax_joins : bool;
  record_images : bool;
  par : par option;
  mutable view : View.t option;
  (* the document (uid) and generation the memo is in sync with: [bind]
     keeps the memo for a view of that same state and resets it for any
     other, so a long-lived context never serves stale entries *)
  mutable doc_uid : int;
  mutable synced : int;
  (* document node id -> its memo slot *)
  memo : slot Itbl.t;
  (* pattern pid -> subtree contains result nodes or variables *)
  interesting : (int, bool) Hashtbl.t;
}

let make_ctx ?(record_images = false) ?par ~relax_joins () =
  {
    relax_joins;
    record_images;
    par;
    view = None;
    doc_uid = -1;
    synced = -1;
    memo = Itbl.create 256;
    interesting = Hashtbl.create 64;
  }

(* The document's view is patched in place by splices, so the same view
   object is in sync only at the generation the memo was kept for. *)
let bind ctx v =
  match ctx.view with
  | Some v0 when v0 == v && View.generation v = ctx.synced -> ()
  | bound ->
    (* ad-hoc subtree views carry no document identity: never in sync *)
    let in_sync =
      View.doc_uid v >= 0 && View.doc_uid v = ctx.doc_uid && View.generation v = ctx.synced
    in
    if Option.is_some bound && not in_sync then Itbl.reset ctx.memo;
    ctx.view <- Some v;
    ctx.doc_uid <- View.doc_uid v;
    ctx.synced <- View.generation v

let forget ctx (n : Doc.node) =
  if Option.is_some ctx.view then begin
    ctx.synced <- ctx.synced + 1;
    let rec up (n : Doc.node) =
      Itbl.remove ctx.memo n.Doc.id;
      Option.iter up n.Doc.parent
    in
    up n
  end

let slot ctx nid =
  match Itbl.find_opt ctx.memo nid with
  | Some s -> s
  | None ->
    let s = { at = []; below = [] } in
    Itbl.add ctx.memo nid s;
    s

let rec is_interesting ctx (p : P.node) =
  match Hashtbl.find_opt ctx.interesting p.P.pid with
  | Some v -> v
  | None ->
    let v =
      ctx.record_images || p.P.result
      || (match p.P.label with P.Var _ -> true | _ -> false)
      || List.exists (is_interesting ctx) p.P.children
    in
    Hashtbl.replace ctx.interesting p.P.pid v;
    v

let self_binding ctx v (p : P.node) i =
  let results =
    if p.P.result || ctx.record_images then [ (p.P.pid, View.node v i) ] else []
  in
  let vars =
    match p.P.label with
    | P.Var x -> ( match label_string (View.label v i) with Some l -> [ (x, l) ] | None -> [])
    | _ -> []
  in
  { results; vars }

(* Matches pattern node [p] with image exactly position [i] of [v]. *)
let rec match_at_ctx ctx v (p : P.node) i : binding list =
  let s = slot ctx (View.node v i).Doc.id in
  match assoc_pid p.P.pid s.at with
  | Some r -> r
  | None ->
    let r =
      match p.P.label with
      | P.Or ->
        (* The OR node itself has no image; its chosen alternative is
           matched at this position. *)
        dedup (List.concat_map (fun alt -> match_alternative ctx v alt i) p.P.children)
      | _ -> match_concrete ctx v p i
    in
    let r = if is_interesting ctx p then r else if r = [] then [] else [ empty_binding ] in
    s.at <- (p.P.pid, r) :: s.at;
    r

and match_alternative ctx v (alt : P.node) i =
  (* Alternatives are matched at the OR's position; their own axis is
     ignored. Nested ORs are permitted. *)
  match alt.P.label with
  | P.Or -> dedup (List.concat_map (fun a -> match_alternative ctx v a i) alt.P.children)
  | _ -> match_concrete ctx v alt i

and match_concrete ctx v (p : P.node) i =
  if not (label_matches p.P.label (View.label v i)) then []
  else begin
    let self = [ self_binding ctx v p i ] in
    List.fold_left
      (fun acc child ->
        if acc = [] then []
        else join_lists ~relax_joins:ctx.relax_joins acc (match_child ctx v child i))
      self p.P.children
  end

(* Matches pattern node [p] with image a child of [i] (Child axis) or any
   position strictly below [i] reachable through data nodes (Descendant). *)
and match_child ctx v (p : P.node) i =
  match p.P.axis with
  | P.Child ->
    dedup (List.concat_map (fun c -> match_at_ctx ctx v p c) (positions_under v i))
  | P.Descendant -> match_below ctx v p i

and match_below ctx v (p : P.node) i =
  let s = slot ctx (View.node v i).Doc.id in
  match assoc_pid p.P.pid s.below with
  | Some r -> r
  | None ->
    let r =
      dedup
        (List.concat_map
           (fun c ->
             let here = match_at_ctx ctx v p c in
             let deeper = if View.is_data v c then match_below ctx v p c else [] in
             here @ deeper)
           (positions_under v i))
    in
    let r = if is_interesting ctx p then r else if r = [] then [] else [ empty_binding ] in
    s.below <- (p.P.pid, r) :: s.below;
    r

(* Children visible to queries: all children of a data node; none for a
   function node (parameters are not document content). *)
and positions_under v i = if View.is_data v i then View.children v i else []

(* ------------------------------------------------------------------ *)
(* Root fan-out: decompose the match at the view root over its top-level
   subtrees and run contiguous chunks on domains. The reassembly
   replicates the sequential order exactly — per pattern child, chunk
   contributions concatenate in document order before the same dedup,
   interesting-collapse and join/fold — so the bindings are identical,
   element for element, at every jobs level.                            *)

let match_root ctx v (p : P.node) =
  let ri = View.root v in
  let sequential () = match_at_ctx ctx v p ri in
  match ctx.par with
  | None -> sequential ()
  | Some _ when p.P.label = P.Or -> sequential ()
  | Some par when par.par_jobs <= 1 -> sequential ()
  | Some par ->
    if not (label_matches p.P.label (View.label v ri)) then sequential ()
    else begin
      let tops = positions_under v ri in
      let chunks = View.partition v ~jobs:par.par_jobs tops in
      match chunks with
      | [] | [ _ ] -> sequential ()
      | chunks ->
        let work chunk =
          let cctx =
            make_ctx ~record_images:ctx.record_images ~relax_joins:ctx.relax_joins ()
          in
          cctx.view <- Some v;
          List.map
            (fun (c : P.node) ->
              List.concat_map
                (fun t ->
                  match c.P.axis with
                  | P.Child -> match_at_ctx cctx v c t
                  | P.Descendant ->
                    let here = match_at_ctx cctx v c t in
                    let deeper =
                      if View.is_data v t then match_below cctx v c t else []
                    in
                    here @ deeper)
                chunk)
            p.P.children
        in
        let results = Exec.map_domains ~jobs:par.par_jobs work chunks in
        par_count par (List.length chunks);
        let per_child =
          List.mapi
            (fun ci (c : P.node) ->
              let contrib = List.concat_map (fun r -> List.nth r ci) results in
              match c.P.axis with
              | P.Child -> dedup contrib
              | P.Descendant ->
                let r = dedup contrib in
                if is_interesting ctx c then r
                else if r = [] then []
                else [ empty_binding ])
            p.P.children
        in
        let self = [ self_binding ctx v p ri ] in
        let r =
          List.fold_left
            (fun acc rc ->
              if acc = [] then [] else join_lists ~relax_joins:ctx.relax_joins acc rc)
            self per_child
        in
        if is_interesting ctx p then r else if r = [] then [] else [ empty_binding ]
    end

(* ------------------------------------------------------------------ *)

type context = ctx

let context ?(relax_joins = false) ?par () = make_ctx ~relax_joins ?par ()

let match_at ?(relax_joins = false) p n =
  let v = View.of_node n in
  let ctx = make_ctx ~relax_joins () in
  bind ctx v;
  match_at_ctx ctx v p (View.root v)

let eval_view_in ctx (q : P.t) v =
  bind ctx v;
  match_root ctx v q.P.root

let eval_view ?(relax_joins = false) ?par (q : P.t) v =
  eval_view_in (make_ctx ~relax_joins ?par ()) q v

let eval_in ctx (q : P.t) (d : Doc.t) = eval_view_in ctx q (View.snapshot d)

let eval ?(relax_joins = false) ?par (q : P.t) (d : Doc.t) =
  eval_in (make_ctx ~relax_joins ?par ()) q d

let collect_target (bindings : binding list) ~target =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun b ->
      List.iter
        (fun (pid, (n : Doc.node)) ->
          if pid = target && not (Hashtbl.mem seen n.Doc.id) then begin
            Hashtbl.replace seen n.Doc.id ();
            out := n :: !out
          end)
        b.results)
    bindings;
  List.rev !out

let check_target (q : P.t) ~target =
  match P.find q target with
  | Some n when n.P.result -> ()
  | Some _ -> invalid_arg "Eval.matches_of: target is not a result node"
  | None -> invalid_arg "Eval.matches_of: no such pattern node"

let matches_of_view_in ctx (q : P.t) v ~target =
  check_target q ~target;
  collect_target (eval_view_in ctx q v) ~target

let matches_of_view ?(relax_joins = false) ?par (q : P.t) v ~target =
  matches_of_view_in (make_ctx ~relax_joins ?par ()) q v ~target

let matches_of_in ctx (q : P.t) (d : Doc.t) ~target =
  matches_of_view_in ctx q (View.snapshot d) ~target

let matches_of ?(relax_joins = false) ?par (q : P.t) (d : Doc.t) ~target =
  matches_of_in (make_ctx ~relax_joins ?par ()) q d ~target

(* ------------------------------------------------------------------ *)
(* Candidate-anchored matching (§6.2).                                  *)

let rec label_matches_or (p : P.node) lbl =
  match p.P.label with
  | P.Or -> List.exists (fun alt -> label_matches_or alt lbl) p.P.children
  | _ -> label_matches p.P.label lbl

(* Conditions of a path node, excluding the continuation to the next
   path node. *)
let side_conditions (p : P.node) (next : P.node) =
  List.filter (fun (c : P.node) -> c.P.pid <> next.P.pid) p.P.children

(* Staged: the pattern path is derived once per [q ~target], and the
   returned check only walks the candidate's chain. *)
let anchored_matches_view ?(relax_joins = false) (q : P.t) ~target =
  let target_node =
    match P.find q target with
    | Some n -> n
    | None -> invalid_arg "Eval.anchored_matches: no such pattern node"
  in
  let path = P.path_to q target_node in
  if List.exists (fun (p : P.node) -> p.P.label = P.Or) path then
    invalid_arg "Eval.anchored_matches: OR node on the path to the target";
  (* The pattern root must align with the document root (chain.(0)); the
     root's own axis is irrelevant, as in the top-down evaluator. *)
  let steps =
    match path with [] -> [] | root :: rest -> P.with_axis root P.Child :: rest
  in
  fun v ci ->
    (* The index chain the path must align with: view root … candidate. *)
    let chain =
      let rec up acc i = if i < 0 then acc else up (i :: acc) (View.parent v i) in
      Array.of_list (up [] ci)
    in
    let m = Array.length chain in
    (* Walk the pattern path and the chain in lock step; descendant edges
       may skip chain nodes. Without a context only the labels are
       aligned; with one, the side conditions at each alignment are
       checked with the regular (downward) evaluator and joined. *)
    let rec align ctx steps j acc =
      if acc = [] then false
      else
        match steps with
        | [] -> true
        | (p : P.node) :: rest ->
          let last = rest = [] in
          let try_at j =
            if j >= m then false
            else if last && j <> m - 1 then false
            else if not (label_matches_or p (View.label v chain.(j))) then false
            else
              match ctx with
              | None -> align ctx rest (j + 1) acc
              | Some c ->
                let conds =
                  match rest with
                  | [] -> p.P.children (* the target keeps all its conditions *)
                  | next :: _ -> side_conditions p next
                in
                let here =
                  List.fold_left
                    (fun acc cond ->
                      if acc = [] then []
                      else join_lists ~relax_joins acc (match_child c v cond chain.(j)))
                    acc conds
                in
                align ctx rest (j + 1) here
          in
          (match p.P.axis with
          | P.Child -> try_at j
          | P.Descendant ->
            let rec try_from j = j < m && (try_at j || try_from (j + 1)) in
            try_from j)
    in
    (* Any full alignment is also a label alignment, so the label-only
       pass is a pure prefilter: it rejects most candidates before a
       context is allocated or a side condition evaluated. *)
    steps <> []
    && align None steps 0 [ empty_binding ]
    &&
    let ctx = make_ctx ~relax_joins () in
    bind ctx v;
    align (Some ctx) steps 0 [ empty_binding ]

let anchored_matches ?relax_joins (q : P.t) ~target =
  let check = anchored_matches_view ?relax_joins q ~target in
  fun (d : Doc.t) (candidate : Doc.node) ->
    let v = View.snapshot d in
    match View.index_of v candidate with
    | Some ci -> check v ci
    | None ->
      (* not covered by the document's view: detached (already invoked)
         or foreign — it cannot be an image of the target *)
      false

(* ------------------------------------------------------------------ *)
(* Complete homomorphisms, for witnesses (query pushing) and oracles.   *)

type embedding = (int * Doc.node) list

let embeddings ?(relax_joins = false) ?(limit = 10_000) p n =
  let v = View.of_node n in
  let ctx = make_ctx ~record_images:true ~relax_joins () in
  bind ctx v;
  let bindings = match_at_ctx ctx v p (View.root v) in
  let bindings = if List.length bindings > limit then List.filteri (fun i _ -> i < limit) bindings else bindings in
  List.map (fun b -> b.results) bindings

let label_matches_exposed ql (n : Doc.node) = label_matches ql n.Doc.label

let bindings_to_xml bindings =
  let module Tree = Axml_xml.Tree in
  List.map
    (fun b ->
      let var_elems =
        List.map
          (fun (x, v) -> Tree.element (String.lowercase_ascii x) [ Tree.text v ])
          b.vars
      in
      let result_elems = List.map (fun (_, n) -> Doc.node_to_xml n) b.results in
      Tree.element "tuple" (var_elems @ result_elems))
    bindings
