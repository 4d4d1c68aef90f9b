type axis = Child | Descendant

type fun_filter = Any_fun | Named of string list

type label =
  | Const of string
  | Value of string
  | Var of string
  | Wildcard
  | Or
  | Fun of fun_filter

type node = {
  pid : int;
  label : label;
  axis : axis;
  children : node list;
  result : bool;
}

type t = { root : node }

let counter = ref 0

let make ?(axis = Child) ?(result = false) label children =
  incr counter;
  { pid = !counter; label; axis; children; result }

let query root = { root }
let with_children n children = { n with children }
let with_result n result = { n with result }
let with_label n label = { n with label }
let with_axis n axis = { n with axis }

let fold f acc q =
  let rec go acc n = List.fold_left go (f acc n) n.children in
  go acc q.root

let nodes q = List.rev (fold (fun acc n -> n :: acc) [] q)
let find q pid = List.find_opt (fun n -> n.pid = pid) (nodes q)

let result_nodes q = List.filter (fun n -> n.result) (nodes q)

let variables q =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun n ->
      match n.label with
      | Var x when not (Hashtbl.mem seen x) ->
        Hashtbl.replace seen x ();
        Some x
      | Var _ | Const _ | Value _ | Wildcard | Or | Fun _ -> None)
    (nodes q)

let has_function_nodes q =
  List.exists (fun n -> match n.label with Fun _ -> true | _ -> false) (nodes q)

let path_to q target =
  let rec search path n =
    let path = n :: path in
    if n.pid = target.pid then Some (List.rev path)
    else List.find_map (search path) n.children
  in
  match search [] q.root with Some p -> p | None -> raise Not_found

let linear_part q target =
  let path = path_to q target in
  let without_target = List.filteri (fun i _ -> i < List.length path - 1) path in
  (* OR nodes are transparent: drop them but propagate a descendant axis
     downwards if either the OR edge or the chosen child edge descends. *)
  let rec clean pending = function
    | [] -> []
    | n :: rest -> (
      let axis = if pending = Descendant then Descendant else n.axis in
      match n.label with
      | Or -> clean axis rest
      | label -> (axis, label) :: clean Child rest)
  in
  clean Child without_target

let linear_regex steps =
  let module R = Axml_automata.Regex in
  let sym = function
    | Const s -> R.Sym s
    | Value _ | Var _ | Wildcard | Or | Fun _ -> R.Any
  in
  R.seq
    (List.map
       (fun (axis, label) ->
         match axis with
         | Child -> sym label
         | Descendant -> R.seq [ R.Star R.Any; sym label ])
       steps)

let pp_label ppf = function
  | Const s -> Format.pp_print_string ppf s
  | Value v -> Format.fprintf ppf "%S" v
  | Var x -> Format.fprintf ppf "$%s" x
  | Wildcard -> Format.pp_print_char ppf '*'
  | Or -> Format.pp_print_string ppf "|"
  | Fun Any_fun -> Format.pp_print_string ppf "*()"
  | Fun (Named [ f ]) -> Format.fprintf ppf "%s()" f
  | Fun (Named fs) -> Format.fprintf ppf "(%s)()" (String.concat "|" fs)

let rec pp_node ppf n =
  let axis = match n.axis with Child -> "/" | Descendant -> "//" in
  Format.pp_print_string ppf axis;
  (match n.label with
  | Or ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " | ")
         pp_alternative)
      n.children
  | label -> pp_label ppf label);
  if n.result then Format.pp_print_char ppf '!';
  match n.label with
  | Or -> ()
  | _ -> List.iter (fun c -> Format.fprintf ppf "[%a]" pp_predicate c) n.children

and pp_alternative ppf n =
  (* Inside an OR, the child's own axis is irrelevant (the OR's axis is
     used), so print without a leading axis. *)
  pp_label ppf n.label;
  if n.result then Format.pp_print_char ppf '!';
  List.iter (fun c -> Format.fprintf ppf "[%a]" pp_predicate c) n.children

and pp_predicate ppf n =
  (* Predicates are relative paths: the leading '/' is dropped for child
     axis, '//' is kept to distinguish descendant steps. *)
  (match n.axis with
  | Child -> ()
  | Descendant -> Format.pp_print_string ppf "//");
  (match n.label with
  | Or ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " | ")
         pp_alternative)
      n.children
  | label -> pp_label ppf label);
  if n.result then Format.pp_print_char ppf '!';
  match n.label with
  | Or -> ()
  | _ -> List.iter (fun c -> Format.fprintf ppf "[%a]" pp_predicate c) n.children

let pp ppf q = pp_node ppf q.root
let to_string q = Format.asprintf "%a" pp q
