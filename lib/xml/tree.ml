type t =
  | Element of element
  | Text of string

and element = { name : string; attrs : (string * string) list; children : t list }

type forest = t list

let element ?(attrs = []) name children = Element { name; attrs; children }
let text s = Text s

let name = function Element e -> Some e.name | Text _ -> None

let attr key = function
  | Element e -> List.assoc_opt key e.attrs
  | Text _ -> None

let children = function Element e -> e.children | Text _ -> []

let rec fold f acc t =
  let acc = f acc t in
  match t with
  | Text _ -> acc
  | Element e -> List.fold_left (fold f) acc e.children

let iter f t = fold (fun () n -> f n) () t

let text_content t =
  let buf = Buffer.create 16 in
  iter (function Text s -> Buffer.add_string buf s | Element _ -> ()) t;
  Buffer.contents buf

let size t = fold (fun n _ -> n + 1) 0 t

let rec depth = function
  | Text _ -> 1
  | Element { children = []; _ } -> 1
  | Element e -> 1 + List.fold_left (fun d c -> max d (depth c)) 0 e.children

let rec equal a b =
  match a, b with
  | Text x, Text y -> String.equal x y
  | Element x, Element y ->
    String.equal x.name y.name
    && x.attrs = y.attrs
    && List.length x.children = List.length y.children
    && List.for_all2 equal x.children y.children
  | Text _, Element _ | Element _, Text _ -> false

let rec compare a b =
  match a, b with
  | Text x, Text y -> String.compare x y
  | Text _, Element _ -> -1
  | Element _, Text _ -> 1
  | Element x, Element y ->
    let c = String.compare x.name y.name in
    if c <> 0 then c
    else
      let c = Stdlib.compare x.attrs y.attrs in
      if c <> 0 then c else List.compare compare x.children y.children

(* Children are compared as multisets by sorting both sides with a
   canonical order that is itself insensitive to child order: we normalize
   recursively before sorting. *)
let rec normalize t =
  match t with
  | Text _ -> t
  | Element e ->
    let children = List.map normalize e.children in
    let children = List.sort compare children in
    let attrs = List.sort Stdlib.compare e.attrs in
    Element { e with attrs; children }

let equal_unordered a b = equal (normalize a) (normalize b)

let find_all p t =
  List.rev (fold (fun acc n -> if p n then n :: acc else acc) [] t)

let rec pp ppf = function
  | Text s -> Format.fprintf ppf "%S" s
  | Element e ->
    Format.fprintf ppf "@[<hv 1><%s%a>%a</%s>@]" e.name pp_attrs e.attrs
      (Format.pp_print_list pp) e.children e.name

and pp_attrs ppf attrs =
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%S" k v) attrs
