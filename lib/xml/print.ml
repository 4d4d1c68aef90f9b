(* Escaped lengths: [&] -> [&amp;] (5), [<] -> [&lt;] and [>] -> [&gt;]
   (4), and ['"'] -> [&quot;] (6) inside attribute values only. *)
let escaped_size ~quot s =
  let n = ref (String.length s) in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '&' -> n := !n + 4
    | '<' | '>' -> n := !n + 3
    | '"' when quot -> n := !n + 5
    | _ -> ()
  done;
  !n

(* [s] itself when nothing needs escaping *)
let escape ~quot s =
  let n = escaped_size ~quot s in
  if n = String.length s then s
  else begin
    let buf = Buffer.create n in
    String.iter
      (fun c ->
        match c with
        | '&' -> Buffer.add_string buf "&amp;"
        | '<' -> Buffer.add_string buf "&lt;"
        | '>' -> Buffer.add_string buf "&gt;"
        | '"' when quot -> Buffer.add_string buf "&quot;"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let escape_text = escape ~quot:false
let escape_attr = escape ~quot:true

let add_attrs buf attrs =
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      Buffer.add_string buf (escape_attr v);
      Buffer.add_char buf '"')
    attrs

let all_elements = List.for_all (function Tree.Element _ -> true | Tree.Text _ -> false)

let to_buffer ?indent buf t =
  let pad n =
    match indent with
    | None -> ()
    | Some step ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (n * step) ' ')
  in
  let rec go level t =
    match t with
    | Tree.Text s -> Buffer.add_string buf (escape_text s)
    | Tree.Element { name; attrs; children } -> (
      Buffer.add_char buf '<';
      Buffer.add_string buf name;
      add_attrs buf attrs;
      match children with
      | [] -> Buffer.add_string buf "/>"
      | children ->
        Buffer.add_char buf '>';
        let pretty = indent <> None && all_elements children in
        List.iter
          (fun c ->
            if pretty then pad (level + 1);
            go (level + 1) c)
          children;
        if pretty then pad level;
        Buffer.add_string buf "</";
        Buffer.add_string buf name;
        Buffer.add_char buf '>')
  in
  go 0 t

let to_string ?indent t =
  let buf = Buffer.create 256 in
  to_buffer ?indent buf t;
  Buffer.contents buf

let forest_to_string ?indent forest =
  let buf = Buffer.create 256 in
  List.iteri
    (fun i t ->
      if i > 0 && indent <> None then Buffer.add_char buf '\n';
      to_buffer ?indent buf t)
    forest;
  Buffer.contents buf

(* The compact lengths [to_buffer] would produce, without printing. *)

let text_size = escaped_size ~quot:false

(* [ k="v"] *)
let attr_size k v = String.length k + 4 + escaped_size ~quot:true v
let attrs_size attrs = List.fold_left (fun n (k, v) -> n + attr_size k v) 0 attrs

(* [<name attrs/>] when empty, else [<name attrs>] and [</name>] *)
let shell_size name ~attrs ~empty =
  let n = String.length name in
  if empty then n + attrs + 3 else (2 * n) + attrs + 5

let rec byte_size = function
  | Tree.Text s -> text_size s
  | Tree.Element { name; attrs; children } ->
    List.fold_left
      (fun n c -> n + byte_size c)
      (shell_size name ~attrs:(attrs_size attrs) ~empty:(children = []))
      children

let forest_byte_size f = List.fold_left (fun n t -> n + byte_size t) 0 f
