type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else if Float.is_nan f then "null" (* JSON has no NaN *)
  else if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_buffer ?(indent = 0) b v =
  let pad depth =
    if indent > 0 then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (indent * depth) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | String s -> escape_string b s
    | List [] -> Buffer.add_string b "[]"
    | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          pad (depth + 1);
          go (depth + 1) x)
        xs;
      pad depth;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          pad (depth + 1);
          escape_string b k;
          Buffer.add_char b ':';
          if indent > 0 then Buffer.add_char b ' ';
          go (depth + 1) x)
        fields;
      pad depth;
      Buffer.add_char b '}'
  in
  go 0 v

let to_string ?indent v =
  let b = Buffer.create 256 in
  to_buffer ?indent b v;
  Buffer.contents b

let to_channel ?indent oc v = output_string oc (to_string ?indent v)

let write_file ?indent path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      to_channel ?indent oc v;
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Parsing *)

exception Parse_error of int * string

let parse_value ?(max_depth = max_int) s =
  let n = String.length s in
  let pos = ref 0 in
  let error fmt = Printf.ksprintf (fun m -> raise (Parse_error (!pos, m))) fmt in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> incr pos
    | Some c' -> error "expected %C, found %C" c c'
    | None -> error "expected %C, found end of input" c
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else error "invalid literal"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          (if !pos >= n then error "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'; incr pos
             | '\\' -> Buffer.add_char b '\\'; incr pos
             | '/' -> Buffer.add_char b '/'; incr pos
             | 'n' -> Buffer.add_char b '\n'; incr pos
             | 't' -> Buffer.add_char b '\t'; incr pos
             | 'r' -> Buffer.add_char b '\r'; incr pos
             | 'b' -> Buffer.add_char b '\b'; incr pos
             | 'f' -> Buffer.add_char b '\012'; incr pos
             | 'u' ->
               if !pos + 4 >= n then error "truncated \\u escape";
               (* exactly four hex digits — int_of_string "0x…" would
                  also accept underscores *)
               let hex i =
                 match s.[!pos + 1 + i] with
                 | '0' .. '9' as c -> Char.code c - Char.code '0'
                 | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                 | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                 | c -> error "invalid hex digit %C in \\u escape" c
               in
               let code = (hex 0 lsl 12) lor (hex 1 lsl 8) lor (hex 2 lsl 4) lor hex 3 in
               (* UTF-8 encode the BMP code point *)
               if code < 0x80 then Buffer.add_char b (Char.chr code)
               else if code < 0x800 then begin
                 Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
                 Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
               end
               else begin
                 Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
                 Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                 Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
               end;
               pos := !pos + 5
             | c -> error "invalid escape \\%C" c);
          go ()
        | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do incr pos done;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> error "invalid number %S" lit)
  in
  (* [depth] arrays and objects enclose the value being parsed *)
  let open_level depth =
    if depth >= max_depth then error "nesting deeper than %d levels" max_depth;
    incr pos;
    depth + 1
  in
  let rec parse depth =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
      let depth = open_level depth in
      skip_ws ();
      if peek () = Some ']' then begin incr pos; List [] end
      else begin
        let items = ref [ parse depth ] in
        skip_ws ();
        while peek () = Some ',' do
          incr pos;
          items := parse depth :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      let depth = open_level depth in
      skip_ws ();
      if peek () = Some '}' then begin incr pos; Obj [] end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse depth in
          skip_ws ();
          (k, v)
        in
        let fields = ref [ field () ] in
        while peek () = Some ',' do
          incr pos;
          fields := field () :: !fields
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some c -> error "unexpected character %C" c
  in
  let v = parse 0 in
  skip_ws ();
  if !pos <> n then error "trailing garbage";
  v

let parse ?max_depth s =
  match parse_value ?max_depth s with
  | v -> Ok v
  | exception Parse_error (pos, m) -> Error (Printf.sprintf "at byte %d: %s" pos m)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path =
  match read_file path with
  | exception Sys_error m -> Error m
  | contents -> (
    match parse contents with Ok v -> Ok v | Error m -> Error (path ^ ": " ^ m))

let parse_lines path =
  match read_file path with
  | exception Sys_error m -> Error m
  | contents ->
    let lines = String.split_on_char '\n' contents in
    let rec go acc lineno = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
        if String.trim line = "" then go acc (lineno + 1) rest
        else (
          match parse line with
          | Ok v -> go (v :: acc) (lineno + 1) rest
          | Error m -> Error (Printf.sprintf "%s:%d: %s" path lineno m))
    in
    go [] 1 lines

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function
  | Obj fields -> ( match List.assoc_opt key fields with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function List xs -> xs | _ -> []
let string_value = function String s -> Some s | _ -> None
let int_value = function Int i -> Some i | _ -> None

let float_value = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
