exception Error of { line : int; col : int; message : string }

let max_depth = 10_000

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of the beginning of the current line *)
  mutable depth : int; (* elements open around the current position *)
}

let make src = { src; pos = 0; line = 1; bol = 0; depth = 0 }

let fail st message =
  raise (Error { line = st.line; col = st.pos - st.bol + 1; message })

let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else st.src.[st.pos]

let peek2 st =
  if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

let advance st =
  (if not (eof st) then
     match st.src.[st.pos] with
     | '\n' ->
       st.line <- st.line + 1;
       st.bol <- st.pos + 1
     | _ -> ());
  st.pos <- st.pos + 1

let expect st c =
  if peek st <> c then fail st (Printf.sprintf "expected %C, found %C" c (peek st));
  advance st

(* [src] at [pos] continues with [s] from [i] to [n]: compared in place,
   with no substring or closure allocated. *)
let rec same_at src pos s i n = i = n || (src.[pos + i] = s.[i] && same_at src pos s (i + 1) n)

let looking_at st prefix =
  let n = String.length prefix in
  st.pos + n <= String.length st.src && same_at st.src st.pos prefix 0 n

let skip st n =
  for _ = 1 to n do
    advance st
  done

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let rec blank src i stop = i = stop || (is_space src.[i] && blank src (i + 1) stop)

let skip_space st =
  while (not (eof st)) && is_space (peek st) do
    advance st
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
  || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

(* Skips over a name; returns its start offset. *)
let scan_name st =
  if not (is_name_start (peek st)) then fail st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  start

let parse_name st =
  let start = scan_name st in
  String.sub st.src start (st.pos - start)

(* Advances to the end of input or the first ['<'], ['&'] or [quote];
   returns the start offset. *)
let scan_run st quote =
  let start = st.pos in
  while
    (not (eof st))
    &&
    let c = peek st in
    c <> '<' && c <> '&' && c <> quote
  do
    advance st
  done;
  start

(* Entity and character references. *)
let parse_reference st =
  expect st '&';
  if peek st = '#' then begin
    advance st;
    let hex = peek st = 'x' in
    if hex then advance st;
    let start = st.pos in
    let ok c =
      (c >= '0' && c <= '9')
      || (hex && ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')))
    in
    while ok (peek st) do
      advance st
    done;
    if st.pos = start then fail st "empty character reference";
    let digits = String.sub st.src start (st.pos - start) in
    expect st ';';
    let code =
      try int_of_string (if hex then "0x" ^ digits else digits)
      with Failure _ -> fail st "invalid character reference"
    in
    (* Encode the code point as UTF-8. *)
    let buf = Buffer.create 4 in
    (try Buffer.add_utf_8_uchar buf (Uchar.of_int code)
     with Invalid_argument _ -> fail st "character reference out of range");
    Buffer.contents buf
  end
  else
    let name = parse_name st in
    expect st ';';
    match name with
    | "amp" -> "&"
    | "lt" -> "<"
    | "gt" -> ">"
    | "quot" -> "\""
    | "apos" -> "'"
    | other -> fail st (Printf.sprintf "unknown entity &%s;" other)

(* The run from [start] to where [scan_run st quote] stopped, continued
   across references and resolved: one substring when it has none. *)
let resolve_run st quote start =
  if eof st || peek st <> '&' then String.sub st.src start (st.pos - start)
  else begin
    let buf = Buffer.create 16 in
    let rec loop start =
      Buffer.add_substring buf st.src start (st.pos - start);
      if (not (eof st)) && peek st = '&' then begin
        Buffer.add_string buf (parse_reference st);
        loop (scan_run st quote)
      end
    in
    loop start;
    Buffer.contents buf
  end

let parse_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected a quoted attribute value";
  advance st;
  let value = resolve_run st quote (scan_run st quote) in
  if eof st then fail st "unterminated attribute value";
  if peek st = '<' then fail st "'<' in attribute value";
  advance st;
  value

let parse_attrs st =
  let rec loop acc =
    skip_space st;
    if is_name_start (peek st) then begin
      let key = parse_name st in
      skip_space st;
      expect st '=';
      skip_space st;
      let value = parse_attr_value st in
      loop ((key, value) :: acc)
    end
    else List.rev acc
  in
  loop []

let skip_until st closer what =
  let n = String.length closer in
  let rec loop () =
    if eof st then fail st (Printf.sprintf "unterminated %s" what)
    else if looking_at st closer then skip st n
    else begin
      advance st;
      loop ()
    end
  in
  loop ()

(* Skips comments, processing instructions and DOCTYPE; returns [true] if
   something was skipped. *)
let skip_misc st =
  if looking_at st "<!--" then begin
    skip st 4;
    skip_until st "-->" "comment";
    true
  end
  else if looking_at st "<?" then begin
    skip st 2;
    skip_until st "?>" "processing instruction";
    true
  end
  else if looking_at st "<!DOCTYPE" then begin
    (* Skip to the matching '>', tolerating an internal subset in [...]. *)
    skip st 9;
    let rec loop depth =
      if eof st then fail st "unterminated DOCTYPE"
      else
        match peek st with
        | '[' ->
          advance st;
          loop (depth + 1)
        | ']' ->
          advance st;
          loop (depth - 1)
        | '>' when depth = 0 -> advance st
        | _ ->
          advance st;
          loop depth
    in
    loop 0;
    true
  end
  else false

let rec parse_content st acc =
  if eof st then List.rev acc
  else if looking_at st "</" then List.rev acc
  else if looking_at st "<![CDATA[" then begin
    skip st 9;
    let start = st.pos in
    let rec find () =
      if eof st then fail st "unterminated CDATA section"
      else if looking_at st "]]>" then ()
      else begin
        advance st;
        find ()
      end
    in
    find ();
    let data = String.sub st.src start (st.pos - start) in
    skip st 3;
    parse_content st (Tree.Text data :: acc)
  end
  else if skip_misc st then parse_content st acc
  else if peek st = '<' then parse_content st (parse_element st :: acc)
  else begin
    (* Character data, with references resolved. Whitespace-only runs
       between elements are dropped (a reference makes a run
       non-blank). *)
    let start = scan_run st '<' in
    if (eof st || peek st = '<') && blank st.src start st.pos then parse_content st acc
    else parse_content st (Tree.Text (resolve_run st '<' start) :: acc)
  end

and parse_element st =
  if st.depth >= max_depth then
    fail st (Printf.sprintf "elements nest deeper than %d levels" max_depth);
  expect st '<';
  let name = parse_name st in
  let attrs = parse_attrs st in
  skip_space st;
  if looking_at st "/>" then begin
    skip st 2;
    Tree.Element { name; attrs; children = [] }
  end
  else begin
    expect st '>';
    st.depth <- st.depth + 1;
    let children = parse_content st [] in
    st.depth <- st.depth - 1;
    if not (looking_at st "</") then fail st (Printf.sprintf "unclosed element <%s>" name);
    skip st 2;
    let start = scan_name st in
    let n = String.length name in
    if st.pos - start <> n || not (same_at st.src start name 0 n) then
      fail st
        (Printf.sprintf "mismatched closing tag </%s> for <%s>"
           (String.sub st.src start (st.pos - start))
           name);
    skip_space st;
    expect st '>';
    Tree.Element { name; attrs; children }
  end

let forest src =
  let st = make src in
  let trees = parse_content st [] in
  if not (eof st) then fail st "unexpected closing tag at top level";
  trees

let tree src =
  let st = make src in
  let rec skip_prolog () =
    skip_space st;
    if skip_misc st then skip_prolog ()
  in
  skip_prolog ();
  if eof st then fail st "empty document";
  if peek st <> '<' || peek2 st = '/' then fail st "expected a root element";
  let root = parse_element st in
  skip_prolog ();
  if not (eof st) then fail st "content after the root element";
  root

let tree_of_file path =
  let ic = open_in_bin path in
  let finally () = close_in_noerr ic in
  Fun.protect ~finally (fun () ->
      let len = in_channel_length ic in
      tree (really_input_string ic len))

let error_to_string = function
  | Error { line; col; message } ->
    Some (Printf.sprintf "XML parse error at line %d, column %d: %s" line col message)
  | _ -> None
