(* Shared QCheck generators and differential-oracle helpers for the
   test suites. Extracted from test_xml.ml / test_faults.ml so the
   property tests, the wire fuzz tests and the fuzz-harness tests draw
   from one vocabulary of instances. *)

module Tree = Axml_xml.Tree
module Doc = Axml_doc
module Eval = Axml_query.Eval
module Schema = Axml_schema.Schema
module Regex = Axml_automata.Regex

(* ------------------------------------------------------------------ *)
(* XML trees *)

let gen_tree =
  let open QCheck.Gen in
  let label = oneofl [ "a"; "b"; "c"; "hotel"; "name" ] in
  let text_gen = oneofl [ "x"; "1 < 2"; "a&b"; "\"q\""; "Best Western" ] in
  sized
  @@ fix (fun self n ->
         if n = 0 then map Tree.text text_gen
         else
           frequency
             [
               (1, map Tree.text text_gen);
               ( 3,
                 map2
                   (fun name children -> Tree.element name children)
                   label
                   (list_size (int_bound 3) (self (n / 2))) );
             ])

(* [Parse.tree] requires an element root, so wrap. *)
let gen_rooted_tree = QCheck.Gen.map (fun c -> Tree.element "root" [ c ]) gen_tree
let arb_tree = QCheck.make ~print:(Fmt.to_to_string Tree.pp) gen_rooted_tree

(* Trees for the byte-accounting properties: text and attribute values
   drawn from the characters the printer escapes, whitespace and
   letters (empty strings included); some elements are
   <axml:call name=…> function nodes. *)
let gen_escapable_tree =
  let open QCheck.Gen in
  let value =
    string_size
      ~gen:(oneofl [ '&'; '<'; '>'; '"'; '\''; ' '; '\n'; '\t'; 'a'; 'z' ])
      (int_bound 6)
  in
  let attrs = list_size (int_bound 2) (pair (oneofl [ "k"; "id"; "x-y" ]) value) in
  let shell =
    oneof
      [
        pair (oneofl [ "a"; "b"; "hotel" ]) attrs;
        map2 (fun fname attrs -> (Doc.call_elem_name, ("name", fname) :: attrs)) value attrs;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then map Tree.text value
         else
           frequency
             [
               (1, map Tree.text value);
               ( 3,
                 map2
                   (fun (name, attrs) children -> Tree.element ~attrs name children)
                   shell
                   (list_size (int_bound 3) (self (n / 2))) );
             ])

let arb_escapable_tree = QCheck.make ~print:(Fmt.to_to_string Tree.pp) gen_escapable_tree

(* The parser drops whitespace-only text between elements and merges
   nothing else; generated text leaves are never whitespace-only, but two
   adjacent text leaves would merge. Normalize both sides by merging
   adjacent text nodes before comparing. *)
let rec merge_text (tr : Tree.t) : Tree.t =
  match tr with
  | Tree.Text _ -> tr
  | Tree.Element e ->
    let rec merge = function
      | Tree.Text a :: Tree.Text b :: rest -> merge (Tree.Text (a ^ b) :: rest)
      | x :: rest -> merge_text x :: merge rest
      | [] -> []
    in
    Tree.Element { e with children = merge e.children }

(* ------------------------------------------------------------------ *)
(* Schema-aware instances: a small seeded schema over a fixed symbol
   vocabulary (structured elements r/s/u, data leaves k/p, one service
   f) plus trees generated top-down from its content models — every
   generated tree conforms to its schema, which is what the type-based
   projection properties need. All content models in the pool are
   nullable, so running out of depth fuel truncates to the empty word
   instead of an invalid child sequence. *)

let content_models =
  [ "(s|u)*"; "s*"; "(s|k|f)*"; "(k|p)*"; "(u|p|f)*"; "p?.f?"; "(p|f)*"; "k?.(p|u)*" ]

(* f's output type need not be nullable — calls are generated unexpanded. *)
let output_models = [ "p*"; "(p|f)*"; "k?"; "p"; "s" ]

type schema_case = {
  r_model : string;
  s_model : string;
  u_model : string;
  f_out : string;
  tree_seed : int;
}

let schema_src c =
  Printf.sprintf
    "functions:\n  f = [in: data, out: %s]\nelements:\n  r = %s\n  s = %s\n  u = %s\n  k = data\n  p = data\n"
    c.f_out c.r_model c.s_model c.u_model

let schema_of_case c = Schema.of_string (schema_src c)

let print_schema_case c =
  Printf.sprintf "r=%s s=%s u=%s f->%s seed=%d" c.r_model c.s_model c.u_model c.f_out
    c.tree_seed

let gen_schema_case =
  QCheck.Gen.(
    map
      (fun ((r_model, s_model), (u_model, (f_out, tree_seed))) ->
        { r_model; s_model; u_model; f_out; tree_seed })
      (pair
         (pair (oneofl content_models) (oneofl content_models))
         (pair (oneofl content_models) (pair (oneofl output_models) (int_bound 10_000)))))

let arb_schema_case = QCheck.make ~print:print_schema_case gen_schema_case

(* A tree conforming to [schema], rooted at element [r]: each element's
   children spell a word of its content model (sampled from the
   enumeration, shortest — empty — word once the fuel runs out), [data]
   becomes a text leaf and function symbols become unexpanded
   [<axml:call>] elements with one data parameter. *)
let conforming_tree ?(root = "r") schema ~seed =
  let rng = Random.State.make [| 0xD0C5; seed |] in
  let texts = [| "x"; "1"; "magic"; "a&b" |] in
  let rec of_symbol fuel sym =
    if sym = Schema.data_keyword then
      Tree.text texts.(Random.State.int rng (Array.length texts))
    else if Schema.is_function_symbol schema sym then
      Tree.element Doc.call_elem_name ~attrs:[ ("name", sym) ] [ Tree.text "arg" ]
    else
      let children =
        match Schema.find_element schema sym with
        | None -> []
        | Some r -> (
          let alphabet = List.sort_uniq compare (Regex.symbols r) in
          match Regex.enumerate ~max_len:4 ~limit:64 ~alphabet r with
          | [] -> []
          | shortest :: _ as words ->
            let word =
              if fuel <= 0 then shortest
              else List.nth words (Random.State.int rng (List.length words))
            in
            List.map (of_symbol (fuel - 1)) word)
      in
      Tree.element sym children
  in
  of_symbol (3 + Random.State.int rng 3) root

(* ------------------------------------------------------------------ *)
(* Binding signatures — the differential-oracle vocabulary (Def. 4). *)

(* Synthetic queries bind no variables, so compare full binding
   signatures: variable bindings plus serialized result subtrees.
   Result-node pids are dropped — pattern-node ids are globally unique,
   so re-parsing the query in a second instance shifts them; the list is
   sorted by pid, so position identifies the result node. *)
let signature (b : Eval.binding) =
  ( b.Eval.vars,
    List.map (fun (_, n) -> Axml_xml.Print.to_string (Doc.node_to_xml n)) b.Eval.results )

let tuples answers = List.sort_uniq compare (List.map signature answers)
let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

(* ------------------------------------------------------------------ *)
(* Fault cases: a seeded document plus a seeded fault schedule. *)

type fault_case = {
  doc_seed : int;
  fault_seed : int;
  rate : float;
  permanent : bool;
      (* total outage: attempts that dodge the Flaky drop hang past the
         attempt budget instead, so every call permanently fails *)
}

let print_fault_case c =
  Printf.sprintf "doc_seed=%d fault_seed=%d rate=%.2f permanent=%b" c.doc_seed
    c.fault_seed c.rate c.permanent

let gen_fault_case =
  QCheck.Gen.(
    map
      (fun ((doc_seed, fault_seed), (rate, permanent)) ->
        { doc_seed; fault_seed; rate; permanent })
      (pair (pair (int_bound 5000) (int_bound 5000)) (pair (float_bound_inclusive 0.9) bool)))

let arb_fault_case = QCheck.make ~print:print_fault_case gen_fault_case

(* Transient-only cases at rates low enough that a deep retry budget
   masks every fault with overwhelming probability. *)
let arb_transient_fault_case =
  QCheck.make ~print:print_fault_case
    QCheck.Gen.(
      map
        (fun ((doc_seed, fault_seed), rate) ->
          { doc_seed; fault_seed; rate; permanent = false })
        (pair (pair (int_bound 5000) (int_bound 5000)) (float_bound_inclusive 0.6)))

(* ------------------------------------------------------------------ *)
(* Wire garbage: hostile byte strings to throw at an AXML peer. The
   frame format is a 4-byte big-endian length followed by that many
   payload bytes — compact JSON, or the binary codec when the header's
   top bit is set (lib/net/wire.ml); every generated string is
   malformed at one of the protocol's layers. *)

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  Bytes.to_string b

(* The same frame flagged as binary-codec (top bit of header byte 0). *)
let frame_bin payload =
  let b = Bytes.of_string (frame payload) in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lor 0x80));
  Bytes.to_string b

let gen_raw_bytes =
  QCheck.Gen.(map (fun l -> String.init (List.length l) (List.nth l)) (list_size (int_range 1 64) (map Char.chr (int_bound 255))))

type garbage =
  | Random_bytes of string  (* arbitrary bytes, header included *)
  | Truncated_header of string  (* fewer than 4 bytes, then EOF *)
  | Truncated_payload of string * int  (* header promises more than sent *)
  | Oversize of int  (* length prefix above max_frame *)
  | Non_positive of int  (* zero or negative length prefix *)
  | Not_json of string  (* well-framed, payload isn't JSON *)
  | Wrong_envelope of string  (* well-framed valid JSON, bad envelope *)
  | Binary_random of string  (* binary-flagged frame over arbitrary bytes *)
  | Binary_truncated of string * int  (* binary header promises more than sent *)
  | Binary_bad_tag of string  (* binary frame opening on an unknown message tag *)
  | Binary_bad_push of int  (* binary invoke whose push byte is none of 0, 1, 2 *)
  | Binary_oversize of int  (* binary flag + length prefix above max_frame *)

let print_garbage g =
  let hex s = String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (String.length s) (String.get s)))) in
  match g with
  | Random_bytes s -> Printf.sprintf "random bytes %s" (hex s)
  | Truncated_header s -> Printf.sprintf "truncated header %s" (hex s)
  | Truncated_payload (s, n) -> Printf.sprintf "payload %s cut to %d bytes" (hex s) n
  | Oversize n -> Printf.sprintf "oversize length %d" n
  | Non_positive n -> Printf.sprintf "non-positive length %d" n
  | Not_json s -> Printf.sprintf "non-JSON payload %S" s
  | Wrong_envelope s -> Printf.sprintf "wrong envelope %s" s
  | Binary_random s -> Printf.sprintf "binary random payload %s" (hex s)
  | Binary_truncated (s, n) -> Printf.sprintf "binary payload %s cut to %d bytes" (hex s) n
  | Binary_bad_tag s -> Printf.sprintf "binary bad tag %s" (hex s)
  | Binary_bad_push b -> Printf.sprintf "binary invoke with push byte %d" b
  | Binary_oversize n -> Printf.sprintf "binary oversize length %d" n

(* The bytes a client would actually write for this garbage. *)
let garbage_bytes = function
  | Random_bytes s -> s
  | Truncated_header s -> s
  | Truncated_payload (payload, sent) ->
    let full = frame payload in
    String.sub full 0 (min (String.length full) (4 + sent))
  | Oversize n | Non_positive n ->
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int n);
    Bytes.to_string b
  | Not_json s -> frame s
  | Wrong_envelope s -> frame s
  | Binary_random s -> frame_bin s
  | Binary_truncated (payload, sent) ->
    let full = frame_bin payload in
    String.sub full 0 (min (String.length full) (4 + sent))
  | Binary_bad_tag s -> frame_bin s
  | Binary_bad_push b ->
    (* invoke, id 1, service "s", no params, then the push byte *)
    frame_bin ("\x02\x01\x01s\x00" ^ String.make 1 (Char.chr b))
  | Binary_oversize n ->
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int n);
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lor 0x80));
    Bytes.to_string b

let gen_garbage =
  QCheck.Gen.(
    let envelopes =
      oneofl
        [
          {|{"type":"frobnicate"}|};
          {|{"no_type":1}|};
          {|[1,2,3]|};
          {|"hello"|};
          {|{"type":"invoke"}|};
          {|{"type":"result","id":"not an int"}|};
          {|{"type":"hello","version":"high"}|};
          (* the push member's forms are absent, a pattern object or
             the reuse marker "same" *)
          {|{"type":"invoke","id":1,"service":"s","params":[],"push":"again"}|};
          {|{"type":"invoke","id":1,"service":"s","params":[],"push":2}|};
        ]
    in
    frequency
      [
        (3, map (fun s -> Random_bytes s) gen_raw_bytes);
        (2, map (fun s -> Truncated_header (String.sub s 0 (min 3 (String.length s)))) gen_raw_bytes);
        ( 2,
          map2
            (fun s sent -> Truncated_payload (s, sent))
            gen_raw_bytes (int_bound 8) );
        (1, map (fun n -> Oversize (64 * 1024 * 1024 + 1 + n)) (int_bound 1000));
        (1, map (fun n -> Non_positive (-n)) (int_bound 1000));
        (2, map (fun s -> Not_json ("not json " ^ s)) (oneofl [ "{"; "}"; "<xml/>"; "" ]));
        (2, map (fun s -> Wrong_envelope s) envelopes);
        (2, map (fun s -> Binary_random s) gen_raw_bytes);
        ( 2,
          map2
            (fun s sent -> Binary_truncated (s, sent))
            gen_raw_bytes (int_bound 8) );
        ( 2,
          map2
            (fun tag s -> Binary_bad_tag (String.make 1 (Char.chr tag) ^ s))
            (int_range 8 255) gen_raw_bytes );
        (1, map (fun n -> Binary_oversize (64 * 1024 * 1024 + 1 + n)) (int_bound 1000));
        (1, map (fun b -> Binary_bad_push b) (int_range 3 255));
      ])

let arb_garbage = QCheck.make ~print:print_garbage gen_garbage
