module Tree = Axml_xml.Tree
module P = Axml_query.Pattern
module Json = Axml_obs.Json

let version = 1
let max_frame = 64 * 1024 * 1024

exception Protocol_error of string
exception Closed

let fail fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Trees *)

let rec tree_to_json = function
  | Tree.Text s -> Json.String s
  | Tree.Element { Tree.name; attrs; children } ->
    Json.Obj
      (("n", Json.String name)
      :: ((if attrs = [] then []
           else
             [
               ( "a",
                 Json.List
                   (List.map (fun (k, v) -> Json.List [ Json.String k; Json.String v ]) attrs)
               );
             ])
         @
         if children = [] then []
         else [ ("c", Json.List (List.map tree_to_json children)) ]))

let forest_to_json f = Json.List (List.map tree_to_json f)

let rec tree_of_json = function
  | Json.String s -> Tree.Text s
  | Json.Obj _ as j ->
    let name =
      match Json.member "n" j with
      | Json.String s -> s
      | _ -> fail "tree element without a string \"n\" field"
    in
    let attrs =
      match Json.member "a" j with
      | Json.Null -> []
      | Json.List kvs ->
        List.map
          (function
            | Json.List [ Json.String k; Json.String v ] -> (k, v)
            | _ -> fail "tree attribute is not a [key, value] string pair")
          kvs
      | _ -> fail "tree \"a\" field is not a list"
    in
    let children =
      match Json.member "c" j with
      | Json.Null -> []
      | Json.List cs -> List.map tree_of_json cs
      | _ -> fail "tree \"c\" field is not a list"
    in
    Tree.Element { Tree.name; attrs; children }
  | _ -> fail "tree node is neither a string nor an object"

let forest_of_json = function
  | Json.List ts -> List.map tree_of_json ts
  | _ -> fail "forest is not a list"

(* ------------------------------------------------------------------ *)
(* Patterns *)

let axis_to_json = function
  | P.Child -> Json.String "child"
  | P.Descendant -> Json.String "desc"

let axis_of_json = function
  | Json.String "child" -> P.Child
  | Json.String "desc" -> P.Descendant
  | _ -> fail "pattern axis is neither \"child\" nor \"desc\""

let label_to_json = function
  | P.Const s -> Json.Obj [ ("const", Json.String s) ]
  | P.Value s -> Json.Obj [ ("value", Json.String s) ]
  | P.Var s -> Json.Obj [ ("var", Json.String s) ]
  | P.Wildcard -> Json.String "*"
  | P.Or -> Json.String "or"
  | P.Fun P.Any_fun -> Json.Obj [ ("fun", Json.Null) ]
  | P.Fun (P.Named names) ->
    Json.Obj [ ("fun", Json.List (List.map (fun n -> Json.String n) names)) ]

let label_of_json = function
  | Json.String "*" -> P.Wildcard
  | Json.String "or" -> P.Or
  | Json.Obj [ (key, v) ] -> (
    match (key, v) with
    | "const", Json.String s -> P.Const s
    | "value", Json.String s -> P.Value s
    | "var", Json.String s -> P.Var s
    | "fun", Json.Null -> P.Fun P.Any_fun
    | "fun", Json.List names ->
      P.Fun
        (P.Named
           (List.map
              (function Json.String n -> n | _ -> fail "pattern fun name is not a string")
              names))
    | _ -> fail "unknown pattern label %S" key)
  | _ -> fail "pattern label does not decode"

let rec pattern_to_json (n : P.node) =
  Json.Obj
    [
      ("axis", axis_to_json n.P.axis);
      ("label", label_to_json n.P.label);
      ("result", Json.Bool n.P.result);
      ("children", Json.List (List.map pattern_to_json n.P.children));
    ]

let rec pattern_of_json j =
  match j with
  | Json.Obj _ ->
    let axis = axis_of_json (Json.member "axis" j) in
    let label = label_of_json (Json.member "label" j) in
    let result =
      match Json.member "result" j with
      | Json.Bool b -> b
      | Json.Null -> false
      | _ -> fail "pattern result flag is not a boolean"
    in
    let children =
      match Json.member "children" j with
      | Json.Null -> []
      | Json.List cs -> List.map pattern_of_json cs
      | _ -> fail "pattern children is not a list"
    in
    P.make ~axis ~result label children
  | _ -> fail "pattern node is not an object"

(* ------------------------------------------------------------------ *)
(* Envelopes *)

type service_info = { name : string; push : bool }

(* Capabilities ride the handshake as a list of opaque strings; peers
   that predate them decode no "caps" field as the empty list and ignore
   the extra JSON member when encoding — negotiation degrades to "none". *)
let cap_project = "project"

(* A shard-aware peer: its Welcome service list is complete enough to be
   used for replica discovery and shard assignment. Purely an
   advertisement — no wire-format change rides on it. *)
let cap_shard = "shard"

type message =
  | Hello of { version : int; caps : string list }
  | Welcome of { version : int; services : service_info list; caps : string list }
  | Invoke of {
      id : int;
      service : string;
      params : Tree.forest;
      push : P.node option;
    }
  | Result of { id : int; pushed : bool; forest : Tree.forest }
  | Error of { id : int; transient : bool; message : string }
  | Degraded of { id : int; message : string; retries : int; timeouts : int }
  | Eval of { id : int; strategy : string; query : P.node; doc : Tree.t; projected : bool }
  | Report of { id : int; report : Json.t }

let caps_to_json caps = ("caps", Json.List (List.map (fun c -> Json.String c) caps))

let message_to_json = function
  | Hello { version; caps } ->
    Json.Obj
      [ ("type", Json.String "hello"); ("version", Json.Int version); caps_to_json caps ]
  | Welcome { version; services; caps } ->
    Json.Obj
      [
        ("type", Json.String "welcome");
        ("version", Json.Int version);
        ( "services",
          Json.List
            (List.map
               (fun s ->
                 Json.Obj [ ("name", Json.String s.name); ("push", Json.Bool s.push) ])
               services) );
        caps_to_json caps;
      ]
  | Invoke { id; service; params; push } ->
    Json.Obj
      ([
         ("type", Json.String "invoke");
         ("id", Json.Int id);
         ("service", Json.String service);
         ("params", forest_to_json params);
       ]
      @ match push with None -> [] | Some p -> [ ("push", pattern_to_json p) ])
  | Result { id; pushed; forest } ->
    Json.Obj
      [
        ("type", Json.String "result");
        ("id", Json.Int id);
        ("pushed", Json.Bool pushed);
        ("forest", forest_to_json forest);
      ]
  | Error { id; transient; message } ->
    Json.Obj
      [
        ("type", Json.String "error");
        ("id", Json.Int id);
        ("transient", Json.Bool transient);
        ("message", Json.String message);
      ]
  | Degraded { id; message; retries; timeouts } ->
    Json.Obj
      [
        ("type", Json.String "degraded");
        ("id", Json.Int id);
        ("message", Json.String message);
        ("retries", Json.Int retries);
        ("timeouts", Json.Int timeouts);
      ]
  | Eval { id; strategy; query; doc; projected } ->
    Json.Obj
      ([
         ("type", Json.String "eval");
         ("id", Json.Int id);
         ("strategy", Json.String strategy);
         ("query", pattern_to_json query);
         ("doc", tree_to_json doc);
       ]
      @ if projected then [ ("projected", Json.Bool true) ] else [])
  | Report { id; report } ->
    Json.Obj [ ("type", Json.String "report"); ("id", Json.Int id); ("report", report) ]

let int_field key j =
  match Json.member key j with Json.Int i -> i | _ -> fail "missing int field %S" key

let string_field key j =
  match Json.member key j with
  | Json.String s -> s
  | _ -> fail "missing string field %S" key

let bool_field key j =
  match Json.member key j with Json.Bool b -> b | _ -> fail "missing bool field %S" key

(* Absent on pre-capability peers: decode to []. *)
let caps_field j =
  match Json.member "caps" j with
  | Json.Null -> []
  | Json.List cs ->
    List.map (function Json.String c -> c | _ -> fail "capability is not a string") cs
  | _ -> fail "caps is not a list"

let message_of_json j =
  match Json.member "type" j with
  | Json.String "hello" -> Hello { version = int_field "version" j; caps = caps_field j }
  | Json.String "welcome" ->
    let services =
      List.map
        (fun s -> { name = string_field "name" s; push = bool_field "push" s })
        (Json.to_list (Json.member "services" j))
    in
    Welcome { version = int_field "version" j; services; caps = caps_field j }
  | Json.String "invoke" ->
    let push =
      match Json.member "push" j with
      | Json.Null -> None
      | p -> Some (pattern_of_json p)
    in
    Invoke
      {
        id = int_field "id" j;
        service = string_field "service" j;
        params = forest_of_json (Json.member "params" j);
        push;
      }
  | Json.String "result" ->
    Result
      {
        id = int_field "id" j;
        pushed = bool_field "pushed" j;
        forest = forest_of_json (Json.member "forest" j);
      }
  | Json.String "error" ->
    Error
      {
        id = int_field "id" j;
        transient = bool_field "transient" j;
        message = string_field "message" j;
      }
  | Json.String "degraded" ->
    Degraded
      {
        id = int_field "id" j;
        message = string_field "message" j;
        retries = int_field "retries" j;
        timeouts = int_field "timeouts" j;
      }
  | Json.String "eval" ->
    Eval
      {
        id = int_field "id" j;
        strategy = string_field "strategy" j;
        query = pattern_of_json (Json.member "query" j);
        doc = tree_of_json (Json.member "doc" j);
        projected = (match Json.member "projected" j with Json.Bool b -> b | _ -> false);
      }
  | Json.String "report" -> (
    match Json.member "report" j with
    | Json.Null -> fail "report envelope without a \"report\" field"
    | report -> Report { id = int_field "id" j; report })
  | Json.String other -> fail "unknown message type %S" other
  | _ -> fail "envelope without a \"type\" field"

(* ------------------------------------------------------------------ *)
(* The binary codec.

   A compact alternative to the JSON payloads, negotiated as the
   "binary" capability: strings are length-prefixed, ints are
   LEB128 varints (zigzag where a value can be negative), every
   composite opens with a one-byte tag. Decoding is hardened for
   hostile peers: every read is bounds-checked against the frame,
   every length/count is capped by the bytes that remain (an item
   costs at least one byte, so a count beyond that is garbage), and
   pathological nesting surfaces as {!Protocol_error}, never as an
   escaped [Stack_overflow]. *)

type codec = Json | Binary

let cap_binary = "binary"
let codec_name = function Json -> "json" | Binary -> "binary"

(* A growable output buffer with byte-addressable backing, so the
   4-byte frame header can be patched in after the payload is encoded —
   [Buffer.t] cannot do that without a copy. *)
type wbuf = { mutable wb : Bytes.t; mutable wlen : int }

let wbuf_make n = { wb = Bytes.create n; wlen = 0 }
let wbuf_reset w = w.wlen <- 0

let wbuf_ensure w n =
  let need = w.wlen + n in
  if need > Bytes.length w.wb then begin
    let cap = ref (max 256 (2 * Bytes.length w.wb)) in
    while !cap < need do
      cap := !cap * 2
    done;
    let b = Bytes.create !cap in
    Bytes.blit w.wb 0 b 0 w.wlen;
    w.wb <- b
  end

let put_byte w c =
  wbuf_ensure w 1;
  Bytes.unsafe_set w.wb w.wlen (Char.unsafe_chr (c land 0xff));
  w.wlen <- w.wlen + 1

let put_raw w s =
  let n = String.length s in
  wbuf_ensure w n;
  Bytes.blit_string s 0 w.wb w.wlen n;
  w.wlen <- w.wlen + n

(* Unsigned LEB128 over the full word: [lsr] is a logical shift, so
   even a negative word (zigzag output of a huge negative int)
   terminates after at most ten groups. *)
let rec put_uv w n =
  if n >= 0 && n < 0x80 then put_byte w n
  else begin
    put_byte w (0x80 lor (n land 0x7f));
    put_uv w (n lsr 7)
  end

let put_int w n = put_uv w ((n lsl 1) lxor (n asr 62))

let put_str w s =
  put_uv w (String.length s);
  put_raw w s

let put_bool w b = put_byte w (if b then 1 else 0)

let put_u64 w x =
  for i = 0 to 7 do
    put_byte w (Int64.to_int (Int64.shift_right_logical x (8 * i)) land 0xff)
  done

(* ----- reader ----- *)

type rdr = { src : string; mutable pos : int; limit : int }

let rd_byte r =
  if r.pos >= r.limit then fail "binary frame truncated";
  let c = Char.code (String.unsafe_get r.src r.pos) in
  r.pos <- r.pos + 1;
  c

let rd_uv r =
  let rec go shift acc =
    if shift > 63 then fail "binary varint longer than a word";
    let b = rd_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let rd_int r =
  let u = rd_uv r in
  (u lsr 1) lxor (-(u land 1))

(* A length or item count: every string byte / list item costs at least
   one input byte, so anything beyond the bytes that remain is garbage —
   reject it before allocating. *)
let rd_len r =
  let n = rd_uv r in
  if n < 0 || n > r.limit - r.pos then
    fail "binary length %d exceeds the %d bytes remaining" n (r.limit - r.pos);
  n

let rd_str r =
  let n = rd_len r in
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let rd_bool r =
  match rd_byte r with
  | 0 -> false
  | 1 -> true
  | b -> fail "binary bool byte %d" b

let rd_u64 r =
  let x = ref 0L in
  for i = 0 to 7 do
    x := Int64.logor !x (Int64.shift_left (Int64.of_int (rd_byte r)) (8 * i))
  done;
  !x

(* In-order list decoding: [n] has already passed {!rd_len}. *)
let rd_list r n f =
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (f r :: acc) in
  go 0 []

(* ----- trees ----- *)

let rec tree_to_bin w = function
  | Tree.Text s ->
    put_byte w 0;
    put_str w s
  | Tree.Element { Tree.name; attrs; children } ->
    put_byte w 1;
    put_str w name;
    put_uv w (List.length attrs);
    List.iter
      (fun (k, v) ->
        put_str w k;
        put_str w v)
      attrs;
    put_uv w (List.length children);
    List.iter (tree_to_bin w) children

let forest_to_bin w f =
  put_uv w (List.length f);
  List.iter (tree_to_bin w) f

let rec tree_of_bin r =
  match rd_byte r with
  | 0 -> Tree.Text (rd_str r)
  | 1 ->
    let name = rd_str r in
    let attrs =
      rd_list r (rd_len r) (fun r ->
          let k = rd_str r in
          let v = rd_str r in
          (k, v))
    in
    let children = rd_list r (rd_len r) tree_of_bin in
    Tree.Element { Tree.name; attrs; children }
  | t -> fail "unknown binary tree tag %d" t

let forest_of_bin r = rd_list r (rd_len r) tree_of_bin

(* ----- patterns ----- *)

let label_to_bin w = function
  | P.Const s ->
    put_byte w 0;
    put_str w s
  | P.Value s ->
    put_byte w 1;
    put_str w s
  | P.Var s ->
    put_byte w 2;
    put_str w s
  | P.Wildcard -> put_byte w 3
  | P.Or -> put_byte w 4
  | P.Fun P.Any_fun -> put_byte w 5
  | P.Fun (P.Named names) ->
    put_byte w 6;
    put_uv w (List.length names);
    List.iter (put_str w) names

let label_of_bin r =
  match rd_byte r with
  | 0 -> P.Const (rd_str r)
  | 1 -> P.Value (rd_str r)
  | 2 -> P.Var (rd_str r)
  | 3 -> P.Wildcard
  | 4 -> P.Or
  | 5 -> P.Fun P.Any_fun
  | 6 -> P.Fun (P.Named (rd_list r (rd_len r) rd_str))
  | t -> fail "unknown binary pattern label tag %d" t

let rec pattern_to_bin w (n : P.node) =
  put_byte w (match n.P.axis with P.Child -> 0 | P.Descendant -> 1);
  label_to_bin w n.P.label;
  put_bool w n.P.result;
  put_uv w (List.length n.P.children);
  List.iter (pattern_to_bin w) n.P.children

let rec pattern_of_bin r =
  let axis =
    match rd_byte r with
    | 0 -> P.Child
    | 1 -> P.Descendant
    | t -> fail "unknown binary pattern axis tag %d" t
  in
  let label = label_of_bin r in
  let result = rd_bool r in
  let children = rd_list r (rd_len r) pattern_of_bin in
  P.make ~axis ~result label children

(* ----- JSON values (the Report envelope carries one verbatim) ----- *)

let rec json_to_bin w = function
  | Json.Null -> put_byte w 0
  | Json.Bool b ->
    put_byte w 1;
    put_bool w b
  | Json.Int i ->
    put_byte w 2;
    put_int w i
  | Json.Float f ->
    put_byte w 3;
    put_u64 w (Int64.bits_of_float f)
  | Json.String s ->
    put_byte w 4;
    put_str w s
  | Json.List xs ->
    put_byte w 5;
    put_uv w (List.length xs);
    List.iter (json_to_bin w) xs
  | Json.Obj kvs ->
    put_byte w 6;
    put_uv w (List.length kvs);
    List.iter
      (fun (k, v) ->
        put_str w k;
        json_to_bin w v)
      kvs

let rec json_of_bin r =
  match rd_byte r with
  | 0 -> Json.Null
  | 1 -> Json.Bool (rd_bool r)
  | 2 -> Json.Int (rd_int r)
  | 3 -> Json.Float (Int64.float_of_bits (rd_u64 r))
  | 4 -> Json.String (rd_str r)
  | 5 -> Json.List (rd_list r (rd_len r) json_of_bin)
  | 6 ->
    Json.Obj
      (rd_list r (rd_len r) (fun r ->
           let k = rd_str r in
           (k, json_of_bin r)))
  | t -> fail "unknown binary JSON tag %d" t

(* ----- envelopes ----- *)

let message_to_bin w = function
  | Hello { version; caps } ->
    put_byte w 0;
    put_uv w version;
    put_uv w (List.length caps);
    List.iter (put_str w) caps
  | Welcome { version; services; caps } ->
    put_byte w 1;
    put_uv w version;
    put_uv w (List.length services);
    List.iter
      (fun s ->
        put_str w s.name;
        put_bool w s.push)
      services;
    put_uv w (List.length caps);
    List.iter (put_str w) caps
  | Invoke { id; service; params; push } -> (
    put_byte w 2;
    put_uv w id;
    put_str w service;
    forest_to_bin w params;
    match push with
    | None -> put_byte w 0
    | Some p ->
      put_byte w 1;
      pattern_to_bin w p)
  | Result { id; pushed; forest } ->
    put_byte w 3;
    put_uv w id;
    put_bool w pushed;
    forest_to_bin w forest
  | Error { id; transient; message } ->
    put_byte w 4;
    put_uv w id;
    put_bool w transient;
    put_str w message
  | Degraded { id; message; retries; timeouts } ->
    put_byte w 5;
    put_uv w id;
    put_str w message;
    put_uv w retries;
    put_uv w timeouts
  | Eval { id; strategy; query; doc; projected } ->
    put_byte w 6;
    put_uv w id;
    put_str w strategy;
    pattern_to_bin w query;
    tree_to_bin w doc;
    put_bool w projected
  | Report { id; report } ->
    put_byte w 7;
    put_uv w id;
    json_to_bin w report

let message_of_bin r =
  match rd_byte r with
  | 0 ->
    let version = rd_uv r in
    let caps = rd_list r (rd_len r) rd_str in
    Hello { version; caps }
  | 1 ->
    let version = rd_uv r in
    let services =
      rd_list r (rd_len r) (fun r ->
          let name = rd_str r in
          let push = rd_bool r in
          { name; push })
    in
    let caps = rd_list r (rd_len r) rd_str in
    Welcome { version; services; caps }
  | 2 ->
    let id = rd_uv r in
    let service = rd_str r in
    let params = forest_of_bin r in
    let push =
      match rd_byte r with
      | 0 -> None
      | 1 -> Some (pattern_of_bin r)
      | t -> fail "unknown binary option tag %d" t
    in
    Invoke { id; service; params; push }
  | 3 ->
    let id = rd_uv r in
    let pushed = rd_bool r in
    let forest = forest_of_bin r in
    Result { id; pushed; forest }
  | 4 ->
    let id = rd_uv r in
    let transient = rd_bool r in
    let message = rd_str r in
    Error { id; transient; message }
  | 5 ->
    let id = rd_uv r in
    let message = rd_str r in
    let retries = rd_uv r in
    let timeouts = rd_uv r in
    Degraded { id; message; retries; timeouts }
  | 6 ->
    let id = rd_uv r in
    let strategy = rd_str r in
    let query = pattern_of_bin r in
    let doc = tree_of_bin r in
    let projected = rd_bool r in
    Eval { id; strategy; query; doc; projected }
  | 7 ->
    let id = rd_uv r in
    let report = json_of_bin r in
    Report { id; report }
  | t -> fail "unknown binary message tag %d" t

(* Standalone per-type binary codecs (tests, tools). *)

let to_bin_str enc x =
  let w = wbuf_make 256 in
  enc w x;
  Bytes.sub_string w.wb 0 w.wlen

let of_bin_str name dec s =
  let r = { src = s; pos = 0; limit = String.length s } in
  match dec r with
  | v ->
    if r.pos <> r.limit then
      fail "binary %s has %d trailing bytes" name (r.limit - r.pos);
    v
  | exception Stack_overflow -> fail "binary %s nests too deeply" name

let tree_to_binary t = to_bin_str tree_to_bin t
let tree_of_binary s = of_bin_str "tree" tree_of_bin s
let forest_to_binary f = to_bin_str forest_to_bin f
let forest_of_binary s = of_bin_str "forest" forest_of_bin s
let pattern_to_binary p = to_bin_str pattern_to_bin p
let pattern_of_binary s = of_bin_str "pattern" pattern_of_bin s

(* ------------------------------------------------------------------ *)
(* Frames *)

let rec really_write fd buf off len =
  if len > 0 then
    match Unix.write fd buf off len with
    | n -> really_write fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_write fd buf off len

let rec really_read fd buf off len =
  if len > 0 then
    match Unix.read fd buf off len with
    | 0 -> raise Closed
    | n -> really_read fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_read fd buf off len

(* ------------------------------------------------------------------ *)
(* Codec-aware frames.

   Wire format: a 4-byte big-endian payload length, then the payload.
   [max_frame] fits in 26 bits, so the top bit of the first header byte
   is free; the binary codec sets it (frames are self-describing and
   [recv] needs no out-of-band state), JSON frames — including every
   frame a pre-binary peer can produce — leave it clear. *)

let binary_flag = 0x80

type scratch = {
  out : wbuf;  (* whole outgoing frame, header included *)
  mutable inb : Bytes.t;  (* reusable incoming payload buffer *)
  jb : Buffer.t;  (* JSON text staging for the encoder *)
}

let scratch () = { out = wbuf_make 4096; inb = Bytes.create 4096; jb = Buffer.create 4096 }

let frame_header b0 b1 b2 b3 =
  let codec = if b0 land binary_flag <> 0 then Binary else Json in
  let len = ((b0 land 0x7f) lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3 in
  if len <= 0 || len > max_frame then
    fail "frame length %d is outside (0, %d]" len max_frame;
  (codec, len)

let decode_frame_header s =
  if String.length s < 4 then fail "frame header truncated";
  let byte i = Char.code (String.unsafe_get s i) in
  frame_header (byte 0) (byte 1) (byte 2) (byte 3)

(* Encodes [msg] into [scr.out] as one complete frame (header
   included): the payload is written from offset 4, then the header is
   patched in — no copy, and the scratch's backing buffer amortises to
   the largest frame the connection ever sends. *)
let encode_into scr codec msg =
  let w = scr.out in
  wbuf_reset w;
  wbuf_ensure w 4;
  w.wlen <- 4;
  (match codec with
  | Binary -> message_to_bin w msg
  | Json ->
    Buffer.clear scr.jb;
    Json.to_buffer scr.jb (message_to_json msg);
    let n = Buffer.length scr.jb in
    wbuf_ensure w n;
    Buffer.blit scr.jb 0 w.wb w.wlen n;
    w.wlen <- w.wlen + n);
  let len = w.wlen - 4 in
  if len > max_frame then fail "frame of %d bytes exceeds the %d-byte limit" len max_frame;
  let flag = match codec with Binary -> binary_flag | Json -> 0 in
  Bytes.set w.wb 0 (Char.chr (((len lsr 24) land 0x7f) lor flag));
  Bytes.set w.wb 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set w.wb 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set w.wb 3 (Char.chr (len land 0xff))

let encode_frame ?(codec = Json) msg =
  let scr = scratch () in
  encode_into scr codec msg;
  Bytes.sub_string scr.out.wb 0 scr.out.wlen

let encode_frame_into ?(codec = Json) scr msg =
  encode_into scr codec msg;
  (scr.out.wb, scr.out.wlen)

let decode_payload ?(pos = 0) ?len codec s =
  let len = match len with Some n -> n | None -> String.length s - pos in
  if pos < 0 || len < 0 || pos + len > String.length s then
    fail "frame payload slice out of bounds";
  match codec with
  | Json -> (
    let text = if pos = 0 && len = String.length s then s else String.sub s pos len in
    match Json.parse text with
    | Ok v -> message_of_json v
    | Error m -> fail "frame payload is not JSON (%s)" m
    | exception Stack_overflow -> fail "frame payload nests too deeply")
  | Binary -> (
    let r = { src = s; pos; limit = pos + len } in
    match message_of_bin r with
    | msg ->
      if r.pos <> r.limit then
        fail "binary frame has %d trailing bytes" (r.limit - r.pos);
      msg
    | exception Stack_overflow -> fail "binary frame nests too deeply")

let send ?(codec = Json) ?scratch:scr fd msg =
  let scr = match scr with Some s -> s | None -> scratch () in
  encode_into scr codec msg;
  really_write fd scr.out.wb 0 scr.out.wlen;
  scr.out.wlen

let recv ?scratch:scr fd =
  let scr = match scr with Some s -> s | None -> scratch () in
  let header = Bytes.create 4 in
  really_read fd header 0 4;
  let byte i = Char.code (Bytes.get header i) in
  let codec, len = frame_header (byte 0) (byte 1) (byte 2) (byte 3) in
  if Bytes.length scr.inb < len then scr.inb <- Bytes.create len;
  really_read fd scr.inb 0 len;
  let msg =
    match codec with
    | Json -> decode_payload Json (Bytes.sub_string scr.inb 0 len)
    | Binary ->
      (* decode copies every string it keeps, so reading straight off
         the reusable buffer is safe *)
      decode_payload Binary ~len (Bytes.unsafe_to_string scr.inb)
  in
  (msg, 4 + len)
