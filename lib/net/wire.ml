module Tree = Axml_xml.Tree
module P = Axml_query.Pattern
module Json = Axml_obs.Json

let version = 1
let max_frame = 64 * 1024 * 1024
let max_depth = 10_000
let max_labels = 256
let max_label_bytes = 64

exception Protocol_error of string
exception Closed

let fail fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Binary primitives.

   Strings are length-prefixed, ints are LEB128 varints (zigzag where a
   value can be negative), every composite opens with a one-byte tag.
   Decoding is hardened for hostile peers: every read is bounds-checked
   against the frame, every length/count is capped by the bytes that
   remain (an item costs at least one byte, so a count beyond that is
   garbage), and nesting is capped at [max_depth] (see [fix]). *)

type codec = Json | Binary

let cap_binary = "binary"
let codec_name = function Json -> "json" | Binary -> "binary"

(* One direction's label table (see [name]): the strings it holds, in
   the order they were first sent, and — on the encoding end — the index
   of each. It holds at most [max_labels] strings of at most
   [max_label_bytes] bytes and never evicts. *)
type labels = {
  slots : string array;
  mutable count : int;
  index : (string, int) Hashtbl.t;  (* string -> slot; empty when decoding *)
}

let labels_table () = { slots = Array.make max_labels ""; count = 0; index = Hashtbl.create 64 }

(* Appends [s] while the table has room and [s] is short enough: the
   rule both ends apply to every literal, so their tables stay equal.
   Says whether it did. *)
let remember t s =
  let fits = t.count < max_labels && String.length s <= max_label_bytes in
  if fits then begin
    t.slots.(t.count) <- s;
    t.count <- t.count + 1
  end;
  fits

(* Forgets every entry from slot [n] on: an encoding that failed never
   reached the peer, so neither may its literals. *)
let truncate t n =
  for i = n to t.count - 1 do
    Hashtbl.remove t.index t.slots.(i);
    t.slots.(i) <- ""
  done;
  t.count <- n

(* A growable output buffer with byte-addressable backing, so the
   4-byte frame header can be patched in after the payload is encoded —
   [Buffer.t] cannot do that without a copy. [wlabels] is the
   connection's encoding label table, if it negotiated one. *)
type wbuf = { mutable wb : Bytes.t; mutable wlen : int; wlabels : labels option }

let wbuf_make ?labels n = { wb = Bytes.create n; wlen = 0; wlabels = labels }
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

(* ----- reader ----- *)

(* [depth] counts the [fix] levels being decoded (see [fix]);
   [rlabels] is the connection's decoding label table, if any. *)
type rdr = {
  src : string;
  mutable pos : int;
  limit : int;
  mutable depth : int;
  rlabels : labels option;
}

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

(* A length or item count: every string byte / list item costs at least
   one input byte, so anything beyond the bytes that remain is garbage —
   reject it before allocating. *)
let check_len r n =
  if n < 0 || n > r.limit - r.pos then
    fail "binary length %d exceeds the %d bytes remaining" n (r.limit - r.pos);
  n

let rd_len r = check_len r (rd_uv r)

(* The next [n] bytes as a string; [n] has passed [check_len]. *)
let rd_bytes r n =
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* In-order list decoding: [n] has already passed {!rd_len}. *)
let rd_list r n f =
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (f r :: acc) in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Codec descriptions.

   An ['a t] carries all four directions of one type: JSON out and in,
   binary out and in. Each wire type is described once below and both
   codecs derive from that description. The binary directions write
   straight into a [wbuf] and read straight off a [rdr], never through a
   [Json.t]; every description is built once, at module initialisation.
   JSON decoding is as strict as binary: a member present with the wrong
   type is a {!Protocol_error}. Its [int] argument is the number of
   [fix] levels around the value, which binary decoding keeps in the
   reader. *)

type 'a t = {
  to_json : 'a -> Json.t;
  of_json : int -> Json.t -> 'a;
  put : wbuf -> 'a -> unit;
  get : rdr -> 'a;
}

let expected what = fail "expected %s" what

let unit =
  {
    to_json = (fun () -> Json.Null);
    of_json = (fun _ -> function Json.Null -> () | _ -> expected "null");
    put = (fun _ () -> ());
    get = (fun _ -> ());
  }

let string =
  {
    to_json = (fun s -> Json.String s);
    of_json = (fun _ -> function Json.String s -> s | _ -> expected "a string");
    put =
      (fun w s ->
        put_uv w (String.length s);
        put_raw w s);
    get = (fun r -> rd_bytes r (rd_len r));
  }

(* A string from a small vocabulary — element and attribute names,
   attribute values, the invoked service — sent through the
   connection's label table when it has one: a varint 2·len and the
   bytes for a literal, a varint 2·i+1 for the table's entry i. Both
   ends [remember] every literal, so an encoder sends a
   string in full once per connection and the decoder hands back the
   one string it kept. Without a table it is [string], byte for byte. *)
let name =
  {
    string with
    put =
      (fun w s ->
        match w.wlabels with
        | None -> string.put w s
        | Some t -> (
          let n = String.length s in
          match if n <= max_label_bytes then Hashtbl.find_opt t.index s else None with
          | Some i -> put_uv w ((2 * i) + 1)
          | None ->
            put_uv w (2 * n);
            put_raw w s;
            if remember t s then Hashtbl.replace t.index s (t.count - 1)));
    get =
      (fun r ->
        match r.rlabels with
        | None -> string.get r
        | Some t ->
          (* [lsr]: a varint with the top bit set reads as a huge index
             or length, which the checks below refuse *)
          let v = rd_uv r in
          let k = v lsr 1 in
          if v land 1 = 1 then begin
            if k >= t.count then
              fail "label reference %d past the table's %d entries" k t.count;
            t.slots.(k)
          end
          else begin
            let s = rd_bytes r (check_len r k) in
            ignore (remember t s);
            s
          end);
  }

(* An unsigned LEB128 varint in binary, a JSON integer. *)
let uint =
  {
    to_json = (fun n -> Json.Int n);
    of_json = (fun _ -> function Json.Int n -> n | _ -> expected "an integer");
    put = put_uv;
    get = rd_uv;
  }

let bool =
  {
    to_json = (fun b -> Json.Bool b);
    of_json = (fun _ -> function Json.Bool b -> b | _ -> expected "a boolean");
    put = (fun w b -> put_byte w (if b then 1 else 0));
    get =
      (fun r ->
        match rd_byte r with 0 -> false | 1 -> true | b -> fail "binary bool byte %d" b);
  }

let list c =
  {
    to_json = (fun xs -> Json.List (List.map c.to_json xs));
    of_json =
      (fun d -> function Json.List xs -> List.map (c.of_json d) xs | _ -> expected "a list");
    put =
      (fun w xs ->
        put_uv w (List.length xs);
        List.iter (c.put w) xs);
    get = (fun r -> rd_list r (rd_len r) c.get);
  }

let conv proj inj c =
  {
    to_json = (fun x -> c.to_json (proj x));
    of_json = (fun d j -> inj (c.of_json d j));
    put = (fun w x -> c.put w (proj x));
    get = (fun r -> inj (c.get r));
  }

(* Two values in a row in binary; [to_json] and [of_json] say how they
   pair up in JSON. *)
let seq a b to_json of_json =
  {
    to_json;
    of_json;
    put =
      (fun w (x, y) ->
        a.put w x;
        b.put w y);
    get =
      (fun r ->
        let x = a.get r in
        (x, b.get r));
  }

(* A positional pair: a two-element JSON list. *)
let pair a b =
  seq a b
    (fun (x, y) -> Json.List [ a.to_json x; b.to_json y ])
    (fun d -> function
      | Json.List [ x; y ] -> (a.of_json d x, b.of_json d y)
      | _ -> expected "a two-element list")

(* A named record field: one member of a JSON object, the bare value in
   binary. With a [default], an absent member decodes to it, and [omit]
   leaves the member out of the JSON when the value equals it. *)
let field ?default ?(omit = false) name c =
  {
    to_json =
      (fun x ->
        match default with
        | Some d when omit && x = d -> Json.Obj []
        | _ -> Json.Obj [ (name, c.to_json x) ]);
    of_json =
      (fun depth j ->
        match (Json.member name j, default) with
        | Json.Null, Some d -> d
        | Json.Null, None -> fail "missing field %S" name
        | v, _ -> c.of_json depth v);
    put = c.put;
    get = c.get;
  }

let members = function Json.Obj kvs -> kvs | _ -> expected "an object"

(* Fields side by side: the members of one JSON object. Right-
   associative, so [a & b & c] describes [(x, (y, z))]. *)
let ( & ) a b =
  seq a b
    (fun (x, y) -> Json.Obj (members (a.to_json x) @ members (b.to_json y)))
    (fun d j -> (a.of_json d j, b.of_json d j))

(* How one case of a union shows in JSON: [wrap] dresses the payload's
   JSON, [unwrap] recognises the case and strips the dressing. *)
type form = { wrap : Json.t -> Json.t; unwrap : Json.t -> Json.t option }

(* The payload's JSON as is, recognised by its shape. *)
let bare is = { wrap = Fun.id; unwrap = (fun j -> if is j then Some j else None) }

(* A fixed string, for payload-less cases. *)
let named s =
  {
    wrap = (fun _ -> Json.String s);
    unwrap = (function Json.String s' when s' = s -> Some Json.Null | _ -> None);
  }

(* A one-member object [{key: payload}]. *)
let keyed ?(is = fun _ -> true) key =
  {
    wrap = (fun p -> Json.Obj [ (key, p) ]);
    unwrap = (function Json.Obj [ (k, p) ] when k = key && is p -> Some p | _ -> None);
  }

(* The payload's object with a leading ["type"] member. *)
let typed name =
  {
    wrap = (fun p -> Json.Obj (("type", Json.String name) :: members p));
    unwrap = (fun j -> if Json.member "type" j = Json.String name then Some j else None);
  }

type 'a case =
  | Case : { tag : int; form : form; c : 'b t; proj : 'a -> 'b option; inj : 'b -> 'a } -> 'a case

let case tag form c proj inj = Case { tag; form; c; proj; inj }

(* A payload-less case standing for the one value [v]. *)
let const tag form v = case tag form unit (fun x -> if x = v then Some () else None) (fun () -> v)

(* A tagged union: a one-byte tag and the case's payload in binary; in
   JSON, the first case whose form recognises the value decodes it. *)
let union what cases =
  let by_tag = Array.make 256 None in
  List.iter (fun (Case k as case) -> by_tag.(k.tag) <- Some case) cases;
  let rec to_json x = function
    | [] -> invalid_arg ("Wire: no case describes this " ^ what)
    | Case k :: rest -> (
      match k.proj x with Some y -> k.form.wrap (k.c.to_json y) | None -> to_json x rest)
  in
  let rec of_json d j = function
    | [] -> fail "%s does not decode" what
    | Case k :: rest -> (
      match k.form.unwrap j with Some p -> k.inj (k.c.of_json d p) | None -> of_json d j rest)
  in
  let rec put w x = function
    | [] -> invalid_arg ("Wire: no case describes this " ^ what)
    | Case k :: rest -> (
      match k.proj x with
      | Some y ->
        put_byte w k.tag;
        k.c.put w y
      | None -> put w x rest)
  in
  {
    to_json = (fun x -> to_json x cases);
    of_json = (fun d j -> of_json d j cases);
    put = (fun w x -> put w x cases);
    get =
      (fun r ->
        let t = rd_byte r in
        match by_tag.(t) with
        | Some (Case k) -> k.inj (k.c.get r)
        | None -> fail "unknown binary %s tag %d" what t);
  }

(* A recursive description: [f] receives the description it defines.
   Every value of it, the outermost included, is one nesting level, and
   decoding refuses a level past [max_depth] in both codecs, so hostile
   nesting costs a bounded stack. *)
let too_deep () = fail "value nests deeper than %d levels" max_depth

let fix f =
  let rec self = lazy (f wrapped)
  and wrapped =
    {
      to_json = (fun x -> (Lazy.force self).to_json x);
      of_json =
        (fun d j -> if d >= max_depth then too_deep () else (Lazy.force self).of_json (d + 1) j);
      put = (fun w x -> (Lazy.force self).put w x);
      get =
        (fun r ->
          if r.depth >= max_depth then too_deep ();
          r.depth <- r.depth + 1;
          let v = (Lazy.force self).get r in
          r.depth <- r.depth - 1;
          v);
    }
  in
  wrapped

(* ------------------------------------------------------------------ *)
(* The wire types *)

let is_string = function Json.String _ -> true | _ -> false
let is_obj = function Json.Obj _ -> true | _ -> false

(* Text is a JSON string, an element a {"n","a","c"} object whose empty
   attribute and child lists are left out. *)
let tree =
  fix (fun tree ->
      union "tree node"
        [
          case 0 (bare is_string) string
            (function Tree.Text s -> Some s | _ -> None)
            (fun s -> Tree.Text s);
          case 1 (bare is_obj)
            (field "n" name
            & field ~default:[] ~omit:true "a" (list (pair name name))
            & field ~default:[] ~omit:true "c" (list tree))
            (function
              | Tree.Element { Tree.name; attrs; children } -> Some (name, (attrs, children))
              | _ -> None)
            (fun (name, (attrs, children)) -> Tree.Element { Tree.name; attrs; children });
        ])

let forest = list tree

let axis =
  union "pattern axis" [ const 0 (named "child") P.Child; const 1 (named "desc") P.Descendant ]

let label =
  union "pattern label"
    [
      case 0 (keyed "const") string (function P.Const s -> Some s | _ -> None) (fun s -> P.Const s);
      case 1 (keyed "value") string (function P.Value s -> Some s | _ -> None) (fun s -> P.Value s);
      case 2 (keyed "var") string (function P.Var s -> Some s | _ -> None) (fun s -> P.Var s);
      const 3 (named "*") P.Wildcard;
      const 4 (named "or") P.Or;
      const 5 (keyed ~is:(( = ) Json.Null) "fun") (P.Fun P.Any_fun);
      case 6 (keyed "fun") (list string)
        (function P.Fun (P.Named names) -> Some names | _ -> None)
        (fun names -> P.Fun (P.Named names));
    ]

let pattern =
  fix (fun pattern ->
      conv
        (fun (n : P.node) -> (n.P.axis, (n.P.label, (n.P.result, n.P.children))))
        (fun (axis, (label, (result, children))) -> P.make ~axis ~result label children)
        (field "axis" axis & field "label" label
        & field ~default:false "result" bool
        & field ~default:[] "children" (list pattern)))

(* ------------------------------------------------------------------ *)
(* Envelopes *)

type service_info = { name : string; push : bool }

(* Capabilities ride the handshake as a list of opaque strings; peers
   that predate them decode no "caps" field as the empty list and ignore
   the extra JSON member when encoding — negotiation degrades to "none".

   A shard-aware peer: its Welcome service list is complete enough to be
   used for replica discovery and shard assignment. Purely an
   advertisement — no wire-format change rides on it. *)
let cap_shard = "shard"

(* A peer that keeps the last pattern an Invoke carried in full on each
   connection, so a later Invoke can name it with a one-byte marker. *)
let cap_push_reuse = "push-reuse"

(* A peer that keeps a label table per direction on each binary
   connection (see [name]). *)
let cap_labels = "labels"

type message =
  | Hello of { version : int; caps : string list }
  | Welcome of { version : int; services : service_info list; caps : string list }
  | Invoke of {
      id : int;
      service : string;
      params : Tree.forest;
      push : P.node option;
    }
  | Invoke_same_push of { id : int; service : string; params : Tree.forest }
  | Result of { id : int; pushed : bool; forest : Tree.forest }
  | Error of { id : int; transient : bool; message : string }
  | Degraded of { id : int; message : string; retries : int; timeouts : int }

let service_info =
  conv
    (fun s -> (s.name, s.push))
    (fun (name, push) -> { name; push })
    (field "name" string & field "push" bool)

(* Absent on pre-capability peers: decode to []. *)
let caps = field ~default:[] "caps" (list string)
let id = field "id" uint

(* An Invoke's "push" member: absent for no pattern (a 0 byte in
   binary), the pattern in full (a 1 byte and the pattern), or the
   marker (a 2 byte; the string "same" in JSON). The first two are the
   encodings that predate the marker. *)
type push_field = No_push | Full of P.node | Same

let push_field =
  union "pushed pattern"
    [
      const 0 (bare (( = ) Json.Null)) No_push;
      case 1 (bare is_obj) pattern (function Full p -> Some p | _ -> None) (fun p -> Full p);
      const 2 (named "same") Same;
    ]

let message =
  union "message"
    [
      case 0 (typed "hello") (field "version" uint & caps)
        (function Hello { version; caps } -> Some (version, caps) | _ -> None)
        (fun (version, caps) -> Hello { version; caps });
      case 1 (typed "welcome")
        (field "version" uint & field "services" (list service_info) & caps)
        (function
          | Welcome { version; services; caps } -> Some (version, (services, caps)) | _ -> None)
        (fun (version, (services, caps)) -> Welcome { version; services; caps });
      case 2 (typed "invoke")
        (id & field "service" name & field "params" forest
        & field ~default:No_push ~omit:true "push" push_field)
        (function
          | Invoke { id; service; params; push = None } -> Some (id, (service, (params, No_push)))
          | Invoke { id; service; params; push = Some p } -> Some (id, (service, (params, Full p)))
          | Invoke_same_push { id; service; params } -> Some (id, (service, (params, Same)))
          | _ -> None)
        (fun (id, (service, (params, push))) ->
          match push with
          | No_push -> Invoke { id; service; params; push = None }
          | Full p -> Invoke { id; service; params; push = Some p }
          | Same -> Invoke_same_push { id; service; params });
      case 3 (typed "result")
        (id & field "pushed" bool & field "forest" forest)
        (function Result { id; pushed; forest } -> Some (id, (pushed, forest)) | _ -> None)
        (fun (id, (pushed, forest)) -> Result { id; pushed; forest });
      case 4 (typed "error")
        (id & field "transient" bool & field "message" string)
        (function
          | Error { id; transient; message } -> Some (id, (transient, message)) | _ -> None)
        (fun (id, (transient, message)) -> Error { id; transient; message });
      case 5 (typed "degraded")
        (id & field "message" string & field "retries" uint & field "timeouts" uint)
        (function
          | Degraded { id; message; retries; timeouts } ->
            Some (id, (message, (retries, timeouts)))
          | _ -> None)
        (fun (id, (message, (retries, timeouts))) -> Degraded { id; message; retries; timeouts });
    ]

let to_json c = c.to_json
let of_json c = c.of_json 0
let message_to_json = message.to_json
let message_of_json = message.of_json 0

let to_binary c x =
  let w = wbuf_make 256 in
  c.put w x;
  Bytes.sub_string w.wb 0 w.wlen

(* Decodes exactly [s.[pos .. limit-1]]: trailing bytes are a protocol
   error. *)
let of_binary_slice ?labels c s pos limit =
  let r = { src = s; pos; limit; depth = 0; rlabels = labels } in
  let v = c.get r in
  if r.pos <> r.limit then fail "binary value has %d trailing bytes" (r.limit - r.pos);
  v

let of_binary c s = of_binary_slice c s 0 (String.length s)

(* ------------------------------------------------------------------ *)
(* Frames.

   Wire format: a 4-byte big-endian payload length, then the payload.
   [max_frame] fits in 26 bits, so the top bit of the first header byte
   is free; the binary codec sets it (frames are self-describing and
   [recv] needs no out-of-band state), JSON frames — including every
   frame a pre-binary peer can produce — leave it clear. *)

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

let binary_flag = 0x80

type scratch = {
  out : wbuf;  (* whole outgoing frame, header included; its label table *)
  mutable inb : Bytes.t;  (* reusable incoming payload buffer *)
  jb : Buffer.t;  (* JSON text staging for the encoder *)
  inlabels : labels option;  (* the incoming direction's label table *)
}

let scratch ?(labels = false) () =
  {
    out = wbuf_make ?labels:(if labels then Some (labels_table ()) else None) 4096;
    inb = Bytes.create 4096;
    jb = Buffer.create 4096;
    inlabels = (if labels then Some (labels_table ()) else None);
  }

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
let encode_payload scr codec msg =
  let w = scr.out in
  wbuf_reset w;
  wbuf_ensure w 4;
  w.wlen <- 4;
  (match codec with
  | Binary -> message.put w msg
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

(* [encode_payload], except that a binary frame that fails to encode
   takes the labels it added back out of the table: it never reaches the
   peer, so the frame sent in its place must find the table as the peer
   has it. *)
let encode_into scr codec msg =
  match scr.out.wlabels with
  | Some t when codec = Binary -> (
    let mark = t.count in
    try encode_payload scr codec msg
    with e ->
      truncate t mark;
      raise e)
  | _ -> encode_payload scr codec msg

let encode_frame ?(codec = Json) msg =
  let scr = scratch () in
  encode_into scr codec msg;
  Bytes.sub_string scr.out.wb 0 scr.out.wlen

let encode_frame_into ?(codec = Json) scr msg =
  encode_into scr codec msg;
  (scr.out.wb, scr.out.wlen)

let decode_payload ?scratch ?(pos = 0) ?len codec s =
  let len = match len with Some n -> n | None -> String.length s - pos in
  if pos < 0 || len < 0 || pos + len > String.length s then
    fail "frame payload slice out of bounds";
  match codec with
  | Json -> (
    let text = if pos = 0 && len = String.length s then s else String.sub s pos len in
    (* a wire level costs at most two JSON levels (an object and its
       child list), and the envelope around it a few more: JSON nested
       deeper than this cannot decode, so the parser refuses it early *)
    match Json.parse ~max_depth:(2 * (max_depth + 2)) text with
    | Ok v -> message_of_json v
    | Error m -> fail "frame payload is not JSON (%s)" m)
  | Binary ->
    let labels = match scratch with Some scr -> scr.inlabels | None -> None in
    of_binary_slice ?labels message s pos (pos + len)

let send ?(codec = Json) ?scratch:scr fd msg =
  let scr = match scr with Some s -> s | None -> scratch () in
  encode_into scr codec msg;
  really_write fd scr.out.wb 0 scr.out.wlen;
  scr.out.wlen

let recv ?scratch:scr fd =
  let scr = match scr with Some s -> s | None -> scratch () in
  (* the header is read into the payload buffer too (never shorter than
     4 bytes): it is decoded before the payload overwrites it *)
  really_read fd scr.inb 0 4;
  let byte i = Char.code (Bytes.get scr.inb i) in
  let codec, len = frame_header (byte 0) (byte 1) (byte 2) (byte 3) in
  if Bytes.length scr.inb < len then scr.inb <- Bytes.create len;
  really_read fd scr.inb 0 len;
  (* decoding copies everything it keeps, so reading straight off the
     reusable buffer is safe *)
  (decode_payload ~scratch:scr ~len codec (Bytes.unsafe_to_string scr.inb), 4 + len)
