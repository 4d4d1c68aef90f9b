(* Tests for the Axml_net subsystem: wire codec round-trips and garbage
   rejection, the loopback client/server path (handshake, version
   mismatch, pool reuse), graceful degradation when the peer dies
   mid-run, and the E2E acceptance assertions — identical answers remote
   vs in-process, strictly fewer wire invocations lazy vs naive, and
   strictly fewer response bytes with query pushing than without. *)

module Tree = Axml_xml.Tree
module Doc = Axml_doc
module P = Axml_query.Pattern
module Parser = Axml_query.Parser
module Eval = Axml_query.Eval
module Registry = Axml_services.Registry
module Lazy_eval = Axml_core.Lazy_eval
module Engine = Axml_engine.Engine
module City = Axml_workload.City
module Obs = Axml_obs.Obs
module Metrics = Axml_obs.Metrics
module Json = Axml_obs.Json
module Wire = Axml_net.Wire
module Server = Axml_net.Server
module Client = Axml_net.Client
module Remote = Axml_net.Remote

let t = Tree.text

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let el name children = Tree.Element { Tree.name; attrs = []; children }

(* A retry policy whose backoff is slept for real — keep it tiny. *)
let fast_policy =
  {
    Registry.max_retries = 2;
    base_backoff = 0.005;
    backoff_factor = 2.0;
    max_backoff = 0.02;
    attempt_timeout = 5.0;
  }

let with_server ?obs ?caps registry f =
  let server = Server.create ?obs ?caps ~registry () in
  Server.start server;
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let test_tree_roundtrip () =
  let forest =
    [
      Tree.Element
        {
          Tree.name = "guide";
          attrs = [ ("lang", "fr"); ("v", "1") ];
          children =
            [
              el "hotel" [ t "Le Méridien"; el "empty" [] ];
              t "  ";
              (* whitespace-only text must survive — XML printing would drop it *)
              t "a \"quoted\"\nvalue with \x01 control bytes";
            ];
        };
      t "top-level text";
    ]
  in
  let decoded = Wire.of_json Wire.forest (Wire.to_json Wire.forest forest) in
  Alcotest.(check bool) "forest round-trips exactly" true (decoded = forest);
  (* and through an actual serialized frame *)
  let s = Json.to_string (Wire.to_json Wire.forest forest) in
  match Json.parse s with
  | Error m -> Alcotest.fail m
  | Ok j ->
    Alcotest.(check bool) "via JSON text too" true (Wire.of_json Wire.forest j = forest)

let test_pattern_roundtrip () =
  let q =
    Parser.parse
      {|/guide/hotel[name="Best Western"][rating=$R!]/nearby//restaurant[name=$X!]|}
  in
  let reencoded p = Json.to_string (Wire.to_json Wire.pattern p) in
  let before = reencoded q.P.root in
  let decoded = Wire.of_json Wire.pattern (Wire.to_json Wire.pattern q.P.root) in
  Alcotest.(check string) "pattern round-trips structurally" before (reencoded decoded)

let test_message_roundtrip () =
  let push = (Parser.parse "/r//s[v=$X!]").P.root in
  let msgs =
    [
      Wire.Hello { version = Wire.version; caps = [ "project" ] };
      Wire.Hello { version = Wire.version; caps = [] };
      Wire.Welcome
        {
          version = Wire.version;
          services = [ { Wire.name = "a"; push = true }; { Wire.name = "b"; push = false } ];
          caps = [ "project" ];
        };
      Wire.Invoke { id = 7; service = "getrating"; params = [ t "Hôtel" ]; push = Some push };
      Wire.Invoke { id = 8; service = "getrating"; params = []; push = None };
      Wire.Result { id = 7; pushed = true; forest = [ el "rating" [ t "5" ] ] };
      Wire.Error { id = 9; transient = true; message = "try again" };
      Wire.Degraded { id = 10; message = "backend down"; retries = 3; timeouts = 1 };
    ]
  in
  List.iter
    (fun m ->
      let reencode m = Json.to_string (Wire.message_to_json m) in
      Alcotest.(check string) "message round-trips" (reencode m)
        (reencode (Wire.message_of_json (Wire.message_to_json m))))
    msgs

let test_envelope_rejection () =
  List.iter
    (fun j ->
      match Wire.message_of_json j with
      | _ -> Alcotest.fail "garbage envelope decoded"
      | exception Wire.Protocol_error _ -> ())
    [
      Json.Null;
      Json.Obj [];
      Json.Obj [ ("type", Json.String "frobnicate") ];
      Json.Obj [ ("type", Json.String "invoke") ];
      (* missing fields *)
      Json.Obj [ ("type", Json.Int 3) ];
      Json.String "hello";
      (* present fields of the wrong type are errors, not defaults *)
      Json.Obj
        [ ("type", Json.String "welcome"); ("version", Json.Int 1); ("services", Json.Int 5) ];
      Json.Obj
        [
          ("type", Json.String "eval");
          ("id", Json.Int 1);
          ("strategy", Json.String "lazy");
          ("query", Json.Obj [ ("axis", Json.String "child"); ("label", Json.String "*") ]);
          ("doc", Json.String "");
          ("projected", Json.Int 5);
        ];
      (* the retired remote-evaluation envelopes, well-formed as they
         once were: a peer exchanges service calls only *)
      Json.Obj
        [
          ("type", Json.String "eval");
          ("id", Json.Int 1);
          ("strategy", Json.String "lazy");
          ("query", Json.Obj [ ("axis", Json.String "child"); ("label", Json.String "*") ]);
          ("doc", Json.String "");
        ];
      Json.Obj
        [ ("type", Json.String "report"); ("id", Json.Int 1); ("report", Json.Obj []) ];
    ]

(* Golden frames: the exact bytes (hex, header included) of one frame
   per envelope shape in both codecs. The round-trip and binary ≡ JSON
   properties cannot see a format change made to both codecs at once;
   this table can. Regenerating it is a wire-format change. *)
let golden_pattern =
  P.make (P.Const "r")
    [
      P.make ~axis:P.Descendant (P.Value "v") [];
      P.make ~result:true (P.Var "X") [];
      P.make ~axis:P.Descendant P.Wildcard [];
      P.make P.Or [ P.make (P.Const "a") []; P.make (P.Const "b") [] ];
      P.make (P.Fun P.Any_fun) [];
      P.make ~axis:P.Descendant (P.Fun (P.Named [ "f"; "g" ])) [];
    ]

let golden_tree =
  Tree.Element
    {
      Tree.name = "h";
      attrs = [ ("k", "v"); ("q", "\"") ];
      children = [ t " \n"; el "e" []; t "x" ];
    }

let golden_messages =
  [
    ("hello", Wire.Hello { version = Wire.version; caps = [ "project"; Wire.cap_binary ] });
    ("hello-nocaps", Wire.Hello { version = Wire.version; caps = [] });
    ( "welcome",
      Wire.Welcome
        {
          version = Wire.version;
          services = [ { Wire.name = "a"; push = true }; { Wire.name = "b"; push = false } ];
          caps = [ Wire.cap_shard ];
        } );
    ( "invoke",
      Wire.Invoke
        { id = 300; service = "s"; params = [ golden_tree; t "p" ]; push = Some golden_pattern } );
    ("invoke-nopush", Wire.Invoke { id = 2; service = "s"; params = []; push = None });
    ("result", Wire.Result { id = 3; pushed = true; forest = [ golden_tree ] });
    ("error", Wire.Error { id = 4; transient = false; message = "no" });
    ("degraded", Wire.Degraded { id = 5; message = "down"; retries = 3; timeouts = 1 });
  ]

let golden_frames =
  [
    ( "hello/json",
      "000000387b2274797065223a2268656c6c6f222c2276657273696f6e223a312c2263617073223a5b2270726f6a656374222c2262696e617279225d7d" );
    ( "hello/binary",
      "800000120001020770726f6a6563740662696e617279" );
    ( "hello-nocaps/json",
      "000000267b2274797065223a2268656c6c6f222c2276657273696f6e223a312c2263617073223a5b5d7d" );
    ( "hello-nocaps/binary",
      "80000003000100" );
    ( "welcome/json",
      "0000006f7b2274797065223a2277656c636f6d65222c2276657273696f6e223a312c227365727669636573223a5b7b226e616d65223a2261222c2270757368223a747275657d2c7b226e616d65223a2262222c2270757368223a66616c73657d5d2c2263617073223a5b227368617264225d7d" );
    ( "welcome/binary",
      "8000001001010201610101620001057368617264" );
    ( "invoke/json",
      "000002c97b2274797065223a22696e766f6b65222c226964223a3330302c2273657276696365223a2273222c22706172616d73223a5b7b226e223a2268222c2261223a5b5b226b222c2276225d2c5b2271222c225c22225d5d2c2263223a5b22205c6e222c7b226e223a2265227d2c2278225d7d2c2270225d2c2270757368223a7b2261786973223a226368696c64222c226c6162656c223a7b22636f6e7374223a2272227d2c22726573756c74223a66616c73652c226368696c6472656e223a5b7b2261786973223a2264657363222c226c6162656c223a7b2276616c7565223a2276227d2c22726573756c74223a66616c73652c226368696c6472656e223a5b5d7d2c7b2261786973223a226368696c64222c226c6162656c223a7b22766172223a2258227d2c22726573756c74223a747275652c226368696c6472656e223a5b5d7d2c7b2261786973223a2264657363222c226c6162656c223a222a222c22726573756c74223a66616c73652c226368696c6472656e223a5b5d7d2c7b2261786973223a226368696c64222c226c6162656c223a226f72222c22726573756c74223a66616c73652c226368696c6472656e223a5b7b2261786973223a226368696c64222c226c6162656c223a7b22636f6e7374223a2261227d2c22726573756c74223a66616c73652c226368696c6472656e223a5b5d7d2c7b2261786973223a226368696c64222c226c6162656c223a7b22636f6e7374223a2262227d2c22726573756c74223a66616c73652c226368696c6472656e223a5b5d7d5d7d2c7b2261786973223a226368696c64222c226c6162656c223a7b2266756e223a6e756c6c7d2c22726573756c74223a66616c73652c226368696c6472656e223a5b5d7d2c7b2261786973223a2264657363222c226c6162656c223a7b2266756e223a5b2266222c2267225d7d2c22726573756c74223a66616c73652c226368696c6472656e223a5b5d7d5d7d7d" );
    ( "invoke/binary",
      "8000005602ac0201730201016802016b017601710122030002200a010165000000017800017001000001720006010101760000000201580100010300000004000200000161000000000162000000050000010602016601670000" );
    ( "invoke-nopush/json",
      "000000327b2274797065223a22696e766f6b65222c226964223a322c2273657276696365223a2273222c22706172616d73223a5b5d7d" );
    ( "invoke-nopush/binary",
      "80000006020201730000" );
    ( "result/json",
      "000000707b2274797065223a22726573756c74222c226964223a332c22707573686564223a747275652c22666f72657374223a5b7b226e223a2268222c2261223a5b5b226b222c2276225d2c5b2271222c225c22225d5d2c2263223a5b22205c6e222c7b226e223a2265227d2c2278225d7d5d7d" );
    ( "result/binary",
      "8000001d0303010101016802016b017601710122030002200a0101650000000178" );
    ( "error/json",
      "000000387b2274797065223a226572726f72222c226964223a342c227472616e7369656e74223a66616c73652c226d657373616765223a226e6f227d" );
    ( "error/binary",
      "80000006040400026e6f" );
    ( "degraded/json",
      "000000447b2274797065223a226465677261646564222c226964223a352c226d657373616765223a22646f776e222c2272657472696573223a332c2274696d656f757473223a317d" );
    ( "degraded/binary",
      "80000009050504646f776e0301" );
  ]

(* Frames of the retired remote-evaluation envelopes (tags 6 and 7),
   pinned as they were last encoded: both codecs must now reject them. *)
let retired_frames =
  [
    ( "eval/json",
      "000000c87b2274797065223a226576616c222c226964223a362c227374726174656779223a226c617a79222c227175657279223a7b2261786973223a226368696c64222c226c6162656c223a7b22766172223a2258227d2c22726573756c74223a66616c73652c226368696c6472656e223a5b5d7d2c22646f63223a7b226e223a2268222c2261223a5b5b226b222c2276225d2c5b2271222c225c22225d5d2c2263223a5b22205c6e222c7b226e223a2265227d2c2278225d7d2c2270726f6a6563746564223a747275657d" );
    ( "eval/binary",
      "800000270606046c617a7900020158000001016802016b017601710122030002200a010165000000017801" );
    ( "eval-unprojected/json",
      "000000747b2274797065223a226576616c222c226964223a372c227374726174656779223a226e61697665222c227175657279223a7b2261786973223a226368696c64222c226c6162656c223a222a222c22726573756c74223a66616c73652c226368696c6472656e223a5b5d7d2c22646f63223a22227d" );
    ( "eval-unprojected/binary",
      "8000000f0607056e6169766500030000000000" );
    ( "report/json",
      "000000477b2274797065223a227265706f7274222c226964223a382c227265706f7274223a7b226c223a5b6e756c6c2c747275652c2d355d2c2266223a302e352c2273223a22c3a9227d7d" );
    ( "report/binary",
      "8000001e07080603016c05030001010209016603000000000000e03f01730402c3a9" );
  ]

let hex s =
  String.to_seq s |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c)) |> List.of_seq
  |> String.concat ""

let unhex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* Both directions: the encoder reproduces the pinned bytes, and the
   pinned bytes decode back to the message. *)
let test_golden_frames () =
  let key_of m = Json.to_string (Wire.message_to_json m) in
  List.iter
    (fun (name, m) ->
      List.iter
        (fun codec ->
          let key = name ^ "/" ^ Wire.codec_name codec in
          let want = List.assoc key golden_frames in
          Alcotest.(check string) key want (hex (Wire.encode_frame ~codec m));
          let frame = unhex want in
          Alcotest.(check bool) (key ^ " header") true
            (Wire.decode_frame_header frame = (codec, String.length frame - 4));
          Alcotest.(check string) (key ^ " decodes") (key_of m)
            (key_of (Wire.decode_payload ~pos:4 codec frame)))
        [ Wire.Json; Wire.Binary ])
    golden_messages

(* Frame-level rejection by [Wire.recv], the path client and server
   use, against a real socketpair. *)
let test_frame_rejection () =
  let header len =
    let b = Bytes.create 4 in
    Bytes.set b 0 (Char.chr ((len lsr 24) land 0xff));
    Bytes.set b 1 (Char.chr ((len lsr 16) land 0xff));
    Bytes.set b 2 (Char.chr ((len lsr 8) land 0xff));
    Bytes.set b 3 (Char.chr (len land 0xff));
    b
  in
  let on_pair payload check =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close a with Unix.Unix_error _ -> ());
        try Unix.close b with Unix.Unix_error _ -> ())
      (fun () ->
        ignore (Unix.write a payload 0 (Bytes.length payload));
        check b)
  in
  let expect_protocol_error fd =
    match Wire.recv fd with
    | _ -> Alcotest.fail "garbage frame accepted"
    | exception Wire.Protocol_error _ -> ()
  in
  (* zero length *)
  on_pair (header 0) expect_protocol_error;
  (* oversized: rejected from the header alone, before any payload *)
  on_pair (header (Wire.max_frame + 1)) expect_protocol_error;
  (* advertised length with a non-JSON payload *)
  on_pair (Bytes.cat (header 5) (Bytes.of_string "hello")) expect_protocol_error;
  (* the retired eval/report envelopes, in either codec *)
  List.iter
    (fun (_, h) -> on_pair (Bytes.of_string (unhex h)) expect_protocol_error)
    retired_frames;
  (* EOF before a frame *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close a;
  (match Wire.recv b with
  | _ -> Alcotest.fail "EOF produced a frame"
  | exception Wire.Closed -> ());
  Unix.close b

(* Generated garbage (test/gen.ml): every malformed byte string — random
   bytes, truncated headers and payloads, oversize or non-positive
   length prefixes, non-JSON payloads, valid-JSON-wrong-envelope — is
   rejected with [Protocol_error] or [Closed], never any other
   exception. *)
let prop_garbage_frames_rejected =
  QCheck.Test.make ~name:"generated garbage is rejected" ~count:200 Gen.arb_garbage
    (fun g ->
      let bytes = Gen.garbage_bytes g in
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            [ a; b ])
        (fun () ->
          if String.length bytes > 0 then
            ignore (Unix.write_substring a bytes 0 (String.length bytes));
          Unix.shutdown a Unix.SHUTDOWN_SEND;
          match Wire.recv b with
          | _ ->
            (* four random bytes can in principle spell a consistent
               length prefix over valid JSON — and random binary-flagged
               payloads can spell a valid tagged message; decoding is
               then allowed — escaping with any unexpected exception is
               not *)
            (match g with
            | Gen.Random_bytes _ | Gen.Binary_random _ -> true
            | _ -> false)
          | exception (Wire.Protocol_error _ | Wire.Closed) -> true))

(* ------------------------------------------------------------------ *)
(* Binary wire codec: differential against JSON *)

(* Canonical JSON text of a value — the cross-codec comparison key. Two
   codecs agree iff the decoded values re-encode to the same JSON. *)
let json_key_of_msg m = Json.to_string (Wire.message_to_json m)

(* gen.ml trees wrapped with locally injected whitespace-only text
   leaves and attributes: the binary codec must preserve them exactly.
   (The shared [Gen.gen_tree] keeps whitespace-only leaves out because
   the XML parse round-trip property drops them.) *)
let gen_wire_tree =
  let open QCheck.Gen in
  map2
    (fun tr ws ->
      Tree.Element
        {
          Tree.name = "root";
          attrs = [ ("lang", "fr"); ("q", "a \"b\"\nc") ];
          children = [ Tree.Text ws; tr; Tree.Text "  \t\n" ];
        })
    Gen.gen_tree
    (oneofl [ " "; "\t"; "\n  " ])

let arb_wire_tree = QCheck.make ~print:(Fmt.to_to_string Tree.pp) gen_wire_tree

let prop_binary_tree_differential =
  QCheck.Test.make ~name:"binary tree codec ≡ JSON tree codec" ~count:200 arb_wire_tree
    (fun tr ->
      let via_bin = Wire.of_binary Wire.tree (Wire.to_binary Wire.tree tr) in
      let via_json = Wire.of_json Wire.tree (Wire.to_json Wire.tree tr) in
      via_bin = tr && via_json = tr
      && Wire.of_binary Wire.forest (Wire.to_binary Wire.forest [ tr; Tree.Text " " ])
         = [ tr; Tree.Text " " ])

let test_binary_pattern_roundtrip () =
  List.iter
    (fun src ->
      let q = (Parser.parse src).P.root in
      let key p = Json.to_string (Wire.to_json Wire.pattern p) in
      Alcotest.(check string) (Printf.sprintf "pattern %s survives binary" src) (key q)
        (key (Wire.of_binary Wire.pattern (Wire.to_binary Wire.pattern q))))
    [
      {|/guide/hotel[name="Best Western"][rating=$R!]/nearby//restaurant[name=$X!]|};
      {|/a//b[c=$X!]|};
      {|/r/*[v="  "]|};
      {|/root/item[val=$X!]|};
    ]

(* Every envelope, encoded binary and decoded back, re-encodes to the
   same canonical JSON as the original — the codec-equivalence oracle
   the fuzz harness's wire dimension relies on. *)
let prop_binary_envelope_differential =
  QCheck.Test.make ~name:"binary envelope ≡ JSON envelope" ~count:100
    QCheck.(pair arb_wire_tree small_int)
    (fun (tr, n) ->
      let push = (Parser.parse "/r//s[v=$X!]").P.root in
      let msgs =
        [
          Wire.Hello { version = Wire.version; caps = [ Wire.cap_binary; "x" ] };
          Wire.Welcome
            {
              version = Wire.version;
              services = [ { Wire.name = "a"; push = true }; { Wire.name = "b"; push = false } ];
              caps = [ "project"; Wire.cap_binary ];
            };
          Wire.Invoke { id = n; service = "getrating"; params = [ tr; t "Hôtel" ]; push = Some push };
          Wire.Invoke { id = n + 1; service = "s"; params = []; push = None };
          Wire.Invoke_same_push { id = n + 2; service = "getrating"; params = [ tr ] };
          Wire.Result { id = n; pushed = true; forest = [ tr ] };
          Wire.Error { id = n; transient = n mod 2 = 0; message = "try \"again\"\n" };
          Wire.Degraded { id = n; message = "backend down"; retries = 3; timeouts = 1 };
        ]
      in
      List.for_all
        (fun m ->
          let frame = Wire.encode_frame ~codec:Wire.Binary m in
          let codec, len = Wire.decode_frame_header frame in
          codec = Wire.Binary
          && String.length frame = 4 + len
          && json_key_of_msg (Wire.decode_payload ~pos:4 Wire.Binary frame)
             = json_key_of_msg m)
        msgs)

let test_binary_max_frame_rejection () =
  (* encoding a message whose binary payload exceeds max_frame *)
  let huge = Wire.Result { id = 1; pushed = false; forest = [ t (String.make Wire.max_frame 'x') ] } in
  (match Wire.encode_frame ~codec:Wire.Binary huge with
  | _ -> Alcotest.fail "oversize binary frame encoded"
  | exception Wire.Protocol_error _ -> ());
  (* a binary-flagged header advertising an oversize length is rejected
     from the header alone *)
  let header len =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int len);
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lor 0x80));
    Bytes.to_string b
  in
  (match Wire.decode_frame_header (header (Wire.max_frame + 1)) with
  | _ -> Alcotest.fail "oversize binary header accepted"
  | exception Wire.Protocol_error _ -> ());
  (* and over a real socket *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
    (fun () ->
      ignore (Unix.write_substring a (header (Wire.max_frame + 1)) 0 4);
      match Wire.recv b with
      | _ -> Alcotest.fail "oversize binary frame received"
      | exception Wire.Protocol_error _ -> ())

(* Negotiation end-to-end: an `Auto client against a binary-capable
   server advertises and speaks binary; pinning --wire json or talking
   to a pre-binary server falls back to JSON — identical answers in
   every pairing. *)
let test_binary_negotiation_e2e () =
  let invoke_result client =
    let result, _ =
      Client.call client ~obs:Obs.null ~timeout:5.0 ~service:"echo"
        ~params:[ t "payload"; el "x" [ t "  " ] ]
        ~push:None
    in
    result
  in
  let registry () =
    let r = Registry.create () in
    Registry.register r ~name:"echo" (fun params -> [ el "val" params ]);
    r
  in
  let expected = ref None in
  let check_one ~caps ~wire ~expect_cap_binary =
    with_server ~caps (registry ()) (fun server ->
        let client =
          Client.create ~wire ~host:"127.0.0.1" ~port:(Server.port server) ()
        in
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            let r = invoke_result client in
            (match !expected with
            | None -> expected := Some r
            | Some e ->
              Alcotest.(check bool) "identical answers across codecs" true (r = e));
            Alcotest.(check bool) "server cap_binary advertisement" expect_cap_binary
              (List.mem Wire.cap_binary (Client.capabilities client))))
  in
  let full = [ Wire.cap_shard; Wire.cap_binary ] in
  (* binary both ends *)
  check_one ~caps:full ~wire:`Auto ~expect_cap_binary:true;
  (* client pins JSON against a binary-capable server *)
  check_one ~caps:full ~wire:`Json ~expect_cap_binary:true;
  (* pre-binary server, modern client *)
  check_one ~caps:[ "project" ] ~wire:`Auto ~expect_cap_binary:false

(* ------------------------------------------------------------------ *)
(* Handshake *)

let echo_registry () =
  let r = Registry.create () in
  Registry.register r ~name:"echo" (fun params -> [ el "val" params ]);
  r

let test_version_mismatch () =
  with_server (echo_registry ()) (fun server ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
          ignore (Wire.send fd (Wire.Hello { version = Wire.version + 42; caps = [] }));
          match Wire.recv fd with
          | Wire.Error { transient = false; message; _ }, _ ->
            Alcotest.(check bool) "says version" true (contains ~sub:"version" message)
          | _ -> Alcotest.fail "expected a non-transient error reply"))

let test_handshake_advertises_push () =
  let r = Registry.create () in
  Registry.register r ~name:"pushy" (fun _ -> []);
  Registry.register r ~name:"plain" ~push_capable:false (fun _ -> []);
  with_server r (fun server ->
      let client = Client.create ~host:"127.0.0.1" ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let infos =
            List.sort compare
              (List.map (fun (s : Wire.service_info) -> (s.Wire.name, s.Wire.push))
                 (Client.services client ()))
          in
          Alcotest.(check bool) "advertised capabilities" true
            (infos = [ ("plain", false); ("pushy", true) ])))

(* A peer that accepts TCP connections but never answers the hello:
   [services] and [call] classify the handshake deadline alike, as a
   transient timeout. *)
let test_handshake_timeout () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close listener)
    (fun () ->
      Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen listener 4;
      let port = match Unix.getsockname listener with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
      let client = Client.create ~connect_timeout:0.1 ~host:"127.0.0.1" ~port () in
      let classify f =
        match f () with
        | _ -> Alcotest.fail "a mute peer answered"
        | exception Registry.Transport_error { transient; timeout; reason; _ } ->
          (transient, timeout, reason)
      in
      let expected = (true, true, "handshake timed out") in
      let check = Alcotest.(check (triple bool bool string)) in
      check "services" expected (classify (fun () -> ignore (Client.services client ())));
      check "call" expected
        (classify (fun () ->
             ignore
               (Client.call client ~obs:Obs.null ~timeout:1.0 ~service:"echo" ~params:[]
                  ~push:None))))

(* ------------------------------------------------------------------ *)
(* Push reuse: the per-connection pattern slot *)

(* The marker frame's exact bytes in both codecs: the invoke envelope
   with the push byte 2 (binary) or the "same" member (JSON) in place
   of a pattern. *)
let test_golden_marker_frames () =
  let m = Wire.Invoke_same_push { id = 301; service = "s"; params = [ t "p" ] } in
  List.iter
    (fun (codec, want) ->
      let key = "invoke-same-push/" ^ Wire.codec_name codec in
      Alcotest.(check string) key want (hex (Wire.encode_frame ~codec m));
      Alcotest.(check string) (key ^ " decodes") (json_key_of_msg m)
        (json_key_of_msg (Wire.decode_payload ~pos:4 codec (unhex want))))
    [
      ( Wire.Json,
        "000000457b2274797065223a22696e766f6b65222c226964223a3330312c2273657276696365223a2273222c22706172616d73223a5b2270225d2c2270757368223a2273616d65227d" );
      (Wire.Binary, "8000000a02ad0201730100017002");
    ]

(* A raw peer speaking to a live server: the handshake with the given
   capabilities, then one request/reply exchange per [exchange]. *)
let with_raw_peer ~caps server f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
      ignore (Wire.send fd (Wire.Hello { version = Wire.version; caps }));
      (match Wire.recv fd with
      | Wire.Welcome _, _ -> ()
      | _ -> Alcotest.fail "expected a welcome");
      f (fun msg ->
          ignore (Wire.send ~codec:Wire.Binary fd msg);
          fst (Wire.recv fd)))

let test_marker_needs_a_remembered_pattern () =
  let push = (Parser.parse "/val").P.root in
  let marker id = Wire.Invoke_same_push { id; service = "echo"; params = [ t "a" ] } in
  let expect_error id = function
    | Wire.Error { id = rid; transient = false; _ } when rid = id -> ()
    | _ -> Alcotest.fail "expected a non-transient error reply to the marker"
  in
  let expect_result id = function
    | Wire.Result { id = rid; _ } when rid = id -> ()
    | _ -> Alcotest.fail "expected a result"
  in
  with_server (echo_registry ()) (fun server ->
      (* a fresh connection has no pattern to reuse: an error, and the
         connection keeps serving *)
      with_raw_peer ~caps:[ Wire.cap_binary; Wire.cap_push_reuse ] server (fun exchange ->
          expect_error 1 (exchange (marker 1));
          expect_result 2
            (exchange (Wire.Invoke { id = 2; service = "echo"; params = [ t "a" ]; push = None }));
          (* a call without a pattern leaves the slot empty *)
          expect_error 3 (exchange (marker 3));
          expect_result 4
            (exchange
               (Wire.Invoke { id = 4; service = "echo"; params = [ t "a" ]; push = Some push }));
          expect_result 5 (exchange (marker 5));
          expect_result 6
            (exchange (Wire.Invoke { id = 6; service = "echo"; params = []; push = None }));
          expect_result 7 (exchange (marker 7)));
      (* without the negotiated capability the server keeps no slot *)
      with_raw_peer ~caps:[ Wire.cap_binary ] server (fun exchange ->
          expect_result 1
            (exchange
               (Wire.Invoke { id = 1; service = "echo"; params = [ t "a" ]; push = Some push }));
          expect_error 2 (exchange (marker 2));
          expect_result 3
            (exchange (Wire.Invoke { id = 3; service = "echo"; params = []; push = None }))))

(* Request bytes of repeated calls with one pattern node: the marker is
   strictly shorter than the pattern, so equal sizes mean it was never
   sent (and a server without a slot would have answered it with an
   error, failing the call). *)
let test_marker_needs_the_capability () =
  let push = (Parser.parse "/val").P.root in
  let sent_sizes ~caps ~wire =
    with_server ~caps (echo_registry ()) (fun server ->
        let client = Client.create ~wire ~host:"127.0.0.1" ~port:(Server.port server) () in
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            List.init 3 (fun _ ->
                let _, w =
                  Client.call client ~obs:Obs.null ~timeout:5.0 ~service:"echo"
                    ~params:[ t "a" ] ~push:(Some push)
                in
                w.Registry.sent)))
  in
  let same = function [ a; b; c ] -> a = b && b = c | _ -> false in
  let full = [ Wire.cap_shard; Wire.cap_binary; Wire.cap_push_reuse ] in
  Alcotest.(check bool) "no marker to a caps:[] server" true
    (same (sent_sizes ~caps:[] ~wire:`Auto));
  Alcotest.(check bool) "no marker to a pre-reuse server" true
    (same (sent_sizes ~caps:[ Wire.cap_shard; Wire.cap_binary ] ~wire:`Auto));
  Alcotest.(check bool) "no marker over a JSON-pinned connection" true
    (same (sent_sizes ~caps:full ~wire:`Json));
  match sent_sizes ~caps:full ~wire:`Auto with
  | [ first; second; third ] ->
    Alcotest.(check bool)
      (Printf.sprintf "the marker after the first call (%d, %d, %d B)" first second third)
      true
      (second < first && third = second)
  | _ -> assert false

(* [levels] nested trees or patterns, a lone leaf being one level. *)
let rec deep_tree levels = if levels <= 1 then t "x" else el "p" [ deep_tree (levels - 1) ]

let rec deep_pattern levels =
  P.make (P.Const "p") (if levels <= 1 then [] else [ deep_pattern (levels - 1) ])

let test_depth_cap () =
  let result levels = Wire.Result { id = 1; pushed = false; forest = [ deep_tree levels ] } in
  let invoke levels =
    Wire.Invoke { id = 1; service = "s"; params = []; push = Some (deep_pattern levels) }
  in
  let decode codec frame = Wire.decode_payload ~pos:4 codec frame in
  List.iter
    (fun codec ->
      let name = Wire.codec_name codec in
      List.iter
        (fun (what, msg) ->
          let at_cap = msg Wire.max_depth in
          Alcotest.(check bool) (Printf.sprintf "%s %s at the cap round-trips" name what) true
            (json_key_of_msg (decode codec (Wire.encode_frame ~codec at_cap))
            = json_key_of_msg at_cap);
          match decode codec (Wire.encode_frame ~codec (msg (Wire.max_depth + 1))) with
          | _ -> Alcotest.failf "%s %s one level past the cap decoded" name what
          | exception Wire.Protocol_error _ -> ())
        [ ("tree", result); ("pattern", invoke) ])
    [ Wire.Json; Wire.Binary ];
  (* far past the cap, without a tree to encode: a million levels are
     refused at the cap, not by running out of stack *)
  let far = 1_000_000 in
  let reject codec payload =
    match Wire.decode_payload codec payload with
    | _ -> Alcotest.failf "%s: a million levels decoded" (Wire.codec_name codec)
    | exception Wire.Protocol_error _ -> ()
  in
  reject Wire.Json (String.make far '[');
  (* a result whose forest holds an element holding an element ... *)
  let level = "\x01\x01p\x00\x01" in
  reject Wire.Binary ("\x03\x01\x00\x01" ^ String.concat "" (List.init far (fun _ -> level)))

(* ------------------------------------------------------------------ *)
(* Label tables: the per-direction string tables of cap_labels *)

(* One direction of a connection that negotiated the tables: frames
   encoded on the sender's outgoing table, decoded in order through the
   receiver's incoming one. *)
let labelled_pair () = (Wire.scratch ~labels:true (), Wire.scratch ~labels:true ())

let encode_on scr m =
  let b, n = Wire.encode_frame_into ~codec:Wire.Binary scr m in
  Bytes.sub_string b 0 n

let through (enc, dec) m =
  let frame = encode_on enc m in
  (frame, Wire.decode_payload ~scratch:dec ~pos:4 Wire.Binary frame)

(* The golden invoke and result, each encoded twice on one table, as a
   client and a server would send them: the first frame spells every
   name in full (as long as the table-free frame), the second names
   them by index. *)
let test_golden_label_frames () =
  let invoke = List.assoc "invoke" golden_messages in
  let result = List.assoc "result" golden_messages in
  List.iter
    (fun (name, m, want_first, want_second) ->
      let pair = labelled_pair () in
      let first, d1 = through pair m in
      let second, d2 = through pair m in
      Alcotest.(check string) (name ^ " first") want_first (hex first);
      Alcotest.(check string) (name ^ " second") want_second (hex second);
      Alcotest.(check int) (name ^ ": the first frame is as long as without a table")
        (String.length (Wire.encode_frame ~codec:Wire.Binary m))
        (String.length first);
      Alcotest.(check bool) (name ^ ": the second frame is strictly shorter") true
        (String.length second < String.length first);
      Alcotest.(check string) (name ^ " first decodes") (json_key_of_msg m) (json_key_of_msg d1);
      Alcotest.(check string) (name ^ " second decodes") (json_key_of_msg m)
        (json_key_of_msg d2))
    [
      ( "invoke",
        invoke,
        "8000005602ac0202730201026802026b027602710222030002200a010265000000017800017001000001720006010101760000000201580100010300000004000200000161000000000162000000050000010602016601670000",
        "8000004f02ac0201020103020507090b030002200a010d000000017800017001000001720006010101760000000201580100010300000004000200000161000000000162000000050000010602016601670000"
      );
      ( "result",
        result,
        "8000001d0303010101026802026b027602710222030002200a0102650000000178",
        "800000170303010101010203050709030002200a010b0000000178" );
    ]

let many_names n = List.init n (fun i -> el (Printf.sprintf "e%d" i) [])

(* A full table keeps its entries and takes no more: a new name goes out
   in full every time, an old one still by index, and a name longer than
   the length bound never joins. *)
let test_label_table_cap () =
  let pair = labelled_pair () in
  let result forest = Wire.Result { id = 1; pushed = false; forest } in
  let send m =
    let frame, decoded = through pair m in
    Alcotest.(check string) "decodes through the table" (json_key_of_msg m)
      (json_key_of_msg decoded);
    frame
  in
  let long = String.make (Wire.max_label_bytes + 1) 'n' in
  let at_bound = String.make Wire.max_label_bytes 'b' in
  let long_first = send (result [ el long [] ]) in
  Alcotest.(check int) "a name past the length bound does not join" (String.length long_first)
    (String.length (send (result [ el long [] ])));
  let bound_first = send (result [ el at_bound [] ]) in
  Alcotest.(check bool) "a name at the length bound joins" true
    (String.length (send (result [ el at_bound [] ])) < String.length bound_first);
  (* [at_bound] holds one slot: fill the rest *)
  ignore (send (result (many_names (Wire.max_labels - 1))));
  let fresh_first = send (result [ el "fresh" [] ]) in
  let fresh_second = send (result [ el "fresh" [] ]) in
  Alcotest.(check string) "a new name after the cap goes out in full, again"
    (hex fresh_first) (hex fresh_second);
  Alcotest.(check bool) "spelled as a literal" true (contains ~sub:"\x0afresh" fresh_second);
  let last = Printf.sprintf "e%d" (Wire.max_labels - 2) in
  let unseen = Printf.sprintf "f%d" (Wire.max_labels - 2) in
  Alcotest.(check bool) "the table holds max_labels entries: the last one is sent by index" true
    (String.length (send (result [ el last [] ])) < String.length (send (result [ el unseen [] ])))

(* A reference past the end of the receiver's table is a protocol error,
   on its own and after the entries it may name. *)
let test_label_reference_past_end () =
  (* invoke, id [i], the service as [v], no params, no pattern *)
  let invoke i v = Printf.sprintf "\x02%c%s\x00\x00" (Char.chr i) v in
  let dec = Wire.scratch ~labels:true () in
  let decode p = Wire.decode_payload ~scratch:dec Wire.Binary p in
  let reject what p =
    match decode p with
    | _ -> Alcotest.failf "%s decoded" what
    | exception Wire.Protocol_error _ -> ()
  in
  reject "a reference into an empty table" (invoke 1 "\x01");
  (match decode (invoke 2 "\x02s") with
  | Wire.Invoke { service = "s"; _ } -> ()
  | _ -> Alcotest.fail "a literal did not decode");
  (match decode (invoke 3 "\x01") with
  | Wire.Invoke { service = "s"; _ } -> ()
  | _ -> Alcotest.fail "entry 0 did not decode");
  reject "entry 1 of a one-entry table" (invoke 4 "\x03");
  reject "a reference with the top varint bit set"
    (invoke 5 "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01");
  reject "a literal longer than the frame" (invoke 6 "\x10ab")

(* A raw peer speaking to a live server over a binary connection with
   label tables: [f fd scratch] after the handshake. *)
let with_labelled_peer server f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
      let caps = [ Wire.cap_binary; Wire.cap_labels ] in
      ignore (Wire.send fd (Wire.Hello { version = Wire.version; caps }));
      (match Wire.recv fd with
      | Wire.Welcome { caps; _ }, _ ->
        Alcotest.(check bool) "the server advertises the tables" true
          (List.mem Wire.cap_labels caps)
      | _ -> Alcotest.fail "expected a welcome");
      f fd (Wire.scratch ~labels:true ()))

(* Over a live server: labelled frames are served, and a reference past
   the end of the server's table closes that connection only. *)
let test_bad_label_reference_closes_one_connection () =
  with_server (echo_registry ()) (fun server ->
      with_labelled_peer server (fun fd scr ->
          let call id =
            Wire.Invoke { id; service = "echo"; params = [ el "x" [ t "a" ] ]; push = None }
          in
          let exchange id =
            ignore (Wire.send ~codec:Wire.Binary ~scratch:scr fd (call id));
            match Wire.recv ~scratch:scr fd with
            | Wire.Result { id = rid; forest; _ }, _ when rid = id ->
              Alcotest.(check bool) "echoed" true (forest = [ el "val" [ el "x" [ t "a" ] ] ])
            | _ -> Alcotest.fail "expected a result"
          in
          (* the first call spells "echo" and "x" in full, the second
             names them by index *)
          exchange 1;
          exchange 2;
          (* invoke, id 3, the service as entry 9 of a two-entry table *)
          let bad = "\x80\x00\x00\x05\x02\x03\x13\x00\x00" in
          ignore (Unix.write_substring fd bad 0 (String.length bad));
          (match Wire.recv ~scratch:scr fd with
          | Wire.Error { transient = false; message; _ }, _ ->
            Alcotest.(check bool) "names the reference" true (contains ~sub:"label" message)
          | _ -> Alcotest.fail "expected a protocol error reply");
          match Wire.recv ~scratch:scr fd with
          | _ -> Alcotest.fail "the connection stayed open"
          | exception (Wire.Closed | Unix.Unix_error _) -> ());
      let client = Client.create ~host:"127.0.0.1" ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let result, _ =
            Client.call client ~obs:Obs.null ~timeout:5.0 ~service:"echo" ~params:[ t "b" ]
              ~push:None
          in
          Alcotest.(check bool) "other connections keep serving" true
            (result = [ el "val" [ t "b" ] ])))

(* A frame that fails to encode takes its new labels back: the frame
   after it spells them in full, and the receiver, which never saw the
   failed frame, decodes it. *)
let test_label_rollback () =
  let enc, dec = labelled_pair () in
  ignore (through (enc, dec) (Wire.Result { id = 1; pushed = false; forest = [ el "a" [] ] }));
  let huge =
    Wire.Result
      {
        id = 2;
        pushed = false;
        forest = [ el "b" [ el "c" [] ]; t (String.make Wire.max_frame 'x') ];
      }
  in
  (match encode_on enc huge with
  | _ -> Alcotest.fail "oversize frame encoded"
  | exception Wire.Protocol_error _ -> ());
  let next = Wire.Result { id = 3; pushed = false; forest = [ el "a" [ el "b" [ el "c" [] ] ] ] } in
  let frame, decoded = through (enc, dec) next in
  Alcotest.(check string) "the receiver decodes the frame after the failed one"
    (json_key_of_msg next) (json_key_of_msg decoded);
  Alcotest.(check bool) "names of the failed frame go out in full" true
    (contains ~sub:"\x02b" frame && contains ~sub:"\x02c" frame)

(* Sequences of envelopes over one pair of tables, with names drawn from
   a vocabulary wider than the table and some longer than the length
   bound: every frame decodes to what the table-free binary codec and
   the JSON codec decode. *)
let gen_label_sequence =
  let open QCheck.Gen in
  let label =
    frequency
      [
        (4, oneofl [ "a"; "hotel"; "name"; "axml:call"; "" ]);
        (4, map (Printf.sprintf "n%d") (int_bound 400));
        (1, map (fun k -> String.make (Wire.max_label_bytes + k) 'L') (int_bound 2));
        (1, map (fun k -> String.make (Wire.max_label_bytes - k) 'S') (int_bound 2));
      ]
  in
  let tree =
    sized_size (int_bound 6)
    @@ fix (fun self n ->
           if n = 0 then map Tree.text (oneofl [ "x"; " "; "Best Western" ])
           else
             map3
               (fun name attrs children -> Tree.Element { Tree.name; attrs; children })
               label
               (list_size (int_bound 2) (pair label label))
               (list_size (int_bound 3) (self (n / 2))))
  in
  let push = (Parser.parse "/r//s[v=$X!]").P.root in
  let message =
    map3
      (fun k service forest ->
        match k with
        | 0 -> Wire.Invoke { id = 1; service; params = forest; push = Some push }
        | 1 -> Wire.Invoke { id = 2; service; params = forest; push = None }
        | 2 -> Wire.Invoke_same_push { id = 3; service; params = forest }
        | 3 -> Wire.Result { id = 4; pushed = true; forest }
        | 4 -> Wire.Error { id = 5; transient = false; message = service }
        | _ -> Wire.Degraded { id = 6; message = service; retries = 1; timeouts = 0 })
      (int_bound 5) label
      (list_size (int_bound 4) tree)
  in
  (* a run of many fresh names fills the table part way through *)
  let filler =
    map (fun n -> Wire.Result { id = 7; pushed = false; forest = many_names n }) (int_bound 300)
  in
  list_size (int_range 1 30) (frequency [ (9, message); (1, filler) ])

let prop_label_sequence =
  QCheck.Test.make ~name:"label tables ≡ table-free binary ≡ JSON over a sequence" ~count:100
    (QCheck.make
       ~print:(fun ms -> String.concat "\n" (List.map json_key_of_msg ms))
       gen_label_sequence)
    (fun msgs ->
      let pair = labelled_pair () in
      List.for_all
        (fun m ->
          let _, via_tables = through pair m in
          let plain = Wire.encode_frame ~codec:Wire.Binary m in
          let via_binary = Wire.decode_payload ~pos:4 Wire.Binary plain in
          let via_json = Wire.message_of_json (Wire.message_to_json m) in
          json_key_of_msg via_tables = json_key_of_msg via_binary
          && json_key_of_msg via_binary = json_key_of_msg via_json
          && json_key_of_msg via_json = json_key_of_msg m)
        msgs)

(* ------------------------------------------------------------------ *)
(* Remote invocation basics *)

let test_remote_invoke_and_pool_reuse () =
  with_server (echo_registry ()) (fun server ->
      let registry = Registry.create () in
      let client = Client.create ~host:"127.0.0.1" ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let names = Remote.register ~retry:fast_policy ~memoize:false ~registry client in
          Alcotest.(check (list string)) "registered" [ "echo" ] names;
          Alcotest.(check bool) "marked remote" true (Registry.is_remote registry "echo");
          let obs = Obs.measuring () in
          for i = 1 to 5 do
            let result, inv =
              Registry.invoke registry ~name:"echo"
                ~params:[ t (string_of_int i) ]
                ~obs ()
            in
            Alcotest.(check bool) "echoed" true (result = [ el "val" [ t (string_of_int i) ] ]);
            Alcotest.(check bool) "bytes on the wire" true
              (inv.Registry.request_bytes > 0 && inv.Registry.response_bytes > 0)
          done;
          Alcotest.(check int) "every request counted" 5
            (Metrics.count obs.Obs.metrics "net.requests" ~labels:[ ("service", "echo") ]);
          (* one connection was dialed during registration; every request
             after it reuses the pooled one *)
          Alcotest.(check int) "no extra dials" 0
            (Metrics.count obs.Obs.metrics "net.connects");
          Alcotest.(check int) "pool reuse" 5 (Metrics.count obs.Obs.metrics "net.reuses")))

let test_unknown_remote_service_fails_fast () =
  with_server (echo_registry ()) (fun server ->
      let client = Client.create ~host:"127.0.0.1" ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          match
            Client.call client ~obs:Obs.null ~timeout:5.0 ~service:"nope" ~params:[]
              ~push:None
          with
          | _ -> Alcotest.fail "unknown service answered"
          | exception Registry.Transport_error { transient; _ } ->
            Alcotest.(check bool) "not worth retrying" false transient))

(* A reply much larger than a socket buffer: the server writes what the
   socket takes when the reply completes and the rest as the socket
   drains. *)
let test_large_reply_arrives_whole () =
  let size = 4 * 1024 * 1024 in
  let r = Registry.create () in
  Registry.register r ~name:"big" (fun _ -> [ t (String.make size 'x') ]);
  with_server r (fun server ->
      let client = Client.create ~host:"127.0.0.1" ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          for _ = 1 to 2 do
            match
              Client.call client ~obs:Obs.null ~timeout:10.0 ~service:"big" ~params:[]
                ~push:None
            with
            | [ Tree.Text s ], _ ->
              Alcotest.(check bool) "the 4 MB reply arrives whole" true
                (String.length s = size && s = String.make size 'x')
            | _ -> Alcotest.fail "unexpected reply"
          done))

(* Two requests written back to back before reading: the server serves
   them one at a time, in order, on one connection. *)
let test_pipelined_requests () =
  with_server (echo_registry ()) (fun server ->
      with_labelled_peer server (fun fd scr ->
          let call id =
            Wire.Invoke { id; service = "echo"; params = [ t (string_of_int id) ]; push = None }
          in
          let b1, n1 = Wire.encode_frame_into ~codec:Wire.Binary scr (call 1) in
          let first = Bytes.sub b1 0 n1 in
          let b2, n2 = Wire.encode_frame_into ~codec:Wire.Binary scr (call 2) in
          let both = Bytes.cat first (Bytes.sub b2 0 n2) in
          ignore (Unix.write fd both 0 (Bytes.length both));
          List.iter
            (fun id ->
              match Wire.recv ~scratch:scr fd with
              | Wire.Result { id = rid; forest; _ }, _ ->
                Alcotest.(check int) "replies in request order" id rid;
                Alcotest.(check bool) "its own answer" true
                  (forest = [ el "val" [ t (string_of_int id) ] ])
              | _ -> Alcotest.fail "expected a result")
            [ 1; 2 ]))

(* The socket deadline follows each call's timeout on a pooled
   connection: after a call without a deadline, a short timeout still
   fires on the same connection. *)
let test_deadline_after_infinity () =
  let server = Server.create ~delay:0.3 ~registry:(echo_registry ()) () in
  Server.start server;
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let client = Client.create ~host:"127.0.0.1" ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let obs = Obs.measuring () in
          let call timeout =
            Client.call client ~obs ~timeout ~service:"echo" ~params:[ t "a" ] ~push:None
          in
          ignore (call infinity);
          (match call 0.05 with
          | _ -> Alcotest.fail "a 0.05 s call to a 0.3 s peer answered"
          | exception Registry.Transport_error { timeout; transient; _ } ->
            Alcotest.(check bool) "timed out" true (timeout && transient));
          Alcotest.(check int) "one dial" 1 (Metrics.count obs.Obs.metrics "net.connects");
          Alcotest.(check int) "the short call reused the connection" 1
            (Metrics.count obs.Obs.metrics "net.reuses")))

(* ------------------------------------------------------------------ *)
(* Graceful degradation over the wire *)

let test_server_killed_mid_run () =
  let doc =
    Doc.of_xml
      (Axml_xml.Parse.tree
         {|<root><item><axml:call name="echo">a</axml:call></item><item><axml:call name="echo">b</axml:call></item><item><axml:call name="echo">c</axml:call></item></root>|})
  in
  let query = Parser.parse "/root/item[val=$X!]" in
  let server = Server.create ~registry:(echo_registry ()) () in
  Server.start server;
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let registry = Registry.create () in
      let client = Client.create ~host:"127.0.0.1" ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          ignore (Remote.register ~retry:fast_policy ~memoize:false ~registry client);
          (* the server dies right after its first reply: call 1 expands,
             calls 2 and 3 fail through the whole real retry/backoff loop *)
          Server.kill_after_reply server;
          let r = Lazy_eval.run ~strategy:Lazy_eval.nfqa ~registry query doc in
          Alcotest.(check bool) "degraded, not crashed" false r.Engine.complete;
          Alcotest.(check int) "two calls permanently failed" 2 r.Engine.failed_calls;
          Alcotest.(check int) "first answer survives" 1 (List.length r.Engine.answers);
          Alcotest.(check int) "real retries happened" (2 * fast_policy.Registry.max_retries)
            r.Engine.retries;
          (* the unexpanded calls survive in the document and its serialization *)
          Alcotest.(check int) "calls still pending" 2 (Doc.count_calls doc);
          let xml = Doc.to_string doc in
          Alcotest.(check bool) "unexpanded call serializes" true
            (contains ~sub:"axml:call" xml)))

(* ------------------------------------------------------------------ *)
(* E2E acceptance: the city-guide workload over loopback *)

(* seed 1 yields a non-empty answer set at this scale *)
let city_config = { City.default_config with City.hotels = 8; seed = 1 }

let tuples answers =
  List.map (fun (b : Eval.binding) -> List.sort compare b.Eval.vars) answers
  |> List.sort_uniq compare

let wire_invocations registry =
  List.length (List.filter (fun i -> not i.Registry.cached) (Registry.history registry))

let wire_response_bytes registry =
  List.fold_left
    (fun acc (i : Registry.invocation) ->
      if i.Registry.cached then acc else acc + i.Registry.response_bytes)
    0 (Registry.history registry)

(* Run the city workload against a serving peer. Documents mutate in
   place, so every run generates a fresh (deterministic) instance; only
   the server's registry is shared. *)
let remote_run ~port ~eval () =
  let inst = City.generate city_config in
  let registry = Registry.create () in
  let client = Client.create ~host:"127.0.0.1" ~port () in
  Fun.protect
    ~finally:(fun () -> Client.close client)
    (fun () ->
      ignore (Remote.register ~retry:fast_policy ~memoize:false ~registry client);
      let result = eval ~registry ~inst in
      (result, registry))

let lazy_eval ~push ~registry ~inst =
  let strategy =
    if push then Lazy_eval.with_push Lazy_eval.nfqa_typed else Lazy_eval.nfqa_typed
  in
  Lazy_eval.run ~strategy ~schema:inst.City.schema ~registry inst.City.query inst.City.doc

let test_e2e_city_acceptance () =
  let served = City.generate city_config in
  with_server served.City.registry (fun server ->
      let port = Server.port server in
      (* (a) identical answers remote vs in-process *)
      let local_inst = City.generate city_config in
      let local =
        Lazy_eval.run ~strategy:Lazy_eval.nfqa_typed ~schema:local_inst.City.schema
          ~registry:local_inst.City.registry local_inst.City.query local_inst.City.doc
      in
      let remote_lazy, lazy_reg = remote_run ~port ~eval:(lazy_eval ~push:false) () in
      Alcotest.(check bool) "remote evaluation is complete" true
        remote_lazy.Engine.complete;
      Alcotest.(check bool) "identical answers remote vs in-process" true
        (tuples remote_lazy.Engine.answers = tuples local.Engine.answers);
      Alcotest.(check bool) "answers are non-trivial" true
        (tuples remote_lazy.Engine.answers <> []);
      (* (b) lazy crosses the wire strictly less often than naive *)
      let remote_naive, naive_reg =
        remote_run ~port
          ~eval:(fun ~registry ~inst -> Engine.naive_run registry inst.City.query inst.City.doc)
          ()
      in
      Alcotest.(check bool) "naive finds the same answers" true
        (tuples remote_naive.Engine.answers = tuples local.Engine.answers);
      let lazy_wire = wire_invocations lazy_reg in
      let naive_wire = wire_invocations naive_reg in
      Alcotest.(check bool)
        (Printf.sprintf "lazy (%d) < naive (%d) wire invocations" lazy_wire naive_wire)
        true
        (lazy_wire < naive_wire);
      (* (c) pushing ships strictly fewer response bytes *)
      let remote_push, push_reg = remote_run ~port ~eval:(lazy_eval ~push:true) () in
      Alcotest.(check bool) "pushed answers still identical" true
        (tuples remote_push.Engine.answers = tuples local.Engine.answers);
      Alcotest.(check bool) "subqueries were actually pushed" true
        (remote_push.Engine.pushed > 0);
      let pushed_bytes = wire_response_bytes push_reg in
      let plain_bytes = wire_response_bytes lazy_reg in
      Alcotest.(check bool)
        (Printf.sprintf "push (%d B) < no-push (%d B) response bytes" pushed_bytes
           plain_bytes)
        true
        (pushed_bytes < plain_bytes))

(* Push reuse end to end: the same pushed city run against a server
   with the per-connection pattern slot and one without it (the default
   capabilities before the slot existed). Only the requests shrink. *)
let test_e2e_push_reuse () =
  let run caps =
    let served = City.generate city_config in
    with_server ~caps served.City.registry (fun server ->
        let report, registry =
          remote_run ~port:(Server.port server) ~eval:(lazy_eval ~push:true) ()
        in
        let request_bytes =
          List.fold_left
            (fun acc (i : Registry.invocation) ->
              if i.Registry.cached then acc else acc + i.Registry.request_bytes)
            0 (Registry.history registry)
        in
        (report, wire_response_bytes registry, request_bytes))
  in
  let reuse, reuse_resp, reuse_req =
    run [ Wire.cap_shard; Wire.cap_binary; Wire.cap_push_reuse ]
  in
  let plain, plain_resp, plain_req = run [ Wire.cap_shard; Wire.cap_binary ] in
  Alcotest.(check bool) "subqueries were pushed" true (reuse.Engine.pushed > 0);
  Alcotest.(check bool) "identical answers" true
    (tuples reuse.Engine.answers = tuples plain.Engine.answers);
  Alcotest.(check int) "identical invoked" plain.Engine.invoked reuse.Engine.invoked;
  Alcotest.(check int) "identical response bytes" plain_resp reuse_resp;
  Alcotest.(check bool)
    (Printf.sprintf "fewer request bytes with reuse (%d < %d B)" reuse_req plain_req)
    true (reuse_req < plain_req)

(* Label tables end to end: the pushed city run against a default
   server, one without the tables and one with nothing newer than the
   binary codec. Only the bytes may differ. Remote calls charge their
   wall-clock time to the simulated clock, so [simulated_seconds] is not
   compared either. *)
let test_e2e_label_tables () =
  let run caps =
    let served = City.generate city_config in
    with_server ?caps served.City.registry (fun server ->
        let report, registry =
          remote_run ~port:(Server.port server) ~eval:(lazy_eval ~push:true) ()
        in
        let request_bytes =
          List.fold_left
            (fun acc (i : Registry.invocation) ->
              if i.Registry.cached then acc else acc + i.Registry.request_bytes)
            0 (Registry.history registry)
        in
        (report, request_bytes, wire_response_bytes registry))
  in
  let labelled, lab_req, lab_resp = run None in
  Alcotest.(check bool) "subqueries were pushed" true (labelled.Engine.pushed > 0);
  List.iter
    (fun (what, caps) ->
      let other, req, resp = run (Some caps) in
      Alcotest.(check bool) ("identical answers to a server " ^ what) true
        (tuples labelled.Engine.answers = tuples other.Engine.answers);
      Alcotest.(check int) ("identical invoked to a server " ^ what) other.Engine.invoked
        labelled.Engine.invoked;
      Alcotest.(check (list string)) ("no other report field differs from a server " ^ what) []
        (List.filter
           (fun f -> not (List.mem f [ "bytes_transferred"; "simulated_seconds" ]))
           (Engine.differing labelled other));
      Alcotest.(check bool)
        (Printf.sprintf "fewer request bytes than a server %s (%d < %d B)" what lab_req req)
        true (lab_req < req);
      Alcotest.(check bool)
        (Printf.sprintf "fewer response bytes than a server %s (%d < %d B)" what lab_resp resp)
        true (lab_resp < resp))
    [
      ("without label tables", [ Wire.cap_shard; Wire.cap_binary; Wire.cap_push_reuse ]);
      ("with the binary codec only", [ Wire.cap_shard; Wire.cap_binary ]);
    ]

(* The same garbage thrown at a live server: every connection is
   answered or dropped, and the listener keeps serving afterwards — a
   hostile peer cannot kill the server thread. *)
let test_server_survives_garbage () =
  with_server (echo_registry ()) (fun server ->
      let port = Server.port server in
      let garbage =
        QCheck.Gen.generate ~rand:(Random.State.make [| 0xfee1 |]) ~n:40 Gen.gen_garbage
      in
      List.iter
        (fun g ->
          let bytes = Gen.garbage_bytes g in
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              (if String.length bytes > 0 then
                 try ignore (Unix.write_substring fd bytes 0 (String.length bytes))
                 with Unix.Unix_error _ -> ());
              (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
              (* drain the error reply (if any) until the server closes *)
              let buf = Bytes.create 256 in
              try
                while Unix.read fd buf 0 256 > 0 do
                  ()
                done
              with Unix.Unix_error _ -> ()))
        garbage;
      let client = Client.create ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          Alcotest.(check int) "still serving" 1
            (List.length (Client.services client ()))))

(* The portable select backend (the non-Linux / pre-epoll path) serves
   the same protocol: force it and run real exchanges through it. *)
let test_select_backend () =
  let server = Server.create ~force_select:true ~registry:(echo_registry ()) () in
  Server.start server;
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let client = Client.create ~host:"127.0.0.1" ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          for i = 1 to 20 do
            let result, _ =
              Client.call client ~obs:Obs.null ~timeout:5.0 ~service:"echo"
                ~params:[ t (string_of_int i) ]
                ~push:None
            in
            Alcotest.(check bool) "echoed through select loop" true
              (result = [ el "val" [ t (string_of_int i) ] ])
          done))

(* After a stop, the port refuses connections — no zombie listener. *)
let test_stop_refuses_connections () =
  let server = Server.create ~registry:(echo_registry ()) () in
  Server.start server;
  let port = Server.port server in
  Server.stop server;
  let client = Client.create ~host:"127.0.0.1" ~port () in
  match Client.services client () with
  | _ -> Alcotest.fail "stopped server answered"
  | exception Registry.Transport_error { transient = true; _ } -> ()

let () =
  Alcotest.run "net"
    [
      ( "wire",
        [
          Alcotest.test_case "tree round-trip" `Quick test_tree_roundtrip;
          Alcotest.test_case "pattern round-trip" `Quick test_pattern_roundtrip;
          Alcotest.test_case "message round-trip" `Quick test_message_roundtrip;
          Alcotest.test_case "envelope rejection" `Quick test_envelope_rejection;
          Alcotest.test_case "golden frames" `Quick test_golden_frames;
          Alcotest.test_case "frame rejection" `Quick test_frame_rejection;
          QCheck_alcotest.to_alcotest prop_garbage_frames_rejected;
          Alcotest.test_case "server survives garbage" `Quick test_server_survives_garbage;
        ] );
      ( "wire-binary",
        [
          QCheck_alcotest.to_alcotest prop_binary_tree_differential;
          Alcotest.test_case "pattern round-trip" `Quick test_binary_pattern_roundtrip;
          QCheck_alcotest.to_alcotest prop_binary_envelope_differential;
          Alcotest.test_case "max_frame rejection" `Quick test_binary_max_frame_rejection;
          Alcotest.test_case "negotiation e2e" `Quick test_binary_negotiation_e2e;
          Alcotest.test_case "golden marker frames" `Quick test_golden_marker_frames;
          Alcotest.test_case "marker needs a remembered pattern" `Quick
            test_marker_needs_a_remembered_pattern;
          Alcotest.test_case "marker needs the capability" `Quick
            test_marker_needs_the_capability;
          Alcotest.test_case "nesting depth cap" `Quick test_depth_cap;
          Alcotest.test_case "golden label frames" `Quick test_golden_label_frames;
          Alcotest.test_case "label table cap" `Quick test_label_table_cap;
          Alcotest.test_case "label reference past the end" `Quick test_label_reference_past_end;
          Alcotest.test_case "bad label reference closes one connection" `Quick
            test_bad_label_reference_closes_one_connection;
          Alcotest.test_case "label table rollback" `Quick test_label_rollback;
          QCheck_alcotest.to_alcotest prop_label_sequence;
        ] );
      ( "handshake",
        [
          Alcotest.test_case "version mismatch" `Quick test_version_mismatch;
          Alcotest.test_case "push capability advertised" `Quick
            test_handshake_advertises_push;
          Alcotest.test_case "handshake timeout" `Quick test_handshake_timeout;
        ] );
      ( "remote",
        [
          Alcotest.test_case "invoke + pool reuse" `Quick test_remote_invoke_and_pool_reuse;
          Alcotest.test_case "unknown service fails fast" `Quick
            test_unknown_remote_service_fails_fast;
          Alcotest.test_case "stop refuses connections" `Quick test_stop_refuses_connections;
          Alcotest.test_case "select backend serves" `Quick test_select_backend;
          Alcotest.test_case "large reply arrives whole" `Quick test_large_reply_arrives_whole;
          Alcotest.test_case "pipelined requests" `Quick test_pipelined_requests;
          Alcotest.test_case "deadline after an infinite one" `Quick test_deadline_after_infinity;
        ] );
      ( "degradation",
        [ Alcotest.test_case "server killed mid-run" `Quick test_server_killed_mid_run ] );
      ( "e2e",
        [
          Alcotest.test_case "city over loopback" `Quick test_e2e_city_acceptance;
          Alcotest.test_case "push reuse over loopback" `Quick test_e2e_push_reuse;
          Alcotest.test_case "label tables over loopback" `Quick test_e2e_label_tables;
        ] );
    ]
