(* Tests for the adversarial generator (Axml_workload.Adversary) and the
   differential fuzz harness (Axml_fuzz.Fuzz): seed determinism of the
   case stream and the generated instances, hostile-family shape
   invariants, the Def. 4 oracle on a bounded adversary instance (via
   the shared test/gen.ml helpers), and a small end-to-end fuzz run
   asserting zero oracle violations. *)

module Doc = Axml_doc
module Registry = Axml_services.Registry
module Engine = Axml_engine.Engine
module Lazy_eval = Axml_core.Lazy_eval
module Adversary = Axml_workload.Adversary
module Fuzz = Axml_fuzz.Fuzz

(* ------------------------------------------------------------------ *)
(* Determinism *)

let test_case_stream_deterministic () =
  for seed = 0 to 199 do
    let a = Fuzz.case_of_seed seed and b = Fuzz.case_of_seed seed in
    Alcotest.(check string)
      (Printf.sprintf "seed %d derives one case" seed)
      (Fuzz.case_to_string a) (Fuzz.case_to_string b)
  done;
  let distinct =
    List.init 200 (fun s -> Fuzz.case_to_string (Fuzz.case_of_seed s))
    |> List.sort_uniq compare |> List.length
  in
  Alcotest.(check bool) "the stream varies" true (distinct > 150)

(* The F-guide dimension: lazy cases only, and drawn often enough that
   its candidate filter meets both match levels in a short run. *)
let test_case_stream_fguide () =
  let cases = List.init 200 Fuzz.case_of_seed in
  List.iter
    (fun (c : Fuzz.case) ->
      if c.Fuzz.fguide && not c.Fuzz.lazy_strategy then
        Alcotest.failf "naive case with the F-guide: %s" (Fuzz.case_to_string c))
    cases;
  List.iter
    (fun mj ->
      Alcotest.(check bool)
        (Printf.sprintf "some F-guide case at match-jobs %d" mj)
        true
        (List.exists (fun (c : Fuzz.case) -> c.Fuzz.fguide && c.Fuzz.match_jobs = mj) cases))
    [ 1; 4 ]

(* The named-strategy dimension is drawn after every other one, so
   every earlier dimension derives per seed exactly as before it was
   added: with the strategy name folded back to "lazy", the first 1000
   cases digest to the stream's earlier value. Lazy cases draw every
   named configuration; naive cases keep nfqa. *)
let test_case_stream_named_strategy () =
  let cases = List.init 1000 Fuzz.case_of_seed in
  let fold_name s =
    String.split_on_char ' ' s
    |> List.map (fun tok ->
           if String.starts_with ~prefix:"strategy=" tok && tok <> "strategy=naive" then
             "strategy=lazy"
           else tok)
    |> String.concat " "
  in
  let stream = String.concat "\n" (List.map (fun c -> fold_name (Fuzz.case_to_string c)) cases) in
  Alcotest.(check string)
    "earlier dimensions unchanged" "d29b48e87e0172dee8ac8009250de599"
    (Digest.to_hex (Digest.string stream));
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "some lazy case starts from %s" name)
        true
        (List.exists
           (fun (c : Fuzz.case) -> c.Fuzz.lazy_strategy && c.Fuzz.lazy_base = name)
           cases))
    Lazy_eval.named;
  List.iter
    (fun (c : Fuzz.case) ->
      if (not c.Fuzz.lazy_strategy) && c.Fuzz.lazy_base <> "nfqa" then
        Alcotest.failf "naive case with a lazy base: %s" (Fuzz.case_to_string c))
    cases

let test_adversary_deterministic () =
  List.iter
    (fun (name, family) ->
      let cfg = { Adversary.default_config with Adversary.family; seed = 3; scale = 24 } in
      let a = Adversary.generate cfg and b = Adversary.generate cfg in
      Alcotest.(check string)
        (name ^ ": same seed, same document")
        (Doc.to_string a.Adversary.doc) (Doc.to_string b.Adversary.doc);
      Alcotest.(check int)
        (name ^ ": same seed, same call count")
        (Adversary.total_calls a) (Adversary.total_calls b))
    Adversary.families

let test_adversary_seed_sensitivity () =
  let doc seed =
    let cfg = { Adversary.default_config with Adversary.seed; scale = 24 } in
    Doc.to_string (Adversary.generate cfg).Adversary.doc
  in
  Alcotest.(check bool) "different seeds, different documents" true (doc 1 <> doc 2)

(* ------------------------------------------------------------------ *)
(* Family shapes *)

let test_family_shapes () =
  List.iter
    (fun (name, family) ->
      let cfg = { Adversary.default_config with Adversary.family; seed = 5; scale = 32 } in
      let inst = Adversary.generate cfg in
      Alcotest.(check bool) (name ^ " has calls") true (Adversary.total_calls inst > 0))
    Adversary.families

(* ------------------------------------------------------------------ *)
(* Def. 4 on a bounded adversary instance, via the shared helpers *)

let test_bounded_lazy_matches_naive () =
  List.iter
    (fun seed ->
      let cfg =
        {
          Adversary.default_config with
          Adversary.family = Adversary.Bounded_recursion;
          seed;
          scale = 24;
        }
      in
      let naive_inst = Adversary.generate cfg in
      let reference =
        Gen.tuples
          (Engine.naive_run naive_inst.Adversary.registry naive_inst.Adversary.query
             naive_inst.Adversary.doc)
            .Engine.answers
      in
      let lazy_inst = Adversary.generate cfg in
      let r =
        Lazy_eval.run ~registry:lazy_inst.Adversary.registry lazy_inst.Adversary.query
          lazy_inst.Adversary.doc
      in
      let answers = Gen.tuples r.Engine.answers in
      Alcotest.(check bool) "lazy ⊆ naive" true (Gen.subset answers reference);
      Alcotest.(check bool) "complete" true r.Engine.complete;
      Alcotest.(check bool) "complete ⟹ equal" true (answers = reference))
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* The harness end to end *)

let test_fuzz_run_clean () =
  let r = Fuzz.run ~watchdog:60.0 ~seed:1 ~iters:12 () in
  (match r.Fuzz.failure with
  | None -> ()
  | Some f ->
    Alcotest.failf "oracle %s: %s (%s)" f.Fuzz.shrunk_failure.Fuzz.oracle
      f.Fuzz.shrunk_failure.Fuzz.detail
      (Fuzz.replay_hint f.Fuzz.shrunk_case));
  Alcotest.(check int) "all iterations ran" 12 r.Fuzz.iterations

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "fuzz"
    [
      ( "determinism",
        [
          quick "case stream is a pure function of the seed" test_case_stream_deterministic;
          quick "the F-guide is drawn for lazy cases only" test_case_stream_fguide;
          quick "the named strategy is drawn last" test_case_stream_named_strategy;
          quick "adversary instances are seed-deterministic" test_adversary_deterministic;
          quick "seeds matter" test_adversary_seed_sensitivity;
        ] );
      ( "families",
        [
          quick "every family generates calls" test_family_shapes;
          quick "bounded recursion: lazy = naive (Def. 4)" test_bounded_lazy_matches_naive;
        ] );
      ("harness", [ quick "12 iterations, zero violations" test_fuzz_run_clean ]);
    ]
