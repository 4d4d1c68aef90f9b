(* Tests for regexes, NFAs and DFAs. *)

module Regex = Axml_automata.Regex
module Nfa = Axml_automata.Nfa
module Dfa = Axml_automata.Dfa

let re = Regex.of_string

(* ------------------------------------------------------------------ *)
(* Regex parsing and printing *)

let test_parse_basic () =
  Alcotest.(check bool) "sym" true (Regex.equal (re "a") (Regex.Sym "a"));
  Alcotest.(check bool) "seq" true (Regex.equal (re "a.b") (Regex.Seq (Sym "a", Sym "b")));
  Alcotest.(check bool) "alt" true (Regex.equal (re "a|b") (Regex.Alt (Sym "a", Sym "b")));
  Alcotest.(check bool) "star" true (Regex.equal (re "a*") (Regex.Star (Sym "a")));
  Alcotest.(check bool) "plus" true (Regex.equal (re "a+") (Regex.Plus (Sym "a")));
  Alcotest.(check bool) "opt" true (Regex.equal (re "a?") (Regex.Opt (Sym "a")));
  Alcotest.(check bool) "any" true (Regex.equal (re "_") Regex.Any);
  Alcotest.(check bool) "eps" true (Regex.equal (re "%empty") Regex.Epsilon);
  Alcotest.(check bool) "none" true (Regex.equal (re "%none") Regex.Empty)

let test_parse_precedence () =
  (* a.b|c star parses as seq before alt *)
  let got = re "a.b|c*" in
  let want = Regex.Alt (Seq (Sym "a", Sym "b"), Star (Sym "c")) in
  Alcotest.(check bool) "precedence" true (Regex.equal got want)

let test_parse_schema_example () =
  (* The hotel content model from Fig. 2. *)
  let got = re "name.address.rating.nearby" in
  Alcotest.(check bool) "matches word" true
    (Regex.matches got [ "name"; "address"; "rating"; "nearby" ]);
  Alcotest.(check bool) "order matters" false
    (Regex.matches got [ "address"; "name"; "rating"; "nearby" ])

let test_parse_errors () =
  List.iter
    (fun src ->
      match re src with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "expected parse failure on %S" src)
    [ "("; "a|"; "a)"; "*"; "%what"; "a b" ]

let test_print_roundtrip () =
  List.iter
    (fun src ->
      let r = re src in
      let printed = Regex.to_string r in
      Alcotest.(check bool) (src ^ " roundtrips") true (Regex.equal r (re printed)))
    [ "a"; "a.b.c"; "a|b|c"; "(a|b).c*"; "a?.b+"; "_*.a"; "%empty"; "(a.b)*" ]

(* ------------------------------------------------------------------ *)
(* Regex semantics *)

let test_nullable () =
  Alcotest.(check bool) "eps" true (Regex.nullable (re "%empty"));
  Alcotest.(check bool) "star" true (Regex.nullable (re "a*"));
  Alcotest.(check bool) "opt" true (Regex.nullable (re "a?"));
  Alcotest.(check bool) "sym" false (Regex.nullable (re "a"));
  Alcotest.(check bool) "plus" false (Regex.nullable (re "a+"));
  Alcotest.(check bool) "seq" false (Regex.nullable (re "a*.b"))

let test_matches () =
  let r = re "(a|b)*.c" in
  Alcotest.(check bool) "abc" true (Regex.matches r [ "a"; "b"; "c" ]);
  Alcotest.(check bool) "c" true (Regex.matches r [ "c" ]);
  Alcotest.(check bool) "empty" false (Regex.matches r []);
  Alcotest.(check bool) "trailing" false (Regex.matches r [ "c"; "a" ])

let test_occurring_symbols () =
  Alcotest.(check (list string)) "live" [ "a"; "b" ] (Regex.occurring_symbols (re "a.b"));
  (* c is only reachable through an empty language *)
  Alcotest.(check (list string))
    "dead branch" [ "a" ]
    (Regex.occurring_symbols (Regex.Alt (Sym "a", Seq (Sym "c", Regex.Empty))))

let test_enumerate () =
  let words = Regex.enumerate ~max_len:3 ~alphabet:[ "a"; "b" ] (re "a.b?") in
  Alcotest.(check int) "two words" 2 (List.length words);
  Alcotest.(check bool) "has a" true (List.mem [ "a" ] words);
  Alcotest.(check bool) "has ab" true (List.mem [ "a"; "b" ] words)

(* ------------------------------------------------------------------ *)
(* NFA *)

let nfa_of ?(alphabet = [ "a"; "b"; "c" ]) src = Nfa.of_regex ~alphabet (re src)

let test_nfa_accepts () =
  let a = nfa_of "(a|b)*.c" in
  Alcotest.(check bool) "abc" true (Nfa.accepts a [ "a"; "b"; "c" ]);
  Alcotest.(check bool) "c" true (Nfa.accepts a [ "c" ]);
  Alcotest.(check bool) "empty" false (Nfa.accepts a []);
  Alcotest.(check bool) "unknown symbol" false (Nfa.accepts a [ "z" ])

let test_nfa_empty () =
  Alcotest.(check bool) "none" true (Nfa.is_empty (nfa_of "%none"));
  Alcotest.(check bool) "eps nonempty" false (Nfa.is_empty (nfa_of "%empty"));
  Alcotest.(check bool) "dead seq" true (Nfa.is_empty (nfa_of "a.%none"))

let test_nfa_product () =
  let a = nfa_of "a*.b" and b = nfa_of "a.a._" in
  let p = Nfa.product a b in
  (* Intersection: words of length 3 starting aa and ending b: aab *)
  Alcotest.(check bool) "aab" true (Nfa.accepts p [ "a"; "a"; "b" ]);
  Alcotest.(check bool) "ab" false (Nfa.accepts p [ "a"; "b" ]);
  Alcotest.(check bool) "nonempty" false (Nfa.is_empty p)

let test_nfa_prefix () =
  let a = Nfa.prefix_closure (nfa_of "a.b.c") in
  List.iter
    (fun (w, want) -> Alcotest.(check bool) (String.concat "" w) want (Nfa.accepts a w))
    [ ([], true); ([ "a" ], true); ([ "a"; "b" ], true); ([ "a"; "b"; "c" ], true);
      ([ "b" ], false); ([ "a"; "c" ], false) ]

let test_nfa_prefix_of_empty () =
  (* Prefix closure of ∅ is ∅ (no word has a prefix). *)
  Alcotest.(check bool) "still empty" true (Nfa.is_empty (Nfa.prefix_closure (nfa_of "%none")))

let test_nfa_some_word () =
  (match Nfa.some_word (nfa_of "a.b*.c") with
  | Some w -> Alcotest.(check (list string)) "shortest" [ "a"; "c" ] w
  | None -> Alcotest.fail "expected a word");
  Alcotest.(check bool) "empty language" true (Nfa.some_word (nfa_of "%none") = None)

let test_common_alphabet () =
  let alpha = Nfa.common_alphabet [ re "a.b"; re "b.c" ] in
  Alcotest.(check bool) "has a" true (List.mem "a" alpha);
  Alcotest.(check bool) "has other" true (List.mem Nfa.other_symbol alpha);
  Alcotest.(check int) "no duplicates" 4 (List.length alpha)

(* The paper's Prop. 3 example: //a and prefixes of //b intersect (a word
   ending in a can be the prefix of a word ending in b). *)
let test_influence_example () =
  let desc s = Regex.seq [ Regex.Star Regex.Any; Regex.Sym s ] in
  let alpha = Nfa.common_alphabet [ desc "a"; desc "b" ] in
  let a = Nfa.of_regex ~alphabet:alpha (desc "a") in
  let b_pref = Nfa.prefix_closure (Nfa.of_regex ~alphabet:alpha (desc "b")) in
  Alcotest.(check bool) "//a may influence //b" true (Nfa.intersects a b_pref);
  (* But /a and /b do not intersect at all (independence condition ★). *)
  let child s = Nfa.of_regex ~alphabet:alpha (Regex.Sym s) in
  Alcotest.(check bool) "a ∩ b empty" false (Nfa.intersects (child "a") (child "b"))

(* ------------------------------------------------------------------ *)
(* DFA *)

let dfa_of ?(alphabet = [ "a"; "b"; "c" ]) src = Dfa.of_regex ~alphabet (re src)

let test_dfa_accepts () =
  let d = dfa_of "(a|b)*.c" in
  Alcotest.(check bool) "abc" true (Dfa.accepts d [ "a"; "b"; "c" ]);
  Alcotest.(check bool) "no" false (Dfa.accepts d [ "a" ])

let test_dfa_complement () =
  let d = Dfa.complement (dfa_of "a*") in
  Alcotest.(check bool) "a rejected" false (Dfa.accepts d [ "a" ]);
  Alcotest.(check bool) "b accepted" true (Dfa.accepts d [ "b" ])

let test_dfa_equal () =
  Alcotest.(check bool) "a|b = b|a" true (Dfa.equal (dfa_of "a|b") (dfa_of "b|a"));
  Alcotest.(check bool) "(a*)* = a*" true (Dfa.equal (dfa_of "(a*)*") (dfa_of "a*"));
  Alcotest.(check bool) "a <> a.a" false (Dfa.equal (dfa_of "a") (dfa_of "a.a"))

let test_dfa_subset () =
  Alcotest.(check bool) "a+ ⊆ a*" true (Dfa.subset (dfa_of "a+") (dfa_of "a*"));
  Alcotest.(check bool) "a* ⊄ a+" false (Dfa.subset (dfa_of "a*") (dfa_of "a+"))

let test_dfa_minimize () =
  let d = dfa_of "(a|b)*.(a|b)" in
  let m = Dfa.minimize d in
  Alcotest.(check bool) "same language" true (Dfa.equal d m);
  Alcotest.(check bool) "not larger" true (Dfa.size m <= Dfa.size d)

(* ------------------------------------------------------------------ *)
(* Properties: the three implementations agree *)

let gen_regex =
  let open QCheck.Gen in
  let sym = oneofl [ "a"; "b"; "c" ] in
  sized
  @@ fix (fun self n ->
         if n = 0 then
           frequency [ (4, map (fun s -> Regex.Sym s) sym); (1, return Regex.Any); (1, return Regex.Epsilon) ]
         else
           frequency
             [
               (2, map (fun s -> Regex.Sym s) sym);
               (2, map2 (fun a b -> Regex.Seq (a, b)) (self (n / 2)) (self (n / 2)));
               (2, map2 (fun a b -> Regex.Alt (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map (fun a -> Regex.Star a) (self (n / 2)));
               (1, map (fun a -> Regex.Plus a) (self (n / 2)));
               (1, map (fun a -> Regex.Opt a) (self (n / 2)));
             ])

let gen_word = QCheck.Gen.(list_size (int_bound 6) (oneofl [ "a"; "b"; "c" ]))

let arb_regex_word =
  QCheck.make
    ~print:(fun (r, w) -> Regex.to_string r ^ " on " ^ String.concat "." w)
    QCheck.Gen.(pair gen_regex gen_word)

let alphabet = [ "a"; "b"; "c" ]

let prop_nfa_matches_regex =
  QCheck.Test.make ~name:"NFA agrees with derivatives" ~count:1000 arb_regex_word
    (fun (r, w) ->
      Regex.matches r w = Nfa.accepts (Nfa.of_regex ~alphabet r) w)

let prop_dfa_matches_regex =
  QCheck.Test.make ~name:"DFA agrees with derivatives" ~count:500 arb_regex_word
    (fun (r, w) ->
      Regex.matches r w = Dfa.accepts (Dfa.of_regex ~alphabet r) w)

let prop_minimize_preserves =
  QCheck.Test.make ~name:"minimize preserves the language" ~count:300 arb_regex_word
    (fun (r, w) ->
      let d = Dfa.of_regex ~alphabet r in
      Dfa.accepts d w = Dfa.accepts (Dfa.minimize d) w)

let prop_product_is_intersection =
  QCheck.Test.make ~name:"NFA product = intersection" ~count:500
    (QCheck.make
       ~print:(fun ((a, b), w) ->
         Regex.to_string a ^ " & " ^ Regex.to_string b ^ " on " ^ String.concat "." w)
       QCheck.Gen.(pair (pair gen_regex gen_regex) gen_word))
    (fun ((ra, rb), w) ->
      let a = Nfa.of_regex ~alphabet ra and b = Nfa.of_regex ~alphabet rb in
      Nfa.accepts (Nfa.product a b) w = (Nfa.accepts a w && Nfa.accepts b w))

(* [intersects] explores the product on the fly; it must decide exactly
   what the materialized product's emptiness does, also against a
   prefix closure (the may-influence test). *)
let prop_intersects_is_nonempty_product =
  QCheck.Test.make ~name:"intersects = non-empty product" ~count:500
    (QCheck.make
       ~print:(fun (a, b) -> Regex.to_string a ^ " & " ^ Regex.to_string b)
       QCheck.Gen.(pair gen_regex gen_regex))
    (fun (ra, rb) ->
      let a = Nfa.of_regex ~alphabet ra and b = Nfa.of_regex ~alphabet rb in
      let pb = Nfa.prefix_closure b in
      Nfa.intersects a b = not (Nfa.is_empty (Nfa.product a b))
      && Nfa.intersects a pb = not (Nfa.is_empty (Nfa.product a pb)))

let prop_prefix_closure =
  QCheck.Test.make ~name:"prefix closure accepts every prefix" ~count:500 arb_regex_word
    (fun (r, w) ->
      let a = Nfa.of_regex ~alphabet r in
      let p = Nfa.prefix_closure a in
      (not (Nfa.accepts a w))
      ||
      let rec prefixes acc = function
        | [] -> [ List.rev acc ]
        | x :: rest -> List.rev acc :: prefixes (x :: acc) rest
      in
      List.for_all (Nfa.accepts p) (prefixes [] w))

let prop_complement_involution =
  QCheck.Test.make ~name:"DFA complement is an involution" ~count:300 arb_regex_word
    (fun (r, w) ->
      let d = Dfa.of_regex ~alphabet r in
      Dfa.accepts (Dfa.complement (Dfa.complement d)) w = Dfa.accepts d w)

let prop_complement_flips =
  QCheck.Test.make ~name:"complement flips membership" ~count:300 arb_regex_word
    (fun (r, w) ->
      let d = Dfa.of_regex ~alphabet r in
      Dfa.accepts (Dfa.complement d) w = not (Dfa.accepts d w))

let prop_subset_reflexive_and_equal =
  QCheck.Test.make ~name:"subset is reflexive; equal is symmetric" ~count:200
    (QCheck.make ~print:(fun (a, b) -> Regex.to_string a ^ " / " ^ Regex.to_string b)
       QCheck.Gen.(pair gen_regex gen_regex))
    (fun (ra, rb) ->
      let a = Dfa.of_regex ~alphabet ra and b = Dfa.of_regex ~alphabet rb in
      Dfa.subset a a && Dfa.equal a b = Dfa.equal b a)

let prop_enumerate_members =
  QCheck.Test.make ~name:"enumerated words are members" ~count:200
    (QCheck.make ~print:Regex.to_string gen_regex)
    (fun r ->
      List.for_all (Regex.matches r) (Regex.enumerate ~max_len:4 ~limit:50 ~alphabet r))

let prop_to_string_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string preserves the language" ~count:300
    arb_regex_word
    (fun (r, w) -> Regex.matches r w = Regex.matches (Regex.of_string (Regex.to_string r)) w)

let prop_is_empty_agrees =
  QCheck.Test.make ~name:"is_empty iff no enumerated word" ~count:300
    (QCheck.make ~print:Regex.to_string gen_regex)
    (fun r ->
      let nfa_empty = Nfa.is_empty (Nfa.of_regex ~alphabet r) in
      let words = Regex.enumerate ~max_len:5 ~limit:5 ~alphabet r in
      (* enumerate is complete up to length 5; a Glushkov automaton of our
         small regexes accepting only longer words is impossible when it
         has ≤ 5 states, but guard anyway via some_word. *)
      match Nfa.some_word (Nfa.of_regex ~alphabet r) with
      | None -> nfa_empty && words = []
      | Some w -> (not nfa_empty) && Regex.matches r w)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "automata"
    [
      ( "regex",
        [
          quick "parse basic" test_parse_basic;
          quick "parse precedence" test_parse_precedence;
          quick "schema example" test_parse_schema_example;
          quick "parse errors" test_parse_errors;
          quick "print roundtrip" test_print_roundtrip;
          quick "nullable" test_nullable;
          quick "matches" test_matches;
          quick "occurring symbols" test_occurring_symbols;
          quick "enumerate" test_enumerate;
        ] );
      ( "nfa",
        [
          quick "accepts" test_nfa_accepts;
          quick "emptiness" test_nfa_empty;
          quick "product" test_nfa_product;
          quick "prefix closure" test_nfa_prefix;
          quick "prefix of empty" test_nfa_prefix_of_empty;
          quick "some word" test_nfa_some_word;
          quick "common alphabet" test_common_alphabet;
          quick "influence example" test_influence_example;
        ] );
      ( "dfa",
        [
          quick "accepts" test_dfa_accepts;
          quick "complement" test_dfa_complement;
          quick "equal" test_dfa_equal;
          quick "subset" test_dfa_subset;
          quick "minimize" test_dfa_minimize;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_nfa_matches_regex;
          QCheck_alcotest.to_alcotest prop_dfa_matches_regex;
          QCheck_alcotest.to_alcotest prop_minimize_preserves;
          QCheck_alcotest.to_alcotest prop_product_is_intersection;
          QCheck_alcotest.to_alcotest prop_intersects_is_nonempty_product;
          QCheck_alcotest.to_alcotest prop_prefix_closure;
          QCheck_alcotest.to_alcotest prop_is_empty_agrees;
          QCheck_alcotest.to_alcotest prop_complement_involution;
          QCheck_alcotest.to_alcotest prop_complement_flips;
          QCheck_alcotest.to_alcotest prop_subset_reflexive_and_equal;
          QCheck_alcotest.to_alcotest prop_enumerate_members;
          QCheck_alcotest.to_alcotest prop_to_string_roundtrip;
        ] );
    ]
