type attr = Str of string | Int of int | Float of float | Bool of bool

type kind = Open | Close | Instant

type event = {
  kind : kind;
  id : int;
  parent : int;
  name : string;
  cat : string;
  wall : float;
  sim : float;
  attrs : (string * attr) list;
}

type t = {
  on : bool;
  clock : unit -> float;
  t0 : float;
  mu : Mutex.t;
      (* guards every mutable field: spans and instants may be recorded
         from pool workers and server connection threads *)
  mutable events : event list; (* newest first *)
  mutable next_id : int;
  mutable stack : int list; (* open span ids, innermost first *)
  mutable sim : float;
}

let null =
  { on = false; clock = (fun () -> 0.0); t0 = 0.0; mu = Mutex.create (); events = [];
    next_id = 0; stack = []; sim = 0.0 }

let create ?(clock = Unix.gettimeofday) () =
  { on = true; clock; t0 = clock (); mu = Mutex.create (); events = []; next_id = 0;
    stack = []; sim = 0.0 }

let enabled t = t.on

let advance t d = if t.on then Mutex.protect t.mu (fun () -> t.sim <- t.sim +. d)
let sim_now t = if t.on then Mutex.protect t.mu (fun () -> t.sim) else t.sim

type span = int

let none = -1

let record t kind id name cat attrs =
  let parent = match t.stack with [] -> -1 | p :: _ -> p in
  t.events <-
    { kind; id; parent; name; cat; wall = t.clock () -. t.t0; sim = t.sim; attrs } :: t.events

let open_span t ?(cat = "eval") ?(attrs = []) name =
  if not t.on then none
  else
    Mutex.protect t.mu (fun () ->
        let id = t.next_id in
        t.next_id <- id + 1;
        record t Open id name cat attrs;
        t.stack <- id :: t.stack;
        id)

let close_span t ?(attrs = []) span =
  if t.on && span >= 0 then
    Mutex.protect t.mu (fun () ->
        (* the id identifies the span; the parent field of a Close is the
           span it closes out of, i.e. the span itself *)
        t.stack <- List.filter (fun id -> id <> span) t.stack;
        t.events <-
          { kind = Close; id = span; parent = span; name = ""; cat = "";
            wall = t.clock () -. t.t0; sim = t.sim; attrs }
          :: t.events)

let with_span t ?cat ?attrs name f =
  if not t.on then f ()
  else begin
    let s = open_span t ?cat ?attrs name in
    match f () with
    | v ->
      close_span t s;
      v
    | exception e ->
      close_span t ~attrs:[ ("raised", Str (Printexc.to_string e)) ] s;
      raise e
  end

let instant t ?(cat = "eval") ?(attrs = []) name =
  if t.on then
    Mutex.protect t.mu (fun () ->
        let id = t.next_id in
        t.next_id <- id + 1;
        record t Instant id name cat attrs)

let events t = if t.on then Mutex.protect t.mu (fun () -> List.rev t.events) else []

(* ------------------------------------------------------------------ *)
(* Fragments: per-task sinks for concurrent batch members.

   A worker must not record straight into the parent sink — concurrent
   opens would interleave on the shared span stack and break the strict
   LIFO nesting the span algebra (and every consumer) relies on.
   Instead each batch member records into a private [fragment] sharing
   the parent's clock and epoch, and the sequential phase that follows
   the join splices the fragments back with [absorb], one after the
   other in input order. Clamping each absorbed event's clocks to the
   running maximum keeps the merged sequence monotone; on the simulated
   timeline the clamp realizes exactly the §4.4 parallel accounting —
   the batch ends at [base + max(member costs)], not at the sum. *)

let fragment parent =
  if not parent.on then null
  else
    let sim = Mutex.protect parent.mu (fun () -> parent.sim) in
    { on = true; clock = parent.clock; t0 = parent.t0; mu = Mutex.create (); events = [];
      next_id = 0; stack = []; sim }

let absorb parent frag =
  if parent.on && frag.on && frag != parent && frag.events <> [] then
    Mutex.protect parent.mu (fun () ->
        let offset = parent.next_id in
        let base_parent = match parent.stack with [] -> -1 | p :: _ -> p in
        let last_wall =
          ref (match parent.events with [] -> neg_infinity | e :: _ -> e.wall)
        and last_sim =
          ref (match parent.events with [] -> neg_infinity | e :: _ -> e.sim)
        in
        let remap ev =
          let id = if ev.id >= 0 then ev.id + offset else ev.id in
          let parent_id =
            match ev.kind with
            | Close -> id (* a Close's parent is the span itself *)
            | Open | Instant ->
              if ev.parent >= 0 then ev.parent + offset else base_parent
          in
          let wall = Float.max ev.wall !last_wall in
          let sim = Float.max ev.sim !last_sim in
          last_wall := wall;
          last_sim := sim;
          { ev with id; parent = parent_id; wall; sim }
        in
        (* clamp in chronological order, then prepend newest-first *)
        let remapped =
          List.fold_left (fun acc ev -> remap ev :: acc) [] (List.rev frag.events)
        in
        parent.events <- remapped @ parent.events;
        parent.next_id <- parent.next_id + frag.next_id;
        parent.sim <- Float.max parent.sim !last_sim)

(* ------------------------------------------------------------------ *)
(* Well-formedness and tree building *)

(* merge a-over-b: keys of [over] win *)
let merge_attrs base over =
  over @ List.filter (fun (k, _) -> not (List.mem_assoc k over)) base

type node = {
  node_name : string;
  node_cat : string;
  node_attrs : (string * attr) list;
  wall_start : float;
  wall_end : float;
  sim_start : float;
  sim_end : float;
  children : node list;
}

type partial = {
  p_id : int;
  p_name : string;
  p_cat : string;
  p_attrs : (string * attr) list;
  p_wall : float;
  p_sim : float;
  mutable p_children : node list; (* reversed *)
}

let tree_of_events evs =
  let roots = ref [] in
  let stack = ref [] in
  let last_wall = ref neg_infinity and last_sim = ref neg_infinity in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let attach n =
    match !stack with [] -> roots := n :: !roots | p :: _ -> p.p_children <- n :: p.p_children
  in
  let rec go = function
    | [] ->
      if !stack <> [] then
        err "%d span(s) left open (innermost: %s)" (List.length !stack)
          (match !stack with p :: _ -> p.p_name | [] -> "?")
      else Ok (List.rev !roots)
    | ev :: rest ->
      if ev.wall < !last_wall then err "wall clock went backwards at event %d" ev.id
      else if ev.sim < !last_sim -. 1e-9 then err "simulated clock went backwards at event %d" ev.id
      else begin
        last_wall := ev.wall;
        last_sim := ev.sim;
        match ev.kind with
        | Open ->
          stack :=
            { p_id = ev.id; p_name = ev.name; p_cat = ev.cat; p_attrs = ev.attrs;
              p_wall = ev.wall; p_sim = ev.sim; p_children = [] }
            :: !stack;
          go rest
        | Close -> (
          match !stack with
          | [] -> err "close of span %d with no span open" ev.id
          | p :: up ->
            if p.p_id <> ev.id then
              err "span %d closed while %s (%d) is still open: spans must nest" ev.id p.p_name
                p.p_id
            else begin
              stack := up;
              attach
                { node_name = p.p_name; node_cat = p.p_cat;
                  node_attrs = merge_attrs p.p_attrs ev.attrs; wall_start = p.p_wall;
                  wall_end = ev.wall; sim_start = p.p_sim; sim_end = ev.sim;
                  children = List.rev p.p_children };
              go rest
            end)
        | Instant ->
          attach
            { node_name = ev.name; node_cat = ev.cat; node_attrs = ev.attrs; wall_start = ev.wall;
              wall_end = ev.wall; sim_start = ev.sim; sim_end = ev.sim; children = [] };
          go rest
      end
  in
  go evs

let tree t = tree_of_events (events t)

let well_formed t =
  if not t.on then Ok () else Result.map (fun _ -> ()) (tree t)

(* ------------------------------------------------------------------ *)
(* Serialization *)

let attr_to_json = function
  | Str s -> Json.String s
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b

let attr_of_json = function
  | Json.String s -> Some (Str s)
  | Json.Int i -> Some (Int i)
  | Json.Float f -> Some (Float f)
  | Json.Bool b -> Some (Bool b)
  | Json.Null | Json.List _ | Json.Obj _ -> None

let attrs_json attrs = Json.Obj (List.map (fun (k, v) -> (k, attr_to_json v)) attrs)

let event_to_json ev =
  Json.Obj
    [
      ("ev", Json.String (match ev.kind with Open -> "open" | Close -> "close" | Instant -> "instant"));
      ("id", Json.Int ev.id);
      ("parent", Json.Int ev.parent);
      ("name", Json.String ev.name);
      ("cat", Json.String ev.cat);
      ("wall", Json.Float ev.wall);
      ("sim", Json.Float ev.sim);
      ("attrs", attrs_json ev.attrs);
    ]

let event_of_json j =
  let open Json in
  let str k = Option.value ~default:"" (string_value (member k j)) in
  let num k = Option.value ~default:0.0 (float_value (member k j)) in
  match string_value (member "ev" j) with
  | None -> Error "event without \"ev\" field"
  | Some kind_s ->
    let kind =
      match kind_s with
      | "open" -> Some Open
      | "close" -> Some Close
      | "instant" -> Some Instant
      | _ -> None
    in
    (match kind with
    | None -> Error (Printf.sprintf "unknown event kind %S" kind_s)
    | Some kind ->
      let attrs =
        match member "attrs" j with
        | Obj fields ->
          List.filter_map (fun (k, v) -> Option.map (fun a -> (k, a)) (attr_of_json v)) fields
        | _ -> []
      in
      Ok
        {
          kind;
          id = Option.value ~default:(-1) (int_value (member "id" j));
          parent = Option.value ~default:(-1) (int_value (member "parent" j));
          name = str "name";
          cat = str "cat";
          wall = num "wall";
          sim = num "sim";
          attrs;
        })

let to_jsonl t = List.map event_to_json (events t)

(* Chrome trace_event: duration (B/E) pairs on two threads — tid 1 runs
   on the wall clock, tid 2 on the simulated clock; the other clock's
   reading rides along under args so loading can recover both. *)
let to_chrome t =
  let us x = Json.Float (x *. 1e6) in
  let base ~ph ~tid ~ts ev extra_args =
    Json.Obj
      ([
         ("name", Json.String ev.name);
         ("cat", Json.String (if ev.cat = "" then "axml" else ev.cat));
         ("ph", Json.String ph);
         ("ts", us ts);
         ("pid", Json.Int 1);
         ("tid", Json.Int tid);
       ]
      @ (match ph with "i" -> [ ("s", Json.String "t") ] | _ -> [])
      @ [ ("args", Json.Obj (extra_args @ List.map (fun (k, v) -> (k, attr_to_json v)) ev.attrs)) ])
  in
  let out = ref [] in
  let emit j = out := j :: !out in
  let emit_both ~ph ev =
    emit (base ~ph ~tid:1 ~ts:ev.wall ev [ ("sim", Json.Float ev.sim) ]);
    emit (base ~ph ~tid:2 ~ts:ev.sim ev [ ("wall", Json.Float ev.wall) ])
  in
  (* thread metadata so the two timelines are labeled in the viewer *)
  List.iter
    (fun (tid, label) ->
      emit
        (Json.Obj
           [
             ("name", Json.String "thread_name");
             ("ph", Json.String "M");
             ("pid", Json.Int 1);
             ("tid", Json.Int tid);
             ("args", Json.Obj [ ("name", Json.String label) ]);
           ]))
    [ (1, "wall clock"); (2, "simulated clock") ];
  (* names for Close events come from their Open *)
  let open_names = Hashtbl.create 64 in
  let stack = ref [] in
  let last = ref None in
  List.iter
    (fun ev ->
      last := Some ev;
      match ev.kind with
      | Open ->
        Hashtbl.replace open_names ev.id (ev.name, ev.cat);
        stack := ev :: !stack;
        emit_both ~ph:"B" ev
      | Close ->
        let name, cat =
          match Hashtbl.find_opt open_names ev.id with Some nc -> nc | None -> ("?", "axml")
        in
        stack := List.filter (fun (o : event) -> o.id <> ev.id) !stack;
        emit_both ~ph:"E" { ev with name; cat }
      | Instant -> emit_both ~ph:"i" ev)
    (events t);
  (* close anything still open so partial traces remain loadable *)
  (match !last with
  | None -> ()
  | Some last ->
    List.iter
      (fun (o : event) ->
        emit_both ~ph:"E" { o with kind = Close; wall = last.wall; sim = last.sim; attrs = [] })
      !stack);
  Json.Obj [ ("traceEvents", Json.List (List.rev !out)); ("displayTimeUnit", Json.String "ms") ]

let write_jsonl path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun j ->
          Json.to_channel oc j;
          output_char oc '\n')
        (to_jsonl t))

let write_chrome path t = Json.write_file path (to_chrome t)

(* ------------------------------------------------------------------ *)
(* Loading *)

let nodes_of_chrome json =
  let evs =
    match Json.member "traceEvents" json with
    | Json.List evs -> evs
    | _ -> ( match json with Json.List evs -> evs | _ -> [])
  in
  if evs = [] then Error "no traceEvents found"
  else begin
    (* replay the wall-clock thread (tid 1); B/E match by nesting *)
    let roots = ref [] and stack = ref [] in
    let attach n =
      match !stack with [] -> roots := n :: !roots | p :: _ -> p.p_children <- n :: p.p_children
    in
    let exception Bad of string in
    try
      List.iter
        (fun ev ->
          let ph = Option.value ~default:"" (Json.string_value (Json.member "ph" ev)) in
          let tid = Option.value ~default:1 (Json.int_value (Json.member "tid" ev)) in
          if tid = 1 && (ph = "B" || ph = "E" || ph = "i") then begin
            let name = Option.value ~default:"?" (Json.string_value (Json.member "name" ev)) in
            let cat = Option.value ~default:"" (Json.string_value (Json.member "cat" ev)) in
            let wall =
              Option.value ~default:0.0 (Json.float_value (Json.member "ts" ev)) /. 1e6
            in
            let args = Json.member "args" ev in
            let sim = Option.value ~default:0.0 (Json.float_value (Json.member "sim" args)) in
            let attrs =
              match args with
              | Json.Obj fields ->
                List.filter_map
                  (fun (k, v) ->
                    if k = "sim" || k = "wall" then None
                    else Option.map (fun a -> (k, a)) (attr_of_json v))
                  fields
              | _ -> []
            in
            match ph with
            | "B" ->
              stack :=
                { p_id = 0; p_name = name; p_cat = cat; p_attrs = attrs; p_wall = wall;
                  p_sim = sim; p_children = [] }
                :: !stack
            | "E" -> (
              match !stack with
              | [] -> raise (Bad "end event with no begin")
              | p :: up ->
                stack := up;
                attach
                  { node_name = p.p_name; node_cat = p.p_cat;
                    node_attrs = merge_attrs p.p_attrs attrs; wall_start = p.p_wall;
                    wall_end = wall; sim_start = p.p_sim; sim_end = sim;
                    children = List.rev p.p_children })
            | _ ->
              attach
                { node_name = name; node_cat = cat; node_attrs = attrs; wall_start = wall;
                  wall_end = wall; sim_start = sim; sim_end = sim; children = [] }
          end)
        evs;
      if !stack <> [] then Error "unbalanced begin/end events" else Ok (List.rev !roots)
    with Bad m -> Error m
  end

let load_file path =
  (* a Chrome trace is one JSON document; a JSONL log is one per line *)
  match Json.parse_file path with
  | Ok json -> nodes_of_chrome json
  | Error _ -> (
    match Json.parse_lines path with
    | Error m -> Error m
    | Ok lines -> (
      let rec convert acc = function
        | [] -> Ok (List.rev acc)
        | j :: rest -> (
          match event_of_json j with Ok ev -> convert (ev :: acc) rest | Error m -> Error m)
      in
      match convert [] lines with
      | Error m -> Error (path ^ ": " ^ m)
      | Ok evs -> tree_of_events evs))

(* ------------------------------------------------------------------ *)
(* Pretty-printing *)

let rec rollup_int key n =
  (match List.assoc_opt key n.node_attrs with Some (Int i) -> i | _ -> 0)
  + List.fold_left (fun acc c -> acc + rollup_int key c) 0 n.children

let rec span_count n = 1 + List.fold_left (fun acc c -> acc + span_count c) 0 n.children

let pp_duration ppf d =
  if d < 0.0005 then Format.fprintf ppf "%.0fµs" (d *. 1e6)
  else if d < 1.0 then Format.fprintf ppf "%.1fms" (d *. 1e3)
  else Format.fprintf ppf "%.3fs" d

let pp_attr ppf (k, v) =
  match v with
  | Str s -> Format.fprintf ppf "%s=%s" k s
  | Int i -> Format.fprintf ppf "%s=%d" k i
  | Float f -> Format.fprintf ppf "%s=%g" k f
  | Bool b -> Format.fprintf ppf "%s=%b" k b

let pp_forest ppf forest =
  let rec pp_node prefix child_prefix n =
    Format.fprintf ppf "%s%s" prefix n.node_name;
    List.iter (fun a -> Format.fprintf ppf " %a" pp_attr a) n.node_attrs;
    Format.fprintf ppf "  [wall %a" pp_duration (n.wall_end -. n.wall_start);
    if n.sim_end -. n.sim_start > 0.0 then
      Format.fprintf ppf ", sim %a" pp_duration (n.sim_end -. n.sim_start);
    let descendants = span_count n - 1 in
    if descendants > 0 then Format.fprintf ppf ", %d span(s)" descendants;
    let bytes = rollup_int "bytes" n in
    if bytes > 0 && not (List.mem_assoc "bytes" n.node_attrs) then
      Format.fprintf ppf ", %d B" bytes;
    Format.fprintf ppf "]@.";
    let rec children = function
      | [] -> ()
      | [ last ] -> pp_node (child_prefix ^ "`- ") (child_prefix ^ "   ") last
      | c :: rest ->
        pp_node (child_prefix ^ "|- ") (child_prefix ^ "|  ") c;
        children rest
    in
    children n.children
  in
  List.iter (fun n -> pp_node "" "" n) forest
