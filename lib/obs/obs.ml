type t = {
  trace : Trace.t;
  metrics : Metrics.t;
}

let null = { trace = Trace.null; metrics = Metrics.null }

let create ?clock () = { trace = Trace.create ?clock (); metrics = Metrics.create () }
let measuring () = { trace = Trace.null; metrics = Metrics.create () }

let enabled t = Trace.enabled t.trace || Metrics.enabled t.metrics

(* Metrics are shared (the registry is mutex-guarded and counters
   commute); only the tracer needs a private fragment per worker. *)
let fork t =
  if Trace.enabled t.trace then { t with trace = Trace.fragment t.trace } else t

let join parent child =
  if child.trace != parent.trace then Trace.absorb parent.trace child.trace
