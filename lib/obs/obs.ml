type t = { metrics : Metrics.t; trace : Trace.t }

let create ?(trace = Trace.null) () = { metrics = Metrics.create (); trace }

let metrics t = t.metrics
let trace t = t.trace

let trace_of = function None -> Trace.null | Some t -> t.trace

let metrics_of = function None -> None | Some t -> Some t.metrics
