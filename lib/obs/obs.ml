type t = { metrics : Metrics.t; trace : Trace.t }

let create ?(trace = Trace.null) () = { metrics = Metrics.create (); trace }

let metrics t = t.metrics

let trace_of = function None -> Trace.null | Some t -> t.trace
