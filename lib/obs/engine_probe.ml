module Engine = Softstate_sim.Engine

let attach ~obs engine =
  let m = Obs.metrics obs in
  Metrics.probe m "engine.events_fired" (fun ~now:_ ->
      float_of_int (Engine.events_fired engine));
  Metrics.probe m "engine.pending" (fun ~now:_ ->
      float_of_int (Engine.pending engine));
  Metrics.probe m "engine.calendar_high_water" (fun ~now:_ ->
      float_of_int (Engine.high_water engine))
