module Stats = Softstate_util.Stats

type empty_policy = Empty_is_consistent | Empty_is_zero | Empty_holds_last

(* An all-float record, so the per-event write stores the float flat
   instead of boxing it. *)
type held = { mutable last_defined : float }

type t = {
  empty_policy : empty_policy;
  receivers : int;
  tw : Stats.Timeweighted.t;
  latency : Stats.Welford.t;
  series : Stats.Series.t option;
  mutable live : int;
  mutable matching : int; (* matching (record, receiver) pairs *)
  held : held;
  mutable transmissions : int;
  mutable redundant : int;
}

let create ?(empty_policy = Empty_is_consistent) ?(record_series = false)
    ?(receivers = 1) ~now () =
  if receivers < 1 then invalid_arg "Consistency.create: receivers >= 1";
  let t =
    { empty_policy; receivers;
      tw = Stats.Timeweighted.create ();
      latency = Stats.Welford.create ();
      series =
        (if record_series then Some (Stats.Series.create ())
         else None);
      live = 0; matching = 0; held = { last_defined = 1.0 }; transmissions = 0;
      redundant = 0 }
  in
  Stats.Timeweighted.update t.tw ~now
    ~value:(match empty_policy with Empty_is_zero -> 0.0 | _ -> 1.0);
  t

let instantaneous t =
  if t.live > 0 then
    float_of_int t.matching /. float_of_int (t.live * t.receivers)
  else
    match t.empty_policy with
    | Empty_is_consistent -> 1.0
    | Empty_is_zero -> 0.0
    | Empty_holds_last -> t.held.last_defined

let note t ~now =
  let c = instantaneous t in
  if t.live > 0 then t.held.last_defined <- c;
  Stats.Timeweighted.update t.tw ~now ~value:c;
  match t.series with
  | Some s -> Stats.Series.add s ~time:now ~value:c
  | None -> ()

let on_birth t ~now =
  t.live <- t.live + 1;
  note t ~now

let on_update t ~now ~matching =
  assert (matching >= 0 && matching <= t.receivers);
  assert (t.matching >= matching);
  t.matching <- t.matching - matching;
  note t ~now

let on_match t ~now =
  t.matching <- t.matching + 1;
  assert (t.matching <= t.live * t.receivers);
  note t ~now

let on_unmatch t ~now =
  assert (t.matching > 0);
  t.matching <- t.matching - 1;
  note t ~now

let on_death t ~now ~matching =
  assert (t.live > 0);
  assert (matching >= 0 && matching <= t.receivers);
  assert (t.matching >= matching);
  t.live <- t.live - 1;
  t.matching <- t.matching - matching;
  note t ~now

let on_first_delivery t ~now ~born = Stats.Welford.add t.latency (now -. born)

let on_transmission t ~redundant =
  t.transmissions <- t.transmissions + 1;
  if redundant then t.redundant <- t.redundant + 1

let live t = t.live
let matching t = t.matching
let receivers t = t.receivers
let average t ~now = Stats.Timeweighted.average t.tw ~now
let latency t = t.latency
let transmissions t = t.transmissions

let redundancy t =
  if t.transmissions = 0 then nan
  else float_of_int t.redundant /. float_of_int t.transmissions

let series t =
  match t.series with None -> [] | Some s -> Stats.Series.to_list s
