module Engine = Softstate_sim.Engine
module Rng = Softstate_util.Rng

type announcement = {
  key : Record.key;
  version : Record.version;
  seq : int;
}

type death_spec =
  | Per_service of float
  | Lifetime_fixed of float
  | Lifetime_exp of float

type expiry_spec =
  | No_expiry
  | Refresh_timeout of { multiple : float; sweep_period : float }
  | Refresh_wheel of { multiple : float }

let f17 = Printf.sprintf "%.17g"

let expiry_to_string = function
  | No_expiry -> "none"
  | Refresh_timeout { multiple; sweep_period } ->
      Printf.sprintf "refresh:%s:%s" (f17 multiple) (f17 sweep_period)
  | Refresh_wheel { multiple } -> Printf.sprintf "wheel:%s" (f17 multiple)

(* Guards are negated comparisons so that NaN is rejected too. *)
let expiry_problem = function
  | (Refresh_timeout { multiple; _ } | Refresh_wheel { multiple })
    when not (multiple > 1.0 && Float.is_finite multiple) ->
      Some "expiry multiple must exceed 1"
  | Refresh_timeout { sweep_period; _ }
    when not (sweep_period > 0.0 && Float.is_finite sweep_period) ->
      Some "sweep period must be positive"
  | No_expiry | Refresh_timeout _ | Refresh_wheel _ -> None

let expiry_of_string s =
  let parsed =
    match String.split_on_char ':' s with
    | [ "none" ] -> Some No_expiry
    | [ ("refresh" | "sweep"); m; p ] -> (
        match (float_of_string_opt m, float_of_string_opt p) with
        | Some multiple, Some sweep_period ->
            Some (Refresh_timeout { multiple; sweep_period })
        | _ -> None)
    | [ "wheel"; m ] ->
        Option.map (fun multiple -> Refresh_wheel { multiple })
          (float_of_string_opt m)
    | _ -> None
  in
  match parsed with
  | None -> Error ("bad expiry " ^ s)
  | Some e -> (
      match expiry_problem e with
      | None -> Ok e
      | Some problem -> Error (Printf.sprintf "bad expiry %s: %s" s problem))

let death_to_string = function
  | Per_service p -> Printf.sprintf "service:%s" (f17 p)
  | Lifetime_fixed ttl -> Printf.sprintf "fixed:%s" (f17 ttl)
  | Lifetime_exp mean -> Printf.sprintf "exp:%s" (f17 mean)

(* Negated comparisons again, so NaN lifetimes and probabilities are
   problems too. *)
let death_problem = function
  | Per_service p when not (p > 0.0 && p <= 1.0) ->
      Some "per-service death probability in (0,1]"
  | (Lifetime_fixed ttl | Lifetime_exp ttl)
    when not (ttl > 0.0 && Float.is_finite ttl) ->
      Some "lifetime must be positive and finite"
  | Per_service _ | Lifetime_fixed _ | Lifetime_exp _ -> None

let death_of_string s =
  let parsed =
    match String.split_on_char ':' s with
    | [ "service"; p ] ->
        Option.map (fun p -> Per_service p) (float_of_string_opt p)
    | [ "fixed"; t ] ->
        Option.map (fun t -> Lifetime_fixed t) (float_of_string_opt t)
    | [ "exp"; m ] ->
        Option.map (fun m -> Lifetime_exp m) (float_of_string_opt m)
    | _ -> None
  in
  match parsed with
  | None -> Error ("bad death " ^ s)
  | Some d -> (
      match death_problem d with
      | None -> Ok d
      | Some problem -> Error (Printf.sprintf "bad death %s: %s" s problem))

(* Struct-of-arrays receiver state, one per receiver, indexed by the
   record's dense Table slot: one row of parallel arrays instead of
   one boxed entry per (receiver, key). [gap_a] is the scalable-timer
   estimate of the sender's refresh interval for the key (EWMA of
   observed inter-announcement gaps); [nan] until two announcements
   have been heard. Rows relocate in lockstep with Table's
   swap-remove, and rows at slots >= live are always cleared. Slots
   beyond the current capacity are implicitly absent — arrays only
   grow when a delivery actually writes that far. Flag bits: bit 0 =
   copy present, bit 1 = a wheel expiry timer is armed. *)
type soa = {
  mutable version_a : Record.version array;
  mutable last_heard_a : float array;
  mutable gap_a : float array;
  mutable flags : Bytes.t;
}

type t = {
  engine : Engine.t;
  arrival_rng : Rng.t;
  death_rng : Rng.t;
  update_rng : Rng.t;
  table : Table.t;
  rows : soa array;
  tracker : Consistency.t;
  workload : Workload.t;
  death : death_spec;
  expiry : expiry_spec;
  mutable next_key : int;
  mutable on_arrival : Record.t -> unit;
  mutable on_death : Record.t -> unit;
  mutable hooks_set : bool;
  mutable false_expiries : int;
  mutable stale_purged : int;
}

let validate_death d =
  match death_problem d with
  | None -> ()
  | Some problem -> invalid_arg ("Base.create: " ^ problem)

let validate_expiry e =
  match expiry_problem e with
  | None -> ()
  | Some problem -> invalid_arg ("Base.create: " ^ problem)

let soa_create () =
  { version_a = Array.make 256 0;
    last_heard_a = Array.make 256 0.0;
    gap_a = Array.make 256 nan;
    flags = Bytes.make 256 '\000' }

let soa_capacity soa = Array.length soa.version_a

let soa_ensure soa slot =
  let cap = soa_capacity soa in
  if slot >= cap then begin
    let ncap = ref (2 * cap) in
    while slot >= !ncap do
      ncap := 2 * !ncap
    done;
    let ncap = !ncap in
    let grow_int a =
      let g = Array.make ncap 0 in
      Array.blit a 0 g 0 cap;
      g
    in
    let grow_float a fill =
      let g = Array.make ncap fill in
      Array.blit a 0 g 0 cap;
      g
    in
    soa.version_a <- grow_int soa.version_a;
    soa.last_heard_a <- grow_float soa.last_heard_a 0.0;
    soa.gap_a <- grow_float soa.gap_a nan;
    let nf = Bytes.make ncap '\000' in
    Bytes.blit soa.flags 0 nf 0 cap;
    soa.flags <- nf
  end

let soa_present soa slot =
  slot < soa_capacity soa && Bytes.get_uint8 soa.flags slot land 1 <> 0

let soa_has_gap soa slot =
  soa_present soa slot && not (Float.is_nan soa.gap_a.(slot))

let soa_armed soa slot =
  slot < soa_capacity soa && Bytes.get_uint8 soa.flags slot land 2 <> 0

let soa_set_flags soa slot ~present ~armed =
  Bytes.set_uint8 soa.flags slot
    ((if present then 1 else 0) lor if armed then 2 else 0)

(* Clear the row a dying record occupied and mirror Table's
   swap-remove: the last slot's row moves into the vacated slot so
   row index keeps tracking table slot. Called after [Table.remove];
   [slot] is the dying record's slot before removal and [last_slot]
   the pre-removal last slot. *)
let soa_on_remove soa ~slot ~last_slot =
  let cap = soa_capacity soa in
  if slot <> last_slot && last_slot < cap then begin
    (* slot < last_slot < cap: the vacated row is in range *)
    soa.version_a.(slot) <- soa.version_a.(last_slot);
    soa.last_heard_a.(slot) <- soa.last_heard_a.(last_slot);
    soa.gap_a.(slot) <- soa.gap_a.(last_slot);
    Bytes.set_uint8 soa.flags slot (Bytes.get_uint8 soa.flags last_slot);
    Bytes.set_uint8 soa.flags last_slot 0
  end
  else if slot < cap then
    (* either the dying record held the last slot, or the moved-in
       key's row lies beyond capacity (implicitly absent): the vacated
       row just clears *)
    Bytes.set_uint8 soa.flags slot 0

let create ~engine ~rng ~workload ~death ?(receivers = 1)
    ?(expiry = No_expiry) ~tracker () =
  validate_death death;
  validate_expiry expiry;
  if receivers < 1 then invalid_arg "Base.create: receivers >= 1";
  if Consistency.receivers tracker <> receivers then
    invalid_arg "Base.create: tracker sized for a different group";
  { engine;
    arrival_rng = Rng.split rng;
    death_rng = Rng.split rng;
    update_rng = Rng.split rng;
    table = Table.create ();
    rows = Array.init receivers (fun _ -> soa_create ());
    tracker; workload; death; expiry; next_key = 0;
    on_arrival = ignore; on_death = ignore; hooks_set = false;
    false_expiries = 0; stale_purged = 0 }

let set_hooks t ~on_arrival ~on_death =
  t.on_arrival <- on_arrival;
  t.on_death <- on_death;
  t.hooks_set <- true

let engine t = t.engine
let table t = t.table

let receiver_count t = Array.length t.rows

let false_expiries t = t.false_expiries
let stale_purged t = t.stale_purged

let check_receiver t receiver =
  if receiver < 0 || receiver >= receiver_count t then
    invalid_arg "Base: receiver index out of range"

let receiver_version t ~receiver key =
  check_receiver t receiver;
  let soa = t.rows.(receiver) in
  match Table.slot_of_key t.table key with
  | Some slot when soa_present soa slot -> Some soa.version_a.(slot)
  | Some _ | None -> None

let is_matching t ~receiver r =
  match receiver_version t ~receiver r.Record.key with
  | Some v -> v = r.Record.version
  | None -> false

(* Receivers holding the record's current version, in O(1): the
   record's own count, which [note_match] raises, [unmatch] lowers on
   a false expiry of a matching copy, and [Record.touch] zeroes. A
   dead record's count is not kept, so it reads 0 once the slot is
   gone. *)
let matching_count r = if r.Record.slot >= 0 then r.Record.matching else 0

(* A matching copy at some receiver was expired. *)
let unmatch t ~now r =
  r.Record.matching <- r.Record.matching - 1;
  Consistency.on_unmatch t.tracker ~now

let remove_record t ~now r =
  (* read while the key still has a slot *)
  let matching = matching_count r in
  let key = r.Record.key in
  (* Slot-indexed rows cannot outlive the slot: the dying record's row
     is reclaimed here, in lockstep with Table's swap-remove. That
     reclaim is the soft-state garbage collection: under the sweep,
     each copy with a gap estimate (one the sweep could expire) counts
     as a stale purge now; under the wheel, an armed timer for the
     dead key stays on the engine calendar and is counted when it
     fires. *)
  let slot = r.Record.slot in
  assert (slot >= 0);
  let last_slot = Table.live_count t.table - 1 in
  ignore (Table.remove t.table key);
  let count_purges =
    match t.expiry with
    | Refresh_timeout _ -> true
    | No_expiry | Refresh_wheel _ -> false
  in
  Array.iter
    (fun soa ->
      if count_purges && soa_has_gap soa slot then
        t.stale_purged <- t.stale_purged + 1;
      soa_on_remove soa ~slot ~last_slot)
    t.rows;
  Consistency.on_death t.tracker ~now ~matching;
  t.on_death r

let schedule_expiry t r =
  let schedule_kill after =
    Engine.schedule t.engine ~after (fun engine ->
        (* The key may have died early (e.g. explicit kill in
           tests); remove_record is only called on live records. *)
        match Table.find t.table r.Record.key with
        | Some live -> remove_record t ~now:(Engine.now engine) live
        | None -> ())
  in
  match t.death with
  | Per_service _ -> ()
  | Lifetime_fixed ttl -> schedule_kill ttl
  | Lifetime_exp mean ->
      schedule_kill
        (Softstate_util.Dist.exponential t.death_rng ~rate:(1.0 /. mean))

let arrival t =
  let now = Engine.now t.engine in
  let live = Table.live_count t.table in
  let update_target =
    if Workload.is_update t.workload t.update_rng && live > 0 then
      let slot =
        match Workload.shape t.workload with
        | Workload.Flash_crowd { zipf_s; _ } when zipf_s > 0.0 ->
            (* popularity-skewed target: Zipf rank over the dense slot
               order, so rank 1 is whichever key currently sits in slot
               0 — the "hot" identity churns with swap-removal, which is
               exactly the flash-crowd shape we want to stress *)
            Softstate_util.Dist.zipf_approx t.update_rng ~n:live ~s:zipf_s - 1
        | Workload.Flash_crowd _ | Workload.Poisson -> Rng.int t.update_rng live
      in
      Some (Table.record_at t.table slot)
    else None
  in
  match update_target with
  | Some r ->
      let matching = matching_count r in
      Record.touch r ~now;
      Consistency.on_update t.tracker ~now ~matching;
      t.on_arrival r
  | None ->
      let key = t.next_key in
      t.next_key <- key + 1;
      let r = Record.make ~key ~now ~size_bits:t.workload.Workload.size_bits in
      Table.insert t.table r;
      Consistency.on_birth t.tracker ~now;
      schedule_expiry t r;
      t.on_arrival r

(* One expiry sweep over one receiver's soft state: a scan of the live
   slots, so O(live keys). A record is expired after [multiple]
   estimated refresh intervals of silence; without a gap estimate
   (heard fewer than twice) it is left alone. Every copy here belongs
   to a live record — dead keys' rows were reclaimed at death — so
   each expiry is a false one. *)
let sweep_receiver t ~now ~multiple soa =
  for slot = 0 to min (Table.live_count t.table) (soa_capacity soa) - 1 do
    if
      soa_has_gap soa slot
      && now -. soa.last_heard_a.(slot) > multiple *. soa.gap_a.(slot)
    then begin
      t.false_expiries <- t.false_expiries + 1;
      let r = Table.record_at t.table slot in
      let was_matching = soa.version_a.(slot) = r.Record.version in
      soa_set_flags soa slot ~present:false ~armed:false;
      if was_matching then unmatch t ~now r
    end
  done

(* --- wheel-based expiry -------------------------------------------

   One engine event per armed (receiver, key) timer, at its deadline.
   Timers are lazy-pushback: a delivery never reschedules an armed
   timer, it only refreshes the row; when the timer fires, the true
   deadline is recomputed from the row and the timer is pushed back if
   the record has been heard from since. A timer is armed exactly when
   the row's armed bit is set, so each (receiver, key) has at most one
   pending event.

   Contract vs the sweep: the timer fires at the deadline itself, so a
   record is expired when now - last_heard >= multiple * gap (the
   sweep, sampling at sweep_period boundaries, tests with strict >
   some time after the deadline has passed). Under both, dead keys'
   copies are reclaimed at sender death; the wheel counts stale_purged
   when the orphaned timer fires, the sweep at the reclaim itself. *)

let wheel_multiple t =
  match t.expiry with
  | Refresh_wheel { multiple } -> multiple
  | No_expiry | Refresh_timeout _ -> assert false

(* The timer closure captures only [t], [receiver] and [key]: one is
   live per armed copy, so its size is per-key memory. *)
let rec arm_expiry t ~deadline receiver key =
  Engine.schedule_at t.engine ~time:deadline (fun engine ->
      fire_expiry t ~now:(Engine.now engine) receiver key)

and fire_expiry t ~now receiver key =
  match Table.slot_of_key t.table key with
  | None ->
      (* the record died at the sender; its row was reclaimed with the
         slot, and this orphaned timer is the purge event *)
      t.stale_purged <- t.stale_purged + 1
  | Some slot ->
      let soa = t.rows.(receiver) in
      if soa_present soa slot && soa_armed soa slot then begin
        let deadline =
          soa.last_heard_a.(slot)
          +. (wheel_multiple t *. soa.gap_a.(slot))
        in
        if deadline <= now then begin
          t.false_expiries <- t.false_expiries + 1;
          let r = Table.record_at t.table slot in
          let was_matching = soa.version_a.(slot) = r.Record.version in
          soa_set_flags soa slot ~present:false ~armed:false;
          if was_matching then unmatch t ~now r
        end
        else
          (* heard from since the timer was set: push back to the
             recomputed deadline (the armed bit stays set) *)
          arm_expiry t ~deadline receiver key
      end

let start t =
  if not t.hooks_set then failwith "Base.start: hooks not set";
  let rec tick engine =
    arrival t;
    Engine.schedule engine
      ~after:
        (Workload.next_interarrival_at t.workload ~now:(Engine.now engine)
           t.arrival_rng)
      tick
  in
  Engine.schedule t.engine
    ~after:
      (Workload.next_interarrival_at t.workload ~now:(Engine.now t.engine)
         t.arrival_rng)
    tick;
  match t.expiry with
  | No_expiry -> ()
  | Refresh_wheel _ ->
      (* timers are armed per-row as gap estimates form *)
      ()
  | Refresh_timeout { multiple; sweep_period } ->
      let (_ : unit -> bool) =
        Engine.every t.engine ~period:sweep_period (fun engine ->
            let now = Engine.now engine in
            Array.iter (sweep_receiver t ~now ~multiple) t.rows)
      in
      ()

let announce_of t ~seq r =
  Consistency.on_transmission t.tracker
    ~redundant:(matching_count r = receiver_count t);
  { key = r.Record.key; version = r.Record.version; seq }

(* A receiver has just stored the record's current version. *)
let note_match t ~now r =
  r.Record.matching <- r.Record.matching + 1;
  Consistency.on_match t.tracker ~now;
  (* latency is sampled once per version, at its first arrival
     anywhere in the group *)
  if r.Record.matching = 1 then
    Consistency.on_first_delivery t.tracker ~now ~born:r.Record.born

let deliver t ~now ~receiver ann =
  check_receiver t receiver;
  (* Announcements of dead keys are absorbed without storing: a real
     subscriber would cache and expire them, with no effect on the
     consistency metric (only live keys count); dropping them here
     keeps the receiver state bounded by the live set. *)
  match Table.find t.table ann.key with
  | None -> ()
  | Some r ->
      let current = r.Record.version = ann.version in
      let slot = r.Record.slot in
      let soa = t.rows.(receiver) in
      soa_ensure soa slot;
      if not (soa_present soa slot) then begin
        soa.version_a.(slot) <- ann.version;
        soa.last_heard_a.(slot) <- now;
        soa.gap_a.(slot) <- nan;
        soa_set_flags soa slot ~present:true ~armed:false;
        if current then note_match t ~now r
      end
      else begin
        (* scalable-timers gap estimation: EWMA of observed
           inter-announcement gaps, gain 0.25 *)
        let observed = now -. soa.last_heard_a.(slot) in
        let gap =
          if Float.is_nan soa.gap_a.(slot) then observed
          else (0.25 *. observed) +. (0.75 *. soa.gap_a.(slot))
        in
        soa.gap_a.(slot) <- gap;
        soa.last_heard_a.(slot) <- now;
        (match t.expiry with
        | Refresh_wheel { multiple } ->
            if not (soa_armed soa slot) then begin
              (* first defined gap estimate: arm the expiry timer *)
              arm_expiry t ~deadline:(now +. (multiple *. gap)) receiver
                ann.key;
              soa_set_flags soa slot ~present:true ~armed:true
            end
        | No_expiry | Refresh_timeout _ -> ());
        if ann.version > soa.version_a.(slot) then begin
          soa.version_a.(slot) <- ann.version;
          if current then note_match t ~now r
        end
      end

let death_draw t ~now r =
  match t.death with
  | Lifetime_fixed _ | Lifetime_exp _ -> false
  | Per_service p ->
      if Rng.bernoulli t.death_rng p then begin
        remove_record t ~now r;
        true
      end
      else false

let kill t ~now key =
  match Table.find t.table key with
  | Some r -> remove_record t ~now r
  | None -> ()
