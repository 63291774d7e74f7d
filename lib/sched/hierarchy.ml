type node = int

(* Pass values are only comparable among siblings: each interior node
   keeps its own virtual time, [child_vtime] — start-time-fair-queueing
   style, the start tag of the child most recently put into service.
   A child waking from idleness joins at its parent's virtual time;
   using a cross-level value (or the max sibling pass) would make the
   waker wait for the most advanced (or the laggard) sibling and break
   proportionality. *)
type entry = {
  parent : node option;
  mutable children : node list; (* registration order *)
  mutable weight : float;
  mutable pass : float;
  mutable child_vtime : float;
  mutable backlogged : bool; (* leaves: explicit; interior: derived *)
}

type t = {
  mutable entries : entry array;
  mutable count : int;
}

let make_entry ~parent ~weight =
  { parent; children = []; weight; pass = 0.0; child_vtime = 0.0;
    backlogged = false }

let create () =
  let root = make_entry ~parent:None ~weight:1.0 in
  { entries = Array.make 8 root; count = 1 }

let root _t = 0

let entry t n =
  if n < 0 || n >= t.count then invalid_arg "Hierarchy: unknown node";
  t.entries.(n)

let add_child t ~parent ~weight =
  if weight <= 0.0 then
    invalid_arg "Hierarchy.add_child: weight must be positive";
  let p = entry t parent in
  if p.backlogged && p.children = [] then
    invalid_arg "Hierarchy.add_child: parent is a backlogged leaf";
  let e = make_entry ~parent:(Some parent) ~weight in
  e.pass <- p.child_vtime;
  if t.count = Array.length t.entries then begin
    let entries = Array.make (2 * t.count) e in
    Array.blit t.entries 0 entries 0 t.count;
    t.entries <- entries
  end;
  t.entries.(t.count) <- e;
  t.count <- t.count + 1;
  let id = t.count - 1 in
  p.children <- p.children @ [ id ];
  id

let set_weight t n w =
  if w <= 0.0 then invalid_arg "Hierarchy.set_weight: weight must be positive";
  (entry t n).weight <- w

let rec is_backlogged t n =
  let e = entry t n in
  match e.children with
  | [] -> e.backlogged
  | kids -> List.exists (is_backlogged t) kids

let set_backlogged t n b =
  let e = entry t n in
  if e.children <> [] then
    invalid_arg "Hierarchy.set_backlogged: interior node";
  if b && not e.backlogged then begin
    (* Waking a subtree must not grant it back-service for its idle
       period: bring each node on the spine forward to its own
       parent's virtual time (passes are level-local). *)
    (match e.parent with
    | Some p -> e.pass <- Float.max e.pass (entry t p).child_vtime
    | None -> ());
    let rec wake = function
      | None -> ()
      | Some p ->
          let pe = entry t p in
          if not (is_backlogged t p) then begin
            (match pe.parent with
            | Some gp -> pe.pass <- Float.max pe.pass (entry t gp).child_vtime
            | None -> ());
            wake pe.parent
          end
    in
    wake e.parent
  end;
  e.backlogged <- b

let select t =
  let rec descend n =
    let e = entry t n in
    match e.children with
    | [] -> if e.backlogged then Some n else None
    | kids ->
        let best = ref None in
        List.iter
          (fun kid ->
            if is_backlogged t kid then
              match !best with
              | None -> best := Some kid
              | Some b ->
                  if (entry t kid).pass < (entry t b).pass then best := Some kid)
          kids;
        (match !best with
        | None -> None
        | Some kid ->
            (* SFQ virtual time: the start tag of the child entering
               service, monotone under the max *)
            e.child_vtime <- Float.max e.child_vtime (entry t kid).pass;
            descend kid)
  in
  descend 0

let charge t n size =
  if size < 0.0 then invalid_arg "Hierarchy.charge: negative size";
  let rec ascend n =
    let e = entry t n in
    e.pass <- e.pass +. (size /. e.weight);
    match e.parent with None -> () | Some p -> ascend p
  in
  ascend n
