module Tt = Stp_tt.Tt
module Npn = Stp_tt.Npn
module Chain = Stp_chain.Chain
module Deadline = Stp_util.Deadline

type solver = Engine.spec -> deadline:Deadline.t -> Engine.result

type stats = {
  hits : int;
  misses : int;
  known_timeouts : int;
  bypassed : int;
  failures : int;
}

type entry = {
  gates : int;
  chains : Chain.t list; (* over the canonical function's variable space *)
}

(* What the cache knows about a class it holds no optimum for. Kept
   apart from [table], so it is never replayed as [Solved], never
   listed by [entries] and therefore never persisted. *)
type unproven = {
  mutable timed_out : float;
      (* the largest deadline budget a solve of the class timed out under *)
  mutable bound : Chain.t option;
      (* best-known upper bound over the canonical variable space, once
         computed *)
}

type t = {
  lock : Mutex.t;
  table : (Tt.t, entry) Hashtbl.t;
  unproven : (Tt.t, unproven) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable known_timeouts : int;
  mutable bypassed : int;
  mutable failures : int;
}

(* Wider supports are beyond [Npn.canonical]. *)
let max_support = 6

let create () =
  { lock = Mutex.create ();
    table = Hashtbl.create 997;
    unproven = Hashtbl.create 97;
    hits = 0;
    misses = 0;
    known_timeouts = 0;
    bypassed = 0;
    failures = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let stats t =
  locked t (fun () ->
      { hits = t.hits;
        misses = t.misses;
        known_timeouts = t.known_timeouts;
        bypassed = t.bypassed;
        failures = t.failures })

let classes t = locked t (fun () -> Hashtbl.length t.table)

let unproven t = locked t (fun () -> Hashtbl.length t.unproven)

let hit_rate t =
  let s = stats t in
  let looked_up = s.hits + s.misses in
  if looked_up = 0 then 0.0 else float_of_int s.hits /. float_of_int looked_up

let failed t = locked t (fun () -> t.failures <- t.failures + 1)

(* One probe per lookup: a cached optimum wins over a timeout record,
   and a record answers only budgets no larger than one that already
   timed out — a larger budget retries. *)
let lookup t canon ~budget =
  locked t (fun () ->
      match Hashtbl.find_opt t.table canon with
      | Some entry ->
        t.hits <- t.hits + 1;
        `Hit entry
      | None -> (
        match Hashtbl.find_opt t.unproven canon with
        | Some u when budget <= u.timed_out ->
          t.known_timeouts <- t.known_timeouts + 1;
          `Known_timeout
        | _ ->
          t.misses <- t.misses + 1;
          `Miss))

(* Callers hold the lock. An optimum supersedes the class's record. *)
let insert t canon entry =
  Hashtbl.remove t.unproven canon;
  Hashtbl.replace t.table canon entry

let store t canon entry =
  locked t (fun () -> if not (Hashtbl.mem t.table canon) then insert t canon entry)

let record_timeout t canon ~budget =
  locked t (fun () ->
      if not (Hashtbl.mem t.table canon) then
        match Hashtbl.find_opt t.unproven canon with
        | Some u -> u.timed_out <- Float.max u.timed_out budget
        | None ->
          Hashtbl.replace t.unproven canon { timed_out = budget; bound = None })

let entries t =
  locked t (fun () ->
      Hashtbl.fold (fun canon entry acc -> (canon, entry) :: acc) t.table [])

let add_entry t canon entry =
  (* Entries arriving from outside the solving path (a persisted store)
     are sanitised rather than trusted: only chains that simulate to
     the key survive, sizes must agree, and the key must really be a
     cacheable canonical representative. A corrupt or stale record can
     therefore never poison replays — it is simply dropped. *)
  if Tt.num_vars canon > max_support || not (Npn.is_canonical canon) then
    false
  else
    let chains =
      List.filter
        (fun c ->
          c.Chain.n = Tt.num_vars canon
          && Chain.size c = entry.gates
          && Tt.equal (Chain.simulate c) canon)
        entry.chains
    in
    match chains with
    | [] -> false
    | chains ->
      locked t (fun () ->
          if Hashtbl.mem t.table canon then false
          else begin
            insert t canon { entry with chains };
            true
          end)

(* Map chains over the class representative back onto the concrete
   target: [tr] satisfies [Npn.apply target tr = canon], so replaying
   [Npn.inverse tr] onto a chain computing [canon] yields a chain of
   identical size computing [target] (input negations and the output
   negation fold into gate codes, the permutation relabels fanins).
   Cached optima were verified against the canonical target once, when
   the entry was stored; each replay only re-simulates the transformed
   chain (a cheap bit-parallel check) instead of re-running the full
   dedup + circuit-SAT verification per class member. *)
let replay ~n ~support ~target ~tr chains =
  let inv = Npn.inverse tr in
  let replayed =
    List.filter_map
      (fun c ->
        let c = Chain.apply_npn c inv in
        if Tt.equal (Chain.simulate c) target then
          Some (Common.expand_chain ~n ~support c)
        else None)
      chains
  in
  match replayed with [] -> None | chains -> Some chains

(* [Baselines.upper_bound] expands on the last support variable, so
   the input order decides how much its cofactors share: try every
   order of the representative and keep the smallest chain, mapped back
   onto the representative's own variables. *)
let shannon_bound canon =
  let best = ref None in
  List.iter
    (fun perm ->
      let tr = { Npn.perm; input_neg = 0; output_neg = false } in
      let c =
        Chain.apply_npn
          (Baselines.upper_bound (Npn.apply canon tr))
          (Npn.inverse tr)
      in
      match !best with
      | Some b when Chain.size b <= Chain.size c -> ()
      | _ -> best := Some c)
    (Npn.permutations (Tt.num_vars canon));
  Option.get !best

(* The class bound is computed once per timed-out class and kept in its
   record; a class without a record (never timed out here) gets a fresh
   one per call. *)
let class_bound t canon =
  let known =
    locked t (fun () ->
        Option.bind (Hashtbl.find_opt t.unproven canon) (fun u -> u.bound))
  in
  match known with
  | Some b -> b
  | None ->
    let b = shannon_bound canon in
    locked t (fun () ->
        match Hashtbl.find_opt t.unproven canon with
        | Some { bound = Some b'; _ } -> b'
        | Some u ->
          u.bound <- Some b;
          b
        | None -> b)

type source = Replay | Solve | Known_timeout

type answer = {
  result : Engine.result;
  source : source;
  upper_bound : Chain.t Lazy.t;
}

let solve t (solver : solver) spec ~deadline =
  let f = spec.Engine.target in
  let direct () =
    { result = solver spec ~deadline;
      source = Solve;
      upper_bound = lazy (Baselines.upper_bound f) }
  in
  if Tt.is_const f then direct ()
  else
    match Common.prepare f with
    | `Trivial chain ->
      { result = Engine.Solved [ chain ]; source = Solve; upper_bound = lazy chain }
    | `Reduced (target, _) when Tt.num_vars target > max_support ->
      (* Too wide to canonicalise: solve directly. *)
      locked t (fun () -> t.bypassed <- t.bypassed + 1);
      direct ()
    | `Reduced (target, support) -> (
      let n = Tt.num_vars f in
      let canon, tr = Npn.canonical target in
      let budget = Deadline.budget deadline in
      let upper_bound =
        lazy
          (match replay ~n ~support ~target ~tr [ class_bound t canon ] with
           | Some (c :: _) -> c
           | _ ->
             failed t;
             Baselines.upper_bound f)
      in
      let answer result source = { result; source; upper_bound } in
      (* A replay failing re-simulation, or a solved representative
         failing verification, would be a bug in the transform algebra
         or an engine; never let it corrupt results — solve this target
         directly and record the event. *)
      let fallback () =
        failed t;
        answer (solver spec ~deadline) Solve
      in
      match lookup t canon ~budget with
      | `Hit entry -> (
        match replay ~n ~support ~target ~tr entry.chains with
        | Some chains -> answer (Engine.Solved chains) Replay
        | None -> fallback ())
      | `Known_timeout -> answer Engine.Timeout Known_timeout
      | `Miss -> (
        (* Solve the class representative so the cached entry serves
           every member of the class, then replay onto this member. *)
        match solver { spec with Engine.target = canon } ~deadline with
        | Engine.Timeout ->
          record_timeout t canon ~budget;
          answer Engine.Timeout Solve
        | Engine.Infeasible -> answer Engine.Infeasible Solve
        | Engine.Solved chains -> (
          (* The paper's step (iv), run once per class: dedup and
             verify against the canonical target before storing. *)
          match Common.optimal_and_verified canon chains with
          | [] -> fallback ()
          | verified -> (
            store t canon
              { gates = Chain.size (List.hd verified); chains = verified };
            match replay ~n ~support ~target ~tr verified with
            | Some chains -> answer (Engine.Solved chains) Solve
            | None -> fallback ()))))

let wrap_solver t (solver : solver) : solver =
 fun spec ~deadline -> (solve t solver spec ~deadline).result

let wrap t (module E : Engine.S) : (module Engine.S) =
  (module struct
    let name = E.name

    let synthesize spec ~deadline = wrap_solver t E.synthesize spec ~deadline
  end)

let synthesize ?(options = Spec.default_options) ?memo
    ?(deadline = Stp_util.Deadline.never) t f =
  let (module E : Engine.S) = wrap t Engine.stp in
  E.synthesize (Engine.spec ~options ?memo f) ~deadline
