(* Tests for the NPN-class synthesis cache: chains returned via a cache
   hit must simulate to the concrete target and carry the same optimum
   gate count as a cold synthesis; the cache must replay — not
   re-search — for further members of an already-solved class, and must
   not re-run a search that already timed out under as large a budget. *)

module Tt = Stp_tt.Tt
module Npn = Stp_tt.Npn
module Chain = Stp_chain.Chain
module Stp_exact = Stp_synth.Stp_exact
module Npn_cache = Stp_synth.Npn_cache
module Engine = Stp_synth.Engine
module Baselines = Stp_synth.Baselines
module Store = Stp_store.Store
module Deadline = Stp_util.Deadline
module Prng = Stp_util.Prng

let deadline () = Deadline.after 60.0

let gates_of r = Option.value ~default:(-1) (Engine.gates r)

let chains_of = function Engine.Solved chains -> chains | _ -> []

let check_solved what r =
  Alcotest.(check string) (what ^ " solved") "solved" (Engine.outcome_label r)

let random_tt rng n =
  Tt.of_fun n (fun _ -> Prng.bool rng)

let random_transform rng n =
  let perms = Array.of_list (Npn.permutations n) in
  { Npn.perm = perms.(Prng.int rng (Array.length perms));
    input_neg = Prng.int rng (1 lsl n);
    output_neg = Prng.bool rng }

let test_hit_matches_cold_synthesis () =
  (* DSD-decomposable targets keep cold synthesis in the millisecond
     range; dense random 4-var functions can run for minutes. *)
  let rng = Prng.create 2024 in
  let targets = Stp_workloads.Dsd_gen.fdsd_collection ~n:4 ~count:6 ~seed:2024 in
  List.iter
    (fun f ->
      let cold = Stp_exact.synthesize ~deadline:(deadline ()) f in
      check_solved "cold" cold;
      let cache = Npn_cache.create () in
      let miss = Npn_cache.synthesize ~deadline:(deadline ()) cache f in
      check_solved "miss" miss;
      Alcotest.(check int) "miss optimum" (gates_of cold) (gates_of miss);
      (* A different member of the same class must be a replay. *)
      let g = Npn.apply f (random_transform rng 4) in
      let hit = Npn_cache.synthesize ~deadline:(deadline ()) cache g in
      check_solved "hit" hit;
      Alcotest.(check int) "hit optimum == cold optimum" (gates_of cold)
        (gates_of hit);
      Alcotest.(check bool) "chains returned" true (chains_of hit <> []);
      List.iter
        (fun c ->
          Alcotest.(check bool) "hit chain simulates to target" true
            (Tt.equal (Chain.simulate c) g))
        (chains_of hit);
      let s = Npn_cache.stats cache in
      Alcotest.(check int) "one hit" 1 s.Npn_cache.hits;
      Alcotest.(check int) "one miss" 1 s.Npn_cache.misses;
      Alcotest.(check int) "no replay failures" 0 s.Npn_cache.failures)
    targets

let test_hit_count_matches_cold_count () =
  (* The replayed solution set has the same cardinality as a cold run on
     the same target: NPN transforms map the optimum chains of the first
     realised topology bijectively. *)
  let rng = Prng.create 4096 in
  let tried = ref 0 in
  while !tried < 4 do
    let f = random_tt rng 3 in
    if Tt.support_size f >= 2 then begin
      incr tried;
      let cache = Npn_cache.create () in
      (* Warm the cache with the class representative's orbit member. *)
      ignore (Npn_cache.synthesize ~deadline:(deadline ()) cache (Npn.apply f (random_transform rng 3)));
      let cold = Stp_exact.synthesize ~deadline:(deadline ()) f in
      let hit = Npn_cache.synthesize ~deadline:(deadline ()) cache f in
      check_solved "cold" cold;
      check_solved "hit" hit;
      Alcotest.(check int) "same optimum" (gates_of cold) (gates_of hit);
      Alcotest.(check int) "same number of optimum chains"
        (List.length (chains_of cold))
        (List.length (chains_of hit))
    end
  done

let test_many_members_one_synthesis () =
  (* Sweep a whole orbit: exactly one miss, everything else replays. *)
  let f = Tt.of_hex ~n:4 "8ff8" (* the paper's Example 7 function *) in
  let rng = Prng.create 7 in
  let members =
    f :: List.init 15 (fun _ -> Npn.apply f (random_transform rng 4))
  in
  let cache = Npn_cache.create () in
  let results = List.map (Npn_cache.synthesize ~deadline:(deadline ()) cache) members in
  List.iter2
    (fun m r ->
      check_solved "member" r;
      List.iter
        (fun c ->
          Alcotest.(check bool) "simulates" true (Tt.equal (Chain.simulate c) m))
        (chains_of r))
    members results;
  let s = Npn_cache.stats cache in
  Alcotest.(check int) "one miss for the whole orbit" 1 s.Npn_cache.misses;
  Alcotest.(check int) "rest are hits" (List.length members - 1) s.Npn_cache.hits;
  Alcotest.(check int) "one class cached" 1 (Npn_cache.classes cache);
  Alcotest.(check (float 1e-9)) "hit rate" (15.0 /. 16.0) (Npn_cache.hit_rate cache)

let test_wide_support_bypasses () =
  (* 7-input read-once function: support exceeds the canonicalisation
     bound, so the cache steps aside and solves directly. *)
  let f =
    List.fold_left Tt.bor (Tt.var 7 0) (List.init 6 (fun i -> Tt.var 7 (i + 1)))
  in
  let cache = Npn_cache.create () in
  let r = Npn_cache.synthesize ~deadline:(deadline ()) cache f in
  check_solved "wide" r;
  Alcotest.(check int) "read-once optimum" 6 (gates_of r);
  let s = Npn_cache.stats cache in
  Alcotest.(check int) "bypassed" 1 s.Npn_cache.bypassed;
  Alcotest.(check int) "no lookups" 0 (s.Npn_cache.hits + s.Npn_cache.misses)

let test_trivial_targets_skip_cache () =
  let cache = Npn_cache.create () in
  let r = Npn_cache.synthesize ~deadline:(deadline ()) cache (Tt.var 4 2) in
  check_solved "projection" r;
  Alcotest.(check int) "gate-free" 0 (gates_of r);
  let s = Npn_cache.stats cache in
  Alcotest.(check int) "no lookups" 0
    (s.Npn_cache.hits + s.Npn_cache.misses + s.Npn_cache.bypassed)

let test_wrapped_baseline_agrees () =
  (* The cache is engine-generic: wrapping a CNF baseline must preserve
     its optima on class members. *)
  let f = Tt.of_hex ~n:4 "6996" (* xor4 *) in
  let cache = Npn_cache.create () in
  let (module E : Stp_synth.Engine.S) =
    Npn_cache.wrap cache Stp_synth.Engine.bms
  in
  let run g = E.synthesize (Stp_synth.Engine.spec g) ~deadline:(deadline ()) in
  let r1 = run f in
  let g = Npn.apply f { Npn.perm = [| 3; 1; 0; 2 |]; input_neg = 5; output_neg = true } in
  let r2 = run g in
  check_solved "bms miss" r1;
  check_solved "bms hit" r2;
  Alcotest.(check int) "same optimum" (gates_of r1) (gates_of r2);
  List.iter
    (fun c ->
      Alcotest.(check bool) "baseline replay simulates" true
        (Tt.equal (Chain.simulate c) g))
    (chains_of r2);
  let s = Npn_cache.stats cache in
  Alcotest.(check int) "hit" 1 s.Npn_cache.hits

let test_timeouts_not_cached () =
  (* [b4d2] needs ~4 gates and tens of milliseconds of search — far more
     than the 0.5 ms budget below, yet instant with a real one. *)
  let f = Tt.of_hex ~n:4 "b4d2" in
  let cache = Npn_cache.create () in
  let r =
    Npn_cache.synthesize ~deadline:(Deadline.after 0.0005) cache f
  in
  Alcotest.(check bool) "timed out" true (r = Engine.Timeout);
  Alcotest.(check int) "nothing cached" 0 (Npn_cache.classes cache);
  (* The timeout is remembered only as a record: no entry, and the same
     budget is answered without a second search. *)
  Alcotest.(check int) "one timeout record" 1 (Npn_cache.unproven cache);
  Alcotest.(check int) "no entries" 0 (List.length (Npn_cache.entries cache));
  let again =
    Npn_cache.synthesize ~deadline:(Deadline.after 0.0005) cache f
  in
  Alcotest.(check bool) "still timed out" true (again = Engine.Timeout);
  let s = Npn_cache.stats cache in
  Alcotest.(check int) "answered by the record" 1 s.Npn_cache.known_timeouts;
  Alcotest.(check int) "one search so far" 1 s.Npn_cache.misses;
  (* With budget restored the same cache must now solve and store. *)
  let r2 = Npn_cache.synthesize ~deadline:(deadline ()) cache f in
  check_solved "after timeout" r2;
  Alcotest.(check int) "class stored" 1 (Npn_cache.classes cache);
  Alcotest.(check int) "record superseded" 0 (Npn_cache.unproven cache)

let source_name = function
  | Npn_cache.Replay -> "replay"
  | Npn_cache.Solve -> "solve"
  | Npn_cache.Known_timeout -> "known timeout"

let test_timeout_records_by_budget () =
  let f = Tt.of_hex ~n:4 "8ff8" in
  let rng = Prng.create 15 in
  (* A solver that counts its calls and times out until [solves] is set. *)
  let calls = ref 0 and solves = ref false in
  let (module Stp : Engine.S) = Engine.stp in
  let solver spec ~deadline =
    incr calls;
    if !solves then Stp.synthesize spec ~deadline else Engine.Timeout
  in
  let cache = Npn_cache.create () in
  (* Each step asks for a fresh member of the class under [budget] and
     names the answer's source and the solver calls made so far. *)
  let step budget ~source ~solved ~calls:expected =
    let g = Npn.apply f (random_transform rng 4) in
    let a =
      Npn_cache.solve cache solver (Engine.spec g)
        ~deadline:(Deadline.after budget)
    in
    let what = Printf.sprintf "budget %g" budget in
    Alcotest.(check string) (what ^ ": source") source (source_name a.Npn_cache.source);
    Alcotest.(check int) (what ^ ": solver calls") expected !calls;
    match a.Npn_cache.result with
    | Engine.Solved chains when solved ->
      List.iter
        (fun c ->
          Alcotest.(check bool) (what ^ ": simulates") true
            (Tt.equal (Chain.simulate c) g))
        chains
    | Engine.Timeout when not solved -> ()
    | _ -> Alcotest.failf "%s: unexpected result" what
  in
  step 0.25 ~source:"solve" ~solved:false ~calls:1;
  Alcotest.(check int) "recorded, not cached" 0 (Npn_cache.classes cache);
  Alcotest.(check int) "one record" 1 (Npn_cache.unproven cache);
  (* Budgets no larger than the recorded one never reach the solver. *)
  step 0.25 ~source:"known timeout" ~solved:false ~calls:1;
  step 0.1 ~source:"known timeout" ~solved:false ~calls:1;
  (* A larger budget retries, and its timeout raises the record. *)
  step 0.5 ~source:"solve" ~solved:false ~calls:2;
  step 0.4 ~source:"known timeout" ~solved:false ~calls:2;
  step 0.5 ~source:"known timeout" ~solved:false ~calls:2;
  (* A later solve supersedes the record; small budgets then replay. *)
  solves := true;
  step 60.0 ~source:"solve" ~solved:true ~calls:3;
  step 0.1 ~source:"replay" ~solved:true ~calls:3;
  Alcotest.(check int) "record gone" 0 (Npn_cache.unproven cache);
  Alcotest.(check int) "class cached" 1 (Npn_cache.classes cache);
  let s = Npn_cache.stats cache in
  Alcotest.(check int) "misses" 3 s.Npn_cache.misses;
  Alcotest.(check int) "known timeouts" 4 s.Npn_cache.known_timeouts;
  Alcotest.(check int) "hits" 1 s.Npn_cache.hits

let test_hard_class_bound () =
  (* A solver that never finishes makes the class hard by construction:
     every member past the first is answered by the record, with the
     class bound replayed onto it. *)
  let f = Tt.of_hex ~n:4 "1ee6" in
  let rep = fst (Npn.canonical f) in
  let rep_bound = Chain.size (Baselines.upper_bound rep) in
  let calls = ref 0 in
  let timing_out _ ~deadline:_ =
    incr calls;
    Engine.Timeout
  in
  let cache = Npn_cache.create () in
  let rng = Prng.create 100 in
  for _ = 1 to 100 do
    let g = Npn.apply f (random_transform rng 4) in
    let a =
      Npn_cache.solve cache timing_out (Engine.spec g)
        ~deadline:(Deadline.after 0.25)
    in
    Alcotest.(check bool) "never solved" true (a.Npn_cache.result = Engine.Timeout);
    let c = Lazy.force a.Npn_cache.upper_bound in
    Alcotest.(check bool) "bound simulates to the member" true
      (Tt.equal (Chain.simulate c) g);
    Alcotest.(check bool) "no worse than the representative's bound" true
      (Chain.size c <= rep_bound)
  done;
  Alcotest.(check int) "one search" 1 !calls;
  let s = Npn_cache.stats cache in
  Alcotest.(check int) "the rest answered by the record" 99
    s.Npn_cache.known_timeouts;
  Alcotest.(check int) "no replay failures" 0 s.Npn_cache.failures;
  (* The record is never an entry, so never persisted. A solved class
     beside it shows the store does receive what is proven. *)
  ignore (Npn_cache.synthesize ~deadline:(deadline ()) cache (Tt.of_hex ~n:4 "8ff8"));
  Alcotest.(check int) "only the solved class is listed" 1
    (List.length (Npn_cache.entries cache));
  Alcotest.(check int) "only the solved class is counted" 1
    (Npn_cache.classes cache);
  Alcotest.(check bool) "the hard class is not an entry" false
    (List.exists (fun (canon, _) -> Tt.equal canon rep) (Npn_cache.entries cache));
  let path = Filename.temp_file "stp_npn_cache_test" ".npn" in
  let store = Store.create ~path in
  ignore (Store.absorb store ~section:"STP" cache);
  Store.flush store;
  let reloaded = Store.load ~path in
  Alcotest.(check int) "flushed store holds the solved class only" 1
    (Store.stats reloaded).Store.classes;
  let fresh = Npn_cache.create () in
  ignore (Store.seed reloaded ~section:"STP" fresh);
  Alcotest.(check int) "reloaded cache knows no timeouts" 0
    (Npn_cache.unproven fresh);
  Sys.remove path

let () =
  Alcotest.run "npn_cache"
    [ ( "replay",
        [ Alcotest.test_case "hit matches cold synthesis" `Slow
            test_hit_matches_cold_synthesis;
          Alcotest.test_case "hit count matches cold count" `Quick
            test_hit_count_matches_cold_count;
          Alcotest.test_case "orbit sweep: one synthesis" `Quick
            test_many_members_one_synthesis;
          Alcotest.test_case "baseline wrap agrees" `Quick
            test_wrapped_baseline_agrees ] );
      ( "gating",
        [ Alcotest.test_case "wide support bypasses" `Quick
            test_wide_support_bypasses;
          Alcotest.test_case "trivial targets skip" `Quick
            test_trivial_targets_skip_cache;
          Alcotest.test_case "timeouts not cached" `Quick
            test_timeouts_not_cached;
          Alcotest.test_case "timeout records keyed by budget" `Quick
            test_timeout_records_by_budget;
          Alcotest.test_case "hard class bound" `Quick test_hard_class_bound ] ) ]
