(* exact-npn4 and exact-dsd: offline synthesis through the collection
   runner. A round is one fixed list of targets pushed through each
   engine's leg ([Runner.run_collection], 1 domain, no NPN cache);
   every returned chain is re-simulated against its target here, and
   engines that both solve an instance must agree on its gate count. *)

module Tt = Stp_tt.Tt
module Npn = Stp_tt.Npn
module Chain = Stp_chain.Chain
module Spec = Stp_synth.Spec
module Baselines = Stp_synth.Baselines
module Runner = Stp_harness.Runner
module Profile = Stp_util.Profile
module Prng = Stp_util.Prng
module Totals = Stp_sat.Solver.Totals
module Dsd_gen = Stp_workloads.Dsd_gen

type config = {
  timeout : float;  (* per-instance deadline, seconds *)
  engines : Runner.engine list;
  pool : Tt.t array;  (* fixed targets; rounds present them as seeded NPN members *)
}

(* exact-npn4: 14 of the 221 synthesizable NPN4 classes (indices into
   the ascending representative list), STP then BMS, 1 s deadline. The
   classes were picked for outcomes far from the deadline on both
   engines, so the solved share and the answers' gate counts do not
   flip with timing noise, and so that the median instance falls in
   the middle of a dense band of 20-70 ms solves: 2 are trivial, 8
   solve in that band on both engines, 2 take STP 0.3-0.5 s, and 2 time
   out on STP only (BMS solves them in under 0.1 s). *)
let npn4_classes = [ 0; 1; 27; 28; 30; 31; 32; 35; 36; 44; 49; 57; 72; 94 ]

let npn4 () =
  let classes = Array.of_list (Stp_workloads.Npn4.synthesizable ()) in
  { timeout = 1.0;
    engines = [ Runner.stp_engine; Runner.bms_engine ];
    pool = Array.of_list (List.map (fun i -> classes.(i)) npn4_classes) }

(* exact-dsd: a fixed mix of the paper's DSD collections, STP only,
   2.5 s deadline. Rounds are short (~2 s) so a run's median is taken
   over ~10 of them. PDSD8 is left out: its instances take 0.3-1.5 s
   each, and a handful of them made a round's time swing by a quarter
   from one presentation to the next. *)
let dsd () =
  let take n count gen = gen ~n ~count ~seed:7 in
  { timeout = 2.5;
    engines = [ Runner.stp_engine ];
    pool =
      Array.of_list
        (take 6 60 Dsd_gen.fdsd_collection
        @ take 8 12 Dsd_gen.fdsd_collection
        @ take 6 30 Dsd_gen.pdsd_collection) }

(* The targets of one round: every pool function, in pool order, with
   random input and output complements — deterministic in (seed,
   round). Variable order and instance order stay fixed: on the DSD
   pool, random permutations and orders (which change the search order
   and the memo's reuse between instances) moved a run's wall time by
   20 % from seed to seed. *)
let targets cfg ~seed ~round =
  let prng = Prng.create ((seed * 7919) + round) in
  Array.to_list
    (Array.map
       (fun f ->
         let n = Tt.num_vars f in
         Npn.apply f
           { Npn.perm = Array.init n Fun.id; input_neg = Prng.bits prng n; output_neg = Prng.bool prng })
       cfg.pool)

(* Cold set-up: enumerate the inputs and force the engines' lazy tables
   with one small synthesis per engine. *)
let setup make ~seed =
  let cfg = make () in
  ignore (targets cfg ~seed ~round:0);
  let probe = Tt.of_hex ~n:3 "e8" in
  List.iter
    (fun e -> ignore (Runner.run_collection ~timeout:cfg.timeout e [ probe ]))
    cfg.engines;
  cfg

type leg = {
  engine : string;
  wall : float;
  results : (Tt.t * Spec.result) array;
  profile : Profile.snapshot option;
  sat : (string * int) list;  (* Solver.Totals over the leg *)
  hwm : float;                (* the leg's VmHWM, MB *)
  hwm_growth : float;         (* VmHWM minus RSS at the leg's start, MB *)
}

(* One engine over the round's targets, in a forked child: the
   runner's Factor memo starts cold, the leg's peak memory is its own,
   and everything it allocated is released with the child. *)
let run_leg cfg engine fns =
  let (engine, wall, results, profile, sat, rss0), hwm =
    Meter.in_child (fun () ->
        Totals.reset ();
        let rss0 = Meter.self_rss_mb () in
        let results = Array.make (List.length fns) (Tt.zero 1, Spec.timed_out ~elapsed:0.0) in
        let agg, wall =
          Meter.time (fun () ->
              Runner.run_collection ~timeout:cfg.timeout ~jobs:1
                ~on_instance:(fun i f r -> results.(i) <- (f, r))
                engine fns)
        in
        ( Runner.engine_name engine, wall, results, agg.Runner.profile,
          Totals.snapshot (), rss0 ))
  in
  { engine; wall; results; profile; sat; hwm; hwm_growth = hwm -. rss0 }

(* Check one leg's answers; returns the per-instance gate counts of the
   solved ones. *)
let check_leg leg =
  Array.map
    (fun (f, (r : Spec.result)) ->
      Meter.attempt 1;
      match r.Spec.status with
      | Spec.Timeout -> None
      | Spec.Solved -> (
        match (r.Spec.chains, r.Spec.gates) with
        | [], _ | _, None ->
          Meter.check false (leg.engine ^ ": solved without a chain");
          None
        | chains, Some g ->
          let ok =
            List.for_all
              (fun c -> Chain.size c = g && Tt.equal (Chain.simulate c) f)
              chains
          in
          Meter.check ok
            (Printf.sprintf "%s: a chain for %s does not simulate to it"
               leg.engine (Tt.to_hex f));
          if ok then Some g else None))
    leg.results

type round = {
  wall : float;             (* first leg start to last leg end *)
  peak : float;             (* the largest leg VmHWM of the round, MB *)
  legs : leg list;
  samples : float list;     (* per-instance seconds, every leg *)
  solved : int;
  instances : int;
  answer_gates : float;     (* optimum, or the upper bound on a timeout *)
}

let run_round cfg ~seed ~round =
  let fns = targets cfg ~seed ~round in
  let legs, wall = Meter.time (fun () -> List.map (fun e -> run_leg cfg e fns) cfg.engines) in
  let peak = List.fold_left (fun m (l : leg) -> Float.max m l.hwm) 0.0 legs in
  let solved_gates = List.map check_leg legs in
  (* Cross-engine agreement on every instance both engines solved. *)
  (match solved_gates with
   | a :: rest ->
     List.iter
       (fun b ->
         Array.iteri
           (fun i ga ->
             match (ga, b.(i)) with
             | Some x, Some y ->
               Meter.check (x = y)
                 (Printf.sprintf "engines disagree on %s: %d vs %d gates"
                    (Tt.to_hex (List.nth fns i)) x y)
             | _ -> ())
           a)
       rest
   | [] -> ());
  let samples =
    List.concat_map
      (fun l -> Array.to_list (Array.map (fun (_, r) -> r.Spec.elapsed) l.results))
      legs
  in
  let solved =
    List.fold_left
      (fun n g -> n + Array.fold_left (fun n x -> if x = None then n else n + 1) 0 g)
      0 solved_gates
  in
  (* Best answer per target: the fewest gates any engine proved, else
     the verified upper bound — built from the NPN class representative
     (up to 6 inputs), so it does not depend on the presentation. *)
  let answer_gates =
    List.mapi
      (fun i f ->
        let best =
          List.fold_left
            (fun acc g ->
              match (acc, g.(i)) with
              | None, x | x, None -> x
              | Some a, Some b -> Some (min a b))
            None solved_gates
        in
        match best with
        | Some g -> float_of_int g
        | None ->
          let rep = if Tt.num_vars f <= 6 then fst (Npn.canonical f) else f in
          float_of_int (Chain.size (Baselines.upper_bound rep)))
      fns
  in
  { wall;
    peak;
    legs;
    samples;
    solved;
    instances = List.length samples;
    answer_gates = Meter.sum answer_gates /. float_of_int (List.length fns) }

let end_to_end rounds =
  let walls = List.map (fun r -> r.wall) rounds in
  let samples = List.concat_map (fun r -> r.samples) rounds in
  let solved = List.fold_left (fun n r -> n + r.solved) 0 rounds in
  let instances = List.fold_left (fun n r -> n + r.instances) 0 rounds in
  Meter.set "wall_s" (Meter.median walls);
  Meter.set "solved_frac" (Meter.ratio solved instances);
  Meter.set "latency_p50_s" (Meter.quantile samples 0.5);
  Meter.set "latency_p99_s" (Meter.quantile samples 0.99);
  Meter.set "throughput_rps"
    (float_of_int instances /. float_of_int (List.length rounds) /. Meter.median walls);
  Meter.set "ands_after"
    (Meter.median (List.map (fun r -> r.answer_gates) rounds));
  Meter.set "peak_rss_mb" (Meter.median (List.map (fun r -> r.peak) rounds))

(* {2 Per-layer attribution of traced rounds} *)

let stage_s (p : Profile.snapshot option) name =
  match p with
  | None -> 0.0
  | Some p -> (
    match List.find_opt (fun s -> s.Profile.stage = name) p.Profile.stages with
    | Some s -> s.Profile.self_s
    | None -> 0.0)

let count (p : Profile.snapshot option) name =
  match p with
  | None -> 0
  | Some p -> Option.value ~default:0 (List.assoc_opt name p.Profile.counts)

let stages = [ "canonical"; "decompose"; "feasibility"; "realise"; "verify" ]

let per_layer rounds =
  let n = float_of_int (List.length rounds) in
  let legs name = List.concat_map (fun r -> List.filter (fun l -> l.engine = name) r.legs) rounds in
  let stp = legs "STP" and bms = legs "BMS" in
  let all = stp @ bms in
  let per_round f ls = Meter.sum (List.map f ls) /. n in
  let stage name ls = per_round (fun l -> stage_s l.profile name) ls in
  let counter name ls =
    float_of_int (List.fold_left (fun s l -> s + count l.profile name) 0 ls) /. n
  in
  let staged ls = Meter.sum (List.map (fun s -> stage s ls) stages) in
  let wall ls = per_round (fun (l : leg) -> l.wall) ls in
  let set = Meter.set in
  set "synth.canonical_s" (stage "canonical" stp);
  set "synth.decompose_s" (stage "decompose" stp);
  set "synth.feasibility_s" (stage "feasibility" stp);
  set "synth.realise_s" (stage "realise" stp);
  set "synth.unattributed_s" (wall stp -. staged stp);
  set "circuitsat.verify_s" (stage "verify" all);
  set "sat.solve_s" (wall bms -. staged bms);
  let calls = counter "decompose_calls" stp and hits = counter "decompose_cache_hits" stp in
  set "synth.decompose_calls" calls;
  set "synth.decompose_hit_ratio"
    (if calls +. hits = 0.0 then 0.0 else hits /. (calls +. hits));
  let tests = counter "quarter_tests" stp in
  set "synth.quarter_reject_ratio"
    (if tests = 0.0 then 0.0 else counter "quarter_rejects" stp /. tests);
  set "synth.learned_prunes" (counter "learned_prunes" stp);
  set "stp.multiword_decomposes" (counter "multiword_decomposes" stp);
  set "stp.multiword_kernel_calls" (counter "multiword_kernel_calls" stp);
  set "circuitsat.chains_verified" (counter "chains_verified" all);
  set "circuitsat.cube_merges" (counter "cube_merges" all);
  set "synth.rss_growth_mb"
    (List.fold_left (fun m l -> Float.max m l.hwm_growth) 0.0 stp);
  let stp_results = List.concat_map (fun l -> Array.to_list l.results) stp in
  let timed_out = List.filter (fun (_, r) -> r.Spec.status = Spec.Timeout) stp_results in
  let elapsed rs = Meter.sum (List.map (fun (_, r) -> r.Spec.elapsed) rs) in
  set "synth.timeouts" (float_of_int (List.length timed_out) /. n);
  set "synth.timeout_share"
    (let t = elapsed stp_results in if t = 0.0 then 0.0 else elapsed timed_out /. t);
  let sat name = float_of_int (List.fold_left (fun s l -> s + Option.value ~default:0 (List.assoc_opt name l.sat)) 0 bms) /. n in
  set "sat.conflicts" (sat "conflicts");
  set "sat.propagations" (sat "propagations");
  set "sat.props_per_s"
    (let w = wall bms in if w = 0.0 then 0.0 else sat "propagations" /. w);
  set "encodings.solvers" (sat "solvers");
  (* Shares of the traced round wall; the remainder is the time between
     legs (result collection, domain start-up). *)
  let traced_wall = Meter.sum (List.map (fun r -> r.wall) rounds) /. n in
  set "bench.wall_s" traced_wall;
  set "bench.unattributed_s" (traced_wall -. wall all)

let layer_shares =
  [ "synth.canonical_s"; "synth.decompose_s"; "synth.feasibility_s";
    "synth.realise_s"; "synth.unattributed_s"; "circuitsat.verify_s";
    "sat.solve_s"; "bench.unattributed_s" ]

let run make ~seed ~seconds ~trace =
  let setup_samples = Meter.cold_samples 9 (fun () -> ignore (setup make ~seed)) in
  let cfg, dt = Meter.time (fun () -> setup make ~seed) in
  Meter.set "setup_s" (Meter.median (dt :: setup_samples));
  let next = ref 0 in
  let round () =
    let r = run_round cfg ~seed ~round:!next in
    incr next;
    r
  in
  if not trace then begin
    let rounds = Meter.rounds ~seconds round in
    end_to_end rounds
  end
  else begin
    let untraced = Meter.rounds ~seconds:(seconds /. 2.0) round in
    Profile.set_enabled true;
    let traced = Meter.rounds ~seconds:(seconds /. 2.0) round in
    per_layer traced;
    Meter.set "trace.overhead_s"
      (Meter.median (List.map (fun r -> r.wall) traced)
      -. Meter.median (List.map (fun r -> r.wall) untraced))
  end;
  layer_shares
