(* netlist-opt: an Ntk_gen netlist, relabelled per seed, through the
   pass pipeline [sweep,rewrite] (Pass.run_pipeline with Sweep.pass and
   Rewrite.pass, jobs 1, cold NPN cache per round). The output is checked here
   against the input on the benchmark's own seeded simulation words. *)

module Ntk = Stp_network.Ntk
module Pass = Stp_network.Pass
module Sweep = Stp_network.Sweep
module Rewrite = Stp_network.Rewrite
module Cuts = Stp_network.Cuts
module Npn_cache = Stp_synth.Npn_cache
module Profile = Stp_util.Profile
module Prng = Stp_util.Prng
module Trace = Stp_telemetry.Trace
module Totals = Stp_sat.Solver.Totals

let nodes = 2000

(* The whole-sweep timeout and unlimited per-proof conflicts never bind
   at this size: every candidate pair is proved or refuted. *)
let sweep_options =
  { Sweep.default_options with Sweep.conflict_budget = 0; timeout = 120.0 }

let rewrite_options = { Rewrite.default_options with Rewrite.timeout = 0.1; jobs = 1 }

type state = {
  ntk : Ntk.t;
  words : int64 array list;  (* the benchmark's own simulation patterns *)
  reference : int64 array list;  (* input netlist outputs on [words] *)
}

let signatures ntk words = List.map (Ntk.simulate_words ntk) words

(* A seeded isomorphic copy of [ntk]: primary inputs in a random
   order, AND nodes re-created in a random topological order (random
   within each logic level), so variable numbering — which sweep's
   class representatives and rewrite's greedy apply order follow —
   differs per seed while the optimization problem stays the same. *)
let relabel prng ntk =
  let out = Ntk.create ~capacity:(Ntk.num_vars ntk) () in
  let map = Array.make (Ntk.num_vars ntk) Ntk.const_false in
  let pis = Array.init (Ntk.num_pis ntk) (fun i -> i + 1) in
  Prng.shuffle prng pis;
  Array.iter (fun v -> map.(v) <- Ntk.add_pi out) pis;
  let levels = Ntk.levels ntk in
  let ands = ref [] in
  Ntk.iter_ands ntk (fun v -> ands := (levels.(v), Prng.bits prng 30, v) :: !ands);
  let lit l =
    let m = map.(Ntk.var_of_lit l) in
    if Ntk.is_compl l then Ntk.lit_not m else m
  in
  List.iter
    (fun (_, _, v) -> map.(v) <- Ntk.add_and out (lit (Ntk.fanin0 ntk v)) (lit (Ntk.fanin1 ntk v)))
    (List.sort compare !ands);
  Array.iter (fun l -> ignore (Ntk.add_po out (lit l))) (Ntk.outputs ntk);
  out

(* The netlist is Ntk_gen's for generator seed 1; the workload seed
   picks its labelling (see [relabel]) and the check patterns. *)
let setup ~seed =
  let prng = Prng.create (seed + 104729) in
  let ntk = relabel prng (Stp_workloads.Ntk_gen.generate ~seed:1 ~nodes ()) in
  let words =
    List.init 32 (fun _ -> Array.init (Ntk.num_pis ntk) (fun _ -> Prng.next_int64 prng))
  in
  (* Force the AND-basis engine's lazy tables with one small synthesis. *)
  ignore
    (Npn_cache.synthesize
       ~options:{ Stp_synth.Spec.default_options with basis = rewrite_options.basis }
       (Npn_cache.create ()) (Stp_tt.Tt.of_hex ~n:3 "e8"));
  { ntk; words; reference = signatures ntk words }

type round = {
  wall : float;
  peak : float;  (* VmHWM over the round, MB *)
  rows : Pass.stats list;
  ands_before : int;
  ands_after : int;
  solved_classes : int;
  profile : Profile.snapshot option;
  spans : Trace.event list;
  sat : (string * int) list;
  cuts_s : float;    (* Cuts.enumerate re-run on the rewrite's input *)
  verify_s : float;  (* Pass.verify_equivalent re-run on each pass's pair *)
}

let detail (row : Pass.stats) key =
  Option.value ~default:0 (List.assoc_opt key row.Pass.detail)

(* A no-op pass that keeps its input: in traced rounds it sits between
   sweep and rewrite so the benchmark can re-run the rewrite's cut
   enumeration and each pass's verifier on the exact same networks. *)
let capture cell =
  { Pass.name = "capture";
    run =
      (fun ntk ->
        cell := Some ntk;
        let ands = Ntk.count_live ntk and depth = Ntk.depth ntk in
        ( ntk,
          { Pass.pass = "capture"; ands_before = ands; ands_after = ands;
            depth_before = depth; depth_after = depth; verified = true;
            verify_method = "identity"; elapsed_s = 0.0; detail = [] } )) }

let run_round st ~traced =
  let cache = Npn_cache.create () in
  let swept = ref None in
  let pipeline =
    (Sweep.pass ~options:sweep_options () :: (if traced then [ capture swept ] else []))
    @ [ Rewrite.pass ~options:rewrite_options ~cache () ]
  in
  if traced then begin
    Profile.reset ();
    Trace.reset ()
  end;
  Totals.reset ();
  Meter.reset_hwm ();
  let (out, rows), wall = Meter.time (fun () -> Pass.run_pipeline pipeline st.ntk) in
  let peak = Meter.self_hwm_mb () in
  let profile = if traced then Some (Profile.snapshot ()) else None in
  let spans = if traced then Trace.events () else [] in
  let sat = Totals.snapshot () in
  (* Output checks, one per optimization pass. *)
  Meter.attempt 2;
  Meter.check
    (List.length rows = List.length pipeline && List.for_all (fun r -> r.Pass.verified) rows)
    "pipeline aborted or a pass failed its own verification";
  Meter.check
    (Ntk.num_pis out = Ntk.num_pis st.ntk && Ntk.num_pos out = Ntk.num_pos st.ntk)
    "PI/PO counts changed";
  Meter.check
    (List.for_all2 (fun a b -> a = b) st.reference (signatures out st.words))
    "optimized netlist differs from the input on the benchmark's patterns";
  (* Attribution: the rewrite's cut enumeration and both passes' final
     verification, re-run on the same networks. *)
  let cuts_s, verify_s =
    match !swept with
    | Some swept ->
      let _, cuts_s =
        Meter.time (fun () ->
            Cuts.enumerate ~k:rewrite_options.cut_size ~limit:rewrite_options.cut_limit swept)
      in
      let _, v1 = Meter.time (fun () -> Pass.verify_equivalent st.ntk swept) in
      let _, v2 = Meter.time (fun () -> Pass.verify_equivalent swept out) in
      (cuts_s, v1 +. v2)
    | None -> (0.0, 0.0)
  in
  { wall;
    peak;
    rows;
    ands_before = Ntk.count_live st.ntk;
    ands_after = Ntk.count_live out;
    solved_classes = Npn_cache.classes cache;
    profile;
    spans;
    sat;
    cuts_s;
    verify_s }

let row name r = List.find_opt (fun (s : Pass.stats) -> s.Pass.pass = name) r.rows

let end_to_end rounds =
  let walls = List.map (fun r -> r.wall) rounds in
  let classes =
    List.fold_left
      (fun n r -> n + Option.fold ~none:0 ~some:(fun s -> detail s "classes") (row "rewrite" r))
      0 rounds
  in
  let solved = List.fold_left (fun n r -> n + r.solved_classes) 0 rounds in
  Meter.set "wall_s" (Meter.median walls);
  Meter.set "solved_frac" (Meter.ratio solved classes);
  Meter.set "latency_p50_s" (Meter.quantile walls 0.5);
  Meter.set "latency_p99_s" (Meter.quantile walls 0.99);
  Meter.set "throughput_rps"
    (Meter.median (List.map (fun r -> float_of_int r.ands_before /. r.wall) rounds));
  Meter.set "ands_after"
    (Meter.median (List.map (fun r -> float_of_int r.ands_after) rounds));
  Meter.set "peak_rss_mb" (Meter.median (List.map (fun r -> r.peak) rounds))

let span_s r name =
  Meter.sum
    (List.map
       (fun (e : Trace.event) ->
         if e.Trace.name = name then float_of_int (e.Trace.t_end_ns - e.Trace.t_start_ns) *. 1e-9
         else 0.0)
       r.spans)

let per_layer rounds =
  let n = float_of_int (List.length rounds) in
  let avg f = Meter.sum (List.map f rounds) /. n in
  let of_row name f = avg (fun r -> Option.fold ~none:0.0 ~some:f (row name r)) in
  let detail_f name key = of_row name (fun s -> float_of_int (detail s key)) in
  let stage name = avg (fun r -> Exact.stage_s r.profile name) in
  let counter name = avg (fun r -> float_of_int (Exact.count r.profile name)) in
  let sat name = avg (fun r -> float_of_int (Option.value ~default:0 (List.assoc_opt name r.sat))) in
  let set = Meter.set in
  let sim = avg (fun r -> span_s r "sweep.sim")
  and refine = avg (fun r -> span_s r "sweep.refine")
  and prove = avg (fun r -> span_s r "sweep.prove") in
  set "sweep.wall_s" (of_row "sweep" (fun s -> s.Pass.elapsed_s));
  set "sweep.sim_s" sim;
  set "sweep.refine_s" refine;
  set "sweep.prove_s" prove;
  set "sweep.pairs_proved" (detail_f "sweep" "pairs_proved");
  set "sweep.pairs_skipped" (detail_f "sweep" "pairs_skipped");
  set "sweep.proved_per_candidate"
    (let c = detail_f "sweep" "candidates" in
     if c = 0.0 then 0.0 else detail_f "sweep" "pairs_proved" /. c);
  set "sweep.ands_after" (of_row "sweep" (fun s -> float_of_int s.Pass.ands_after));
  set "rewrite.wall_s" (of_row "rewrite" (fun s -> s.Pass.elapsed_s));
  let synth = Meter.sum (List.map stage Exact.stages) in
  set "rewrite.synth_s" synth;
  set "rewrite.classes" (detail_f "rewrite" "classes");
  set "rewrite.applied_per_candidate"
    (let c = detail_f "rewrite" "candidates" in
     if c = 0.0 then 0.0 else detail_f "rewrite" "applied" /. c);
  set "cuts.enumerate_s" (avg (fun r -> r.cuts_s));
  set "pass.verify_s" (avg (fun r -> r.verify_s));
  set "synth.canonical_s" (stage "canonical");
  set "synth.decompose_s" (stage "decompose");
  set "synth.feasibility_s" (stage "feasibility");
  set "synth.realise_s" (stage "realise");
  set "circuitsat.verify_s" (stage "verify");
  set "synth.decompose_calls" (counter "decompose_calls");
  let calls = counter "decompose_calls" and hits = counter "decompose_cache_hits" in
  set "synth.decompose_hit_ratio"
    (if calls +. hits = 0.0 then 0.0 else hits /. (calls +. hits));
  let tests = counter "quarter_tests" in
  set "synth.quarter_reject_ratio"
    (if tests = 0.0 then 0.0 else counter "quarter_rejects" /. tests);
  set "synth.learned_prunes" (counter "learned_prunes");
  set "synth.timeouts"
    (avg (fun r ->
         float_of_int
           (Option.fold ~none:0 ~some:(fun s -> detail s "classes") (row "rewrite" r)
           - r.solved_classes)));
  set "stp.multiword_decomposes" (counter "multiword_decomposes");
  set "stp.multiword_kernel_calls" (counter "multiword_kernel_calls");
  set "circuitsat.chains_verified" (counter "chains_verified");
  set "circuitsat.cube_merges" (counter "cube_merges");
  set "sat.conflicts" (sat "conflicts");
  set "sat.propagations" (sat "propagations");
  set "sat.props_per_s" (if prove = 0.0 then 0.0 else sat "propagations" /. prove);
  set "encodings.solvers" (sat "solvers");
  let wall = avg (fun r -> r.wall) in
  set "bench.wall_s" wall;
  set "bench.unattributed_s"
    (wall -. (sim +. refine +. prove +. synth +. avg (fun r -> r.cuts_s) +. avg (fun r -> r.verify_s)))

let layer_shares =
  [ "sweep.sim_s"; "sweep.refine_s"; "sweep.prove_s"; "synth.canonical_s";
    "synth.decompose_s"; "synth.feasibility_s"; "synth.realise_s";
    "circuitsat.verify_s"; "cuts.enumerate_s"; "pass.verify_s";
    "bench.unattributed_s" ]

let run ~seed ~seconds ~trace =
  let samples = Meter.cold_samples 9 (fun () -> ignore (setup ~seed)) in
  let st, dt = Meter.time (fun () -> setup ~seed) in
  Meter.set "setup_s" (Meter.median (dt :: samples));
  if not trace then end_to_end (Meter.rounds ~seconds (fun () -> run_round st ~traced:false))
  else begin
    let untraced = Meter.rounds ~seconds:(seconds /. 2.0) (fun () -> run_round st ~traced:false) in
    Profile.set_enabled true;
    Trace.set_enabled true;
    let traced = Meter.rounds ~seconds:(seconds /. 2.0) (fun () -> run_round st ~traced:true) in
    per_layer traced;
    let med rs = Meter.median (List.map (fun r -> r.wall) rs) in
    Meter.set "trace.overhead_s" (med traced -. med untraced)
  end;
  layer_shares
