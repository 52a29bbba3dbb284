(* The synthesis-stack benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   Runs workload W (exact-npn4, exact-dsd, service-zipf, netlist-opt)
   for about S seconds on inputs generated from seed N, checks every
   answer, and prints one JSON object as its last stdout line: the
   end-to-end metrics (--trace 0) or the per-layer metrics of a traced
   run (--trace 1). Exits 1 when any output check failed. See
   README.md for what each workload and metric means. *)

module Json = Stp_telemetry.Json

let end_to_end =
  [ ("setup_s", "s"); ("wall_s", "s"); ("solved_frac", "ratio");
    ("latency_p50_s", "s"); ("latency_p99_s", "s"); ("throughput_rps", "1/s");
    ("ands_after", "gates"); ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("synth.canonical_s", "s"); ("synth.decompose_s", "s");
    ("synth.feasibility_s", "s"); ("synth.realise_s", "s");
    ("synth.unattributed_s", "s"); ("synth.decompose_calls", "count");
    ("synth.decompose_hit_ratio", "ratio"); ("synth.quarter_reject_ratio", "ratio");
    ("synth.learned_prunes", "count"); ("synth.rss_growth_mb", "MB");
    ("synth.timeouts", "count"); ("synth.timeout_share", "ratio");
    ("stp.multiword_decomposes", "count"); ("stp.multiword_kernel_calls", "count");
    ("circuitsat.verify_s", "s"); ("circuitsat.chains_verified", "count");
    ("circuitsat.cube_merges", "count");
    ("sat.solve_s", "s"); ("sat.conflicts", "count"); ("sat.propagations", "count");
    ("sat.props_per_s", "1/s"); ("encodings.solvers", "count");
    ("sweep.wall_s", "s"); ("sweep.sim_s", "s"); ("sweep.refine_s", "s");
    ("sweep.prove_s", "s"); ("sweep.pairs_proved", "count");
    ("sweep.pairs_skipped", "count"); ("sweep.proved_per_candidate", "ratio");
    ("sweep.ands_after", "gates");
    ("cuts.enumerate_s", "s"); ("rewrite.wall_s", "s"); ("rewrite.synth_s", "s");
    ("rewrite.classes", "count"); ("rewrite.applied_per_candidate", "ratio");
    ("pass.verify_s", "s");
    ("daemon.solver_p99_s", "s"); ("daemon.cache_p50_s", "s");
    ("daemon.degraded_p99_s", "s"); ("daemon.solver_busy_s", "s");
    ("daemon.cache_busy_s", "s"); ("daemon.degraded_busy_s", "s");
    ("npn_cache.hit_ratio", "ratio"); ("npn_cache.degraded_frac", "ratio");
    ("store.bytes", "B");
    ("service.queue_wire_p50_s", "s"); ("service.queue_wire_p99_s", "s");
    ("service.balance_max_over_mean", "ratio"); ("service.backpressure_stalls", "count");
    ("loadgen.late_p99_s", "s");
    ("bench.wall_s", "s"); ("bench.unattributed_s", "s"); ("trace.overhead_s", "s") ]

let workloads =
  [ ("exact-npn4", Exact.run Exact.npn4);
    ("exact-dsd", Exact.run Exact.dsd);
    ("service-zipf", Serve.run);
    ("netlist-opt", Netlist.run) ]

(* The traced run's breakdown: each layer's self time and the
   remainder, which add up to the traced wall. *)
let breakdown workload shares =
  let wall = Option.value ~default:0.0 (List.assoc_opt "bench.wall_s" !Meter.metrics) in
  let rows =
    List.map (fun n -> (n, Option.value ~default:0.0 (List.assoc_opt n !Meter.metrics))) shares
  in
  Printf.eprintf "[perfbench] %s traced wall %.4fs:\n" workload wall;
  List.iter
    (fun (n, v) ->
      Printf.eprintf "[perfbench]   %-24s %9.4fs %6.1f%%\n" n v
        (if wall > 0.0 then 100.0 *. v /. wall else 0.0))
    rows;
  Printf.eprintf "[perfbench]   %-24s %9.4fs\n%!" "sum" (Meter.sum (List.map snd rows));
  (* The same breakdown as JSON, and the program's own spans as a
     Chrome trace, next to the service's scratch files. *)
  if not (Sys.file_exists ".perfbench") then Unix.mkdir ".perfbench" 0o755;
  let oc = open_out (Printf.sprintf ".perfbench/%s.breakdown.json" workload) in
  output_string oc
    (Json.to_string
       (Json.Obj
          [ ("workload", Json.String workload);
            ("wall_s", Json.Float wall);
            ("shares_s", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) rows));
            ("trace_overhead_s",
             Json.Float (Option.value ~default:0.0 (List.assoc_opt "trace.overhead_s" !Meter.metrics)))
          ]));
  output_char oc '\n';
  close_out oc;
  ignore (Stp_telemetry.Trace.write ~path:(Printf.sprintf ".perfbench/%s.trace.json" workload))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W  one of the workloads");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      prerr_endline ("unknown workload; choose one of: "
                     ^ String.concat ", " (List.map fst workloads));
      exit 2
  in
  let traced = !trace = 1 in
  let shares = run ~seed:!seed ~seconds:!seconds ~trace:traced in
  if traced then breakdown !workload shares;
  List.iter (fun f -> prerr_endline ("[perfbench] check failed: " ^ f)) (List.rev !Meter.failures);
  let result =
    if traced then Meter.result_json ~names:per_layer ~required:false
    else Meter.result_json ~names:end_to_end ~required:true
  in
  print_endline (Json.to_string result);
  if !Meter.failed > 0 then exit 1
