(* End-to-end integration tests: engines against the real workloads and
   the harness aggregation machinery. *)

module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Spec = Stp_synth.Spec
module Engine = Stp_synth.Engine
module Runner = Stp_harness.Runner
module Table = Stp_harness.Table

let deadline () = Stp_util.Deadline.after 20.0

let chains_of = function Engine.Solved chains -> chains | _ -> []

let test_fdsd6_all_engines_agree () =
  (* read-once functions: every engine must find the n-1 = 5-gate optimum *)
  let fns = Stp_workloads.Dsd_gen.fdsd_collection ~n:6 ~count:3 ~seed:77 in
  List.iter
    (fun f ->
      let stp = Stp_synth.Stp_exact.synthesize ~deadline:(deadline ()) f in
      Alcotest.(check (option int)) "read-once optimum" (Some 5) (Engine.gates stp);
      List.iter
        (fun c ->
          Alcotest.(check bool) "simulates" true
            (Tt.equal (Chain.simulate c) f))
        (chains_of stp);
      let bms = Stp_synth.Baselines.bms ~deadline:(deadline ()) f in
      match bms with
      | Engine.Solved _ ->
        Alcotest.(check (option int)) "bms agrees" (Engine.gates stp)
          (Engine.gates bms)
      | Engine.Timeout | Engine.Infeasible ->
        () (* CNF baselines may be slow; agreement only checked when they
              finish *))
    fns

let test_npn4_easy_classes () =
  (* the small-support NPN4 classes must be near-instant *)
  let fns =
    List.filter
      (fun f -> Tt.support_size f <= 3)
      (Stp_workloads.Npn4.synthesizable ())
  in
  List.iter
    (fun f ->
      let r = Stp_synth.Stp_exact.synthesize ~deadline:(deadline ()) f in
      Alcotest.(check string) "solved" "solved" (Engine.outcome_label r);
      List.iter
        (fun c ->
          Alcotest.(check bool) "simulates" true
            (Tt.equal (Chain.simulate c) f))
        (chains_of r))
    fns

let test_runner_aggregates () =
  let fns =
    [ Tt.of_hex ~n:3 "96"; Tt.of_hex ~n:3 "e8"; Tt.of_hex ~n:3 "ca" ]
  in
  let agg = Runner.run_collection ~timeout:20.0 Runner.stp_engine fns in
  Alcotest.(check string) "name" "STP" agg.Runner.name;
  Alcotest.(check int) "all solved" 3 agg.Runner.solved;
  Alcotest.(check int) "no timeouts" 0 agg.Runner.timeouts;
  Alcotest.(check bool) "mean positive" true (agg.Runner.mean_time >= 0.0);
  Alcotest.(check bool) "solutions counted" true (agg.Runner.mean_solutions >= 1.0);
  (* optima histogram: xor3=2, mux=3, maj=4 *)
  Alcotest.(check (list (pair int int))) "histogram" [ (2, 1); (3, 1); (4, 1) ]
    agg.Runner.optima

let test_runner_observes () =
  let fns = [ Tt.of_hex ~n:2 "6" ] in
  let seen = ref [] in
  let on_instance i _f (r : Spec.result) =
    seen := (i, r.Spec.status = Spec.Solved) :: !seen
  in
  ignore (Runner.run_collection ~timeout:20.0 ~on_instance Runner.stp_engine fns);
  Alcotest.(check (list (pair int bool))) "observed" [ (0, true) ] !seen

let test_runner_timeout_accounting () =
  (* hard function with a microscopic budget: counted as timeout *)
  let fns = [ Tt.of_hex ~n:4 "1ee6" ] in
  let agg = Runner.run_collection ~timeout:0.001 Runner.stp_engine fns in
  Alcotest.(check int) "timeout" 1 agg.Runner.timeouts;
  Alcotest.(check int) "none solved" 0 agg.Runner.solved

let test_table_rendering () =
  let fns = [ Tt.of_hex ~n:3 "96" ] in
  let aggs =
    List.map
      (fun e -> Runner.run_collection ~timeout:20.0 e fns)
      [ Runner.bms_engine; Runner.fen_engine; Runner.abc_engine;
        Runner.stp_engine ]
  in
  let out = Format.asprintf "%a" (fun fmt () ->
      Table.render fmt ~rows:[ ("XOR3", aggs) ]) ()
  in
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec scan i =
      i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "mentions collection" true (contains out "XOR3")

let test_csv_rendering () =
  let fns = [ Tt.of_hex ~n:3 "96" ] in
  let agg = Runner.run_collection ~timeout:20.0 Runner.stp_engine fns in
  let out =
    Format.asprintf "%a" (fun fmt () ->
        Table.render_csv fmt ~rows:[ ("XOR3", [ agg ]) ]) ()
  in
  Alcotest.(check bool) "has header" true
    (String.length out > 10 && String.sub out 0 10 = "collection")

let test_chains_expand_correctly_across_engines () =
  (* a function with a support hole exercises the expand path everywhere *)
  let f = Tt.expand (Tt.of_hex ~n:3 "e8") 5 [| 0; 2; 4 |] in
  List.iter
    (fun (module E : Engine.S) ->
      match E.synthesize (Engine.spec f) ~deadline:(deadline ()) with
      | Engine.Solved chains ->
        List.iter
          (fun c ->
            Alcotest.(check bool) (E.name ^ " simulates") true
              (Tt.equal (Chain.simulate c) f))
          chains
      | r -> Alcotest.failf "%s: %s" E.name (Engine.outcome_label r))
    Engine.all

let () =
  Alcotest.run "integration"
    [ ( "engines",
        [ Alcotest.test_case "fdsd6 agreement" `Slow
            test_fdsd6_all_engines_agree;
          Alcotest.test_case "npn4 easy classes" `Slow test_npn4_easy_classes;
          Alcotest.test_case "expand across engines" `Slow
            test_chains_expand_correctly_across_engines ] );
      ( "harness",
        [ Alcotest.test_case "aggregates" `Quick test_runner_aggregates;
          Alcotest.test_case "observer" `Quick test_runner_observes;
          Alcotest.test_case "timeout accounting" `Quick
            test_runner_timeout_accounting;
          Alcotest.test_case "table rendering" `Quick test_table_rendering;
          Alcotest.test_case "csv rendering" `Quick test_csv_rendering ] ) ]
