(* Tests for the extension features: restricted gate bases, depth-bounded
   synthesis, and the chain clean-up passes. *)

module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain
module Chain_opt = Stp_chain.Chain_opt
module Gate = Stp_chain.Gate
module Spec = Stp_synth.Spec
module Stp_exact = Stp_synth.Stp_exact
module Baselines = Stp_synth.Baselines
module Engine = Stp_synth.Engine
module Deadline = Stp_util.Deadline
module Prng = Stp_util.Prng

let and_class = [ 1; 2; 4; 7; 8; 11; 13; 14 ]

let options ?basis ?max_depth () = { Spec.default_options with Spec.basis; max_depth }

let deadline () = Deadline.after 30.0

let stp options f = Stp_exact.synthesize ~options ~deadline:(deadline ()) f
let bms options f = Baselines.bms ~options ~deadline:(deadline ()) f
let fen options f = Baselines.fen ~options ~deadline:(deadline ()) f

let gates_of r = Option.get (Engine.gates r)

let chains_of = function Engine.Solved chains -> chains | _ -> []

let check_solved name = function
  | Engine.Solved _ -> ()
  | r -> Alcotest.failf "%s: %s" name (Engine.outcome_label r)

let chain_uses_only basis (c : Chain.t) =
  Array.for_all (fun (s : Chain.step) -> List.mem s.gate basis) c.Chain.steps

(* --- restricted bases --- *)

let test_aig_xor3 () =
  (* XOR needs 3 AND-class gates instead of 1 XOR gate; xor3 needs 2 XOR
     gates or 6 AND-class gates *)
  let xor2 = Tt.of_hex ~n:2 "6" in
  let r = stp (options ~basis:and_class ()) xor2 in
  check_solved "xor2/aig" r;
  Alcotest.(check int) "xor2 needs 3 ANDs" 3 (gates_of r);
  List.iter
    (fun c ->
      Alcotest.(check bool) "only AND-class gates" true
        (chain_uses_only and_class c);
      Alcotest.(check bool) "simulates" true
        (Tt.equal (Chain.simulate c) xor2))
    (chains_of r)

let test_aig_vs_unrestricted () =
  (* restricted optima are never smaller; hard XOR-like primes may
     exceed the budget under the AND class (documented weakness), so
     timeouts are skipped but most instances must solve *)
  let rng = Prng.create 17 in
  let solved = ref 0 and tried = ref 0 in
  for _ = 1 to 8 do
    let f = Tt.of_fun 3 (fun _ -> Prng.bool rng) in
    if Tt.support_size f >= 2 then begin
      incr tried;
      let free = stp (options ()) f in
      let aig = stp (options ~basis:and_class ()) f in
      check_solved "free" free;
      match aig with
      | Engine.Timeout | Engine.Infeasible -> ()
      | Engine.Solved _ ->
        incr solved;
        Alcotest.(check bool) "aig >= free" true (gates_of aig >= gates_of free);
        List.iter
          (fun c ->
            Alcotest.(check bool) "basis respected" true
              (chain_uses_only and_class c))
          (chains_of aig)
    end
  done;
  Alcotest.(check bool) "most solved" true (2 * !solved >= !tried)

let test_basis_agreement_with_bms () =
  let rng = Prng.create 19 in
  for _ = 1 to 6 do
    let f = Tt.of_fun 3 (fun _ -> Prng.bool rng) in
    if Tt.support_size f >= 2 then begin
      let stp = stp (options ~basis:and_class ()) f in
      let bms = bms (options ~basis:and_class ()) f in
      check_solved "stp/aig" stp;
      check_solved "bms/aig" bms;
      Alcotest.(check int) "same aig optimum" (gates_of bms) (gates_of stp);
      List.iter
        (fun c ->
          Alcotest.(check bool) "bms basis" true
            (chain_uses_only [ 2; 4; 8; 14 ] c
             (* SSV decodes normal gates only: the normal AND-class *)))
        (chains_of bms)
    end
  done

let test_xor_basis () =
  (* parity functions in an {XOR,XNOR}-only basis *)
  let xor4 = Tt.of_hex ~n:4 "6996" in
  let r = stp (options ~basis:[ 6; 9 ] ()) xor4 in
  check_solved "xor4/xor-basis" r;
  Alcotest.(check int) "3 gates" 3 (gates_of r);
  (* AND is impossible in the XOR basis: every size up to the cap is
     refuted, so the engine answers Infeasible *)
  let and2 = Tt.of_hex ~n:2 "8" in
  let r = stp { (options ~basis:[ 6; 9 ] ()) with Spec.max_gates = 5 } and2 in
  Alcotest.(check bool) "and2 unsynthesisable" true (r = Engine.Infeasible)

(* --- depth bounds --- *)

let test_depth_bound_xor3 () =
  (* xor3 as a 2-gate chain has depth 2; with max_depth 1 no 2-gate or
     any chain fits (a depth-1 chain is a single gate) *)
  let xor3 = Tt.of_hex ~n:3 "96" in
  let r = stp (options ~max_depth:2 ()) xor3 in
  check_solved "depth 2" r;
  Alcotest.(check int) "2 gates" 2 (gates_of r);
  List.iter
    (fun c -> Alcotest.(check bool) "depth <= 2" true (Chain.depth c <= 2))
    (chains_of r);
  let r1 = stp { (options ~max_depth:1 ()) with Spec.max_gates = 4 } xor3 in
  Alcotest.(check bool) "depth 1 impossible" true (r1 = Engine.Infeasible)

let test_depth_forces_size () =
  (* AND8 = 7 gates; a balanced tree has depth 3, a chain depth 7. With
     max_depth 3 the optimum stays 7 but all solutions are balanced. *)
  let and4 = Tt.of_hex ~n:4 "8000" in
  let r = stp (options ~max_depth:2 ()) and4 in
  check_solved "and4 depth 2" r;
  Alcotest.(check int) "3 gates" 3 (gates_of r);
  List.iter
    (fun c -> Alcotest.(check bool) "balanced" true (Chain.depth c = 2))
    (chains_of r)

let test_depth_engines_agree () =
  let f = Tt.of_hex ~n:3 "e8" in
  let o = options ~max_depth:3 () in
  let stp = stp o f in
  let fen = fen o f in
  let bms = bms o f in
  check_solved "stp" stp;
  check_solved "fen" fen;
  check_solved "bms(depth->fen)" bms;
  Alcotest.(check int) "stp=fen" (gates_of fen) (gates_of stp);
  Alcotest.(check int) "stp=bms" (gates_of bms) (gates_of stp);
  List.iter
    (fun c -> Alcotest.(check bool) "depth bound" true (Chain.depth c <= 3))
    (chains_of stp @ chains_of fen @ chains_of bms)

(* --- DSD peeling ablation --- *)

let test_dsd_off_agrees () =
  (* the decomposition shortcut must not change optima *)
  let rng = Prng.create 29 in
  for _ = 1 to 6 do
    let f = Tt.of_fun 3 (fun _ -> Prng.bool rng) in
    if Tt.support_size f >= 2 then begin
      let on = stp (options ()) f in
      let off = stp { (options ()) with Spec.use_dsd = false } f in
      check_solved "dsd on" on;
      check_solved "dsd off" off;
      Alcotest.(check int) "same optimum" (gates_of off) (gates_of on);
      List.iter
        (fun c ->
          Alcotest.(check bool) "off chains correct" true
            (Tt.equal (Chain.simulate c) f))
        (chains_of off)
    end
  done;
  (* the paper's example as a fixed case *)
  let f = Tt.of_hex ~n:4 "8ff8" in
  let off = stp { (options ()) with Spec.use_dsd = false } f in
  check_solved "8ff8 no dsd" off;
  Alcotest.(check int) "3 gates" 3 (gates_of off)

(* --- chain clean-up --- *)

let random_chain rng ~n ~steps:k =
  let steps =
    List.init k (fun i ->
        let hi = n + i in
        let f1 = Prng.int rng hi in
        let f2 = (f1 + 1 + Prng.int rng (hi - 1)) mod hi in
        { Chain.fanin1 = f1; fanin2 = f2; gate = Prng.int rng 16 })
  in
  Chain.make ~n ~steps ~output:(n + k - 1) ~output_negated:(Prng.bool rng) ()

let test_sweep_removes_dead () =
  (* dead step: built but not referenced by the output cone *)
  let c =
    Chain.make ~n:2
      ~steps:
        [ { Chain.fanin1 = 0; fanin2 = 1; gate = 8 };
          { Chain.fanin1 = 0; fanin2 = 1; gate = 6 } ]
      ~output:2 ()
  in
  let c' = Chain_opt.sweep c in
  Alcotest.(check int) "one step left" 1 (Chain.size c');
  Alcotest.(check bool) "same function" true
    (Tt.equal (Chain.simulate c) (Chain.simulate c'))

let test_strash_merges_duplicates () =
  let c =
    Chain.make ~n:2
      ~steps:
        [ { Chain.fanin1 = 0; fanin2 = 1; gate = 8 };
          { Chain.fanin1 = 0; fanin2 = 1; gate = 8 };
          { Chain.fanin1 = 2; fanin2 = 3; gate = 14 } ]
      ~output:4 ()
  in
  (* OR of two copies of AND(a,b): collapses to the single AND *)
  let c' = Chain_opt.cleanup c in
  Alcotest.(check int) "collapsed" 1 (Chain.size c');
  Alcotest.(check bool) "same function" true
    (Tt.equal (Chain.simulate c) (Chain.simulate c'))

let test_strash_mirrored_fanins () =
  (* AND(a,b) and AND(b,a) are the same gate after operand sorting *)
  let c =
    Chain.make ~n:2
      ~steps:
        [ { Chain.fanin1 = 0; fanin2 = 1; gate = 8 };
          { Chain.fanin1 = 1; fanin2 = 0; gate = 8 };
          { Chain.fanin1 = 2; fanin2 = 3; gate = 6 } ]
      ~output:4 ()
  in
  (* XOR of the two copies would be constant 0 — but strash folds the
     copies first, making the xor a degenerate same-signal gate, which
     is a constant: the pass must bail out and preserve the function *)
  let c' = Chain_opt.cleanup c in
  Alcotest.(check bool) "function preserved" true
    (Tt.equal (Chain.simulate c) (Chain.simulate c'))

let test_strash_degenerate_gates () =
  (* a projection gate disappears *)
  let c =
    Chain.make ~n:2
      ~steps:
        [ { Chain.fanin1 = 0; fanin2 = 1; gate = 12 } (* proj a *);
          { Chain.fanin1 = 2; fanin2 = 1; gate = 8 } ]
      ~output:3 ()
  in
  let c' = Chain_opt.cleanup c in
  Alcotest.(check int) "projection folded" 1 (Chain.size c');
  Alcotest.(check bool) "same function" true
    (Tt.equal (Chain.simulate c) (Chain.simulate c'))

let qcheck_cleanup_preserves =
  QCheck.Test.make ~name:"cleanup preserves function, never grows" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 3 in
      let k = 1 + Prng.int rng 6 in
      let c = random_chain rng ~n ~steps:k in
      let c' = Chain_opt.cleanup c in
      Tt.equal (Chain.simulate c) (Chain.simulate c')
      && Chain.size c' <= Chain.size c)

let qcheck_cleanup_idempotent =
  QCheck.Test.make ~name:"cleanup is idempotent" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 3 in
      let k = 1 + Prng.int rng 6 in
      let c = Chain_opt.cleanup (random_chain rng ~n ~steps:k) in
      Chain.equal c (Chain_opt.cleanup c))

let () =
  Alcotest.run "features"
    [ ( "basis",
        [ Alcotest.test_case "aig xor2" `Quick test_aig_xor3;
          Alcotest.test_case "aig vs free" `Slow test_aig_vs_unrestricted;
          Alcotest.test_case "aig agreement with bms" `Slow
            test_basis_agreement_with_bms;
          Alcotest.test_case "xor basis" `Quick test_xor_basis ] );
      ( "dsd",
        [ Alcotest.test_case "peeling on/off agree" `Slow test_dsd_off_agrees ] );
      ( "depth",
        [ Alcotest.test_case "xor3 depth bound" `Quick test_depth_bound_xor3;
          Alcotest.test_case "and4 balanced" `Quick test_depth_forces_size;
          Alcotest.test_case "engines agree" `Quick test_depth_engines_agree ] );
      ( "chain_opt",
        [ Alcotest.test_case "sweep" `Quick test_sweep_removes_dead;
          Alcotest.test_case "strash duplicates" `Quick
            test_strash_merges_duplicates;
          Alcotest.test_case "mirrored fanins" `Quick test_strash_mirrored_fanins;
          Alcotest.test_case "degenerate gates" `Quick
            test_strash_degenerate_gates;
          QCheck_alcotest.to_alcotest qcheck_cleanup_preserves;
          QCheck_alcotest.to_alcotest qcheck_cleanup_idempotent ] ) ]
