module Tt = Stp_tt.Tt
module Chain = Stp_chain.Chain

type 'a outcome = Solved of 'a | Timeout | Infeasible

let prepare f =
  match Tt.support f with
  | [] -> invalid_arg "synthesis: constant target has no Boolean chain"
  | [ v ] ->
    let n = Tt.num_vars f in
    let negated = Tt.equal f (Tt.bnot (Tt.var n v)) in
    `Trivial (Chain.make ~n ~steps:[] ~output:v ~output_negated:negated ())
  | _ ->
    let g, support = Tt.shrink_to_support f in
    `Reduced (g, support)

let expand_chain ~n ~support chain =
  let sup = Array.of_list support in
  let s = Array.length sup in
  let map signal = if signal < s then sup.(signal) else n + (signal - s) in
  let steps =
    Array.to_list
      (Array.map
         (fun (st : Chain.step) ->
           { Chain.fanin1 = map st.fanin1; fanin2 = map st.fanin2; gate = st.gate })
         chain.Chain.steps)
  in
  Chain.make ~n ~steps ~output:(map chain.Chain.output)
    ~output_negated:chain.Chain.output_negated ()

let optimal_and_verified target chains =
  Stp_util.Profile.time Stp_util.Profile.Verify @@ fun () ->
  let seen = Hashtbl.create 97 in
  List.filter
    (fun c ->
      let c' = Chain.normalise_fanin_order c in
      let key = Format.asprintf "%a" Chain.pp_compact c' in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        Stp_util.Profile.incr Stp_util.Profile.Chains_verified;
        Tt.equal (Chain.simulate c) target
        && Stp_circuitsat.Circuit_solver.verify_chain c target
      end)
    chains
