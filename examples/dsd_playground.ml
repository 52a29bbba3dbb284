(* DSD structure of the benchmark workloads: generate FDSD and PDSD
   functions, classify them, and synthesise one of each.

   Run with:  dune exec examples/dsd_playground.exe *)

module Tt = Stp_tt.Tt
module Dsd = Stp_tt.Dsd

let kind_name = function
  | Dsd.Constant -> "constant"
  | Dsd.Literal -> "literal"
  | Dsd.Full -> "fully DSD"
  | Dsd.Partial -> "partially DSD"
  | Dsd.Prime -> "prime"

let () =
  Format.printf "prime 3-input cores available to the PDSD generator: %d@.@."
    (List.length Stp_workloads.Dsd_gen.prime_cores);

  let show name f =
    Format.printf "%s: %a  [%s, support %d]@." name Tt.pp f
      (kind_name (Dsd.kind f))
      (Tt.support_size f)
  in
  let fd = Stp_workloads.Dsd_gen.fdsd ~n:6 ~seed:7 in
  let pd = Stp_workloads.Dsd_gen.pdsd ~n:6 ~seed:7 in
  show "FDSD6 sample" fd;
  show "PDSD6 sample" pd;

  Format.printf "@.synthesising both (STP engine):@.";
  List.iter
    (fun (name, f) ->
      let t0 = Stp_util.Unix_time.now () in
      match
        Stp_synth.Stp_exact.synthesize ~deadline:(Stp_util.Deadline.after 30.0) f
      with
      | Stp_synth.Engine.Solved (c :: _ as chains) ->
        Format.printf "%s: %d gates, %d solutions, %.3fs@." name
          (Stp_chain.Chain.size c) (List.length chains)
          (Stp_util.Unix_time.now () -. t0);
        Format.printf "  e.g. %a@." Stp_chain.Chain.pp_compact c
      | r -> Format.printf "%s: %s@." name (Stp_synth.Engine.outcome_label r))
    [ ("FDSD6", fd); ("PDSD6", pd) ];

  (* A fully-DSD function decomposes greedily along its top splits. *)
  Format.printf "@.top disjoint splits of the FDSD sample:@.";
  List.iter
    (fun (a, b) -> Format.printf "  A = 0x%02x, B = 0x%02x@." a b)
    (Dsd.top_splits fd)
