module Solver = Stp_sat.Solver
module Lit = Stp_sat.Lit
module Profile = Stp_util.Profile
module Prng = Stp_util.Prng
module Deadline = Stp_util.Deadline
module Trace = Stp_telemetry.Trace

type options = {
  sim_words : int;
  max_rounds : int;
  conflict_budget : int;
  timeout : float;
  max_cex_per_round : int;
  seed : int;
}

let default_options =
  { sim_words = 8;
    max_rounds = 16;
    conflict_budget = 2000;
    timeout = 60.0;
    max_cex_per_round = 64;
    seed = 1 }

type report = {
  ands_before : int;
  ands_after : int;
  depth_before : int;
  depth_after : int;
  classes : int;
  candidates : int;
  pairs_proved : int;
  pairs_refuted : int;
  pairs_skipped : int;
  merges : int;
  rounds : int;
  cex_patterns : int;
  sat_vars : int;
  sat : Solver.stats;
  verified : bool;
  verify_method : string;
  elapsed : float;
}

(* Signatures are normalised up to complement by the first sample bit,
   so a node and its negation share a partition key. *)
module Sig_tbl = Hashtbl.Make (struct
  type t = int64 array

  let equal = ( = )

  let hash = Hashtbl.hash
end)

let normalized_sig sigmat v =
  let n = Array.length sigmat in
  let first = sigmat.(0).(v) in
  let phase = Int64.logand first 1L = 1L in
  let key =
    Array.init n (fun b ->
        let w = sigmat.(b).(v) in
        if phase then Int64.lognot w else w)
  in
  (key, phase)

(* Outputs-reachable variables: sweeping dead logic would only inflate
   the candidate classes ({!Ntk.extract} drops it regardless). *)
let reachable ntk =
  let seen = Array.make (Ntk.num_vars ntk) false in
  seen.(0) <- true;
  let stack = ref [] in
  Array.iter
    (fun l -> stack := Ntk.var_of_lit l :: !stack)
    (Ntk.outputs ntk);
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      if not seen.(v) then begin
        seen.(v) <- true;
        if Ntk.is_and ntk v then
          stack :=
            Ntk.var_of_lit (Ntk.fanin0 ntk v)
            :: Ntk.var_of_lit (Ntk.fanin1 ntk v)
            :: !stack
      end
  done;
  seen

(* Partition the eligible variables by normalised signature. Classes
   are sorted by representative (the lowest variable, so a PI or the
   constant can only ever be a representative) with members ascending;
   phases are rebased onto the representative's. *)
let partition ~eligible ~sigmat nvars =
  let tbl = Sig_tbl.create 4096 in
  for v = 0 to nvars - 1 do
    if eligible v then begin
      let key, phase = normalized_sig sigmat v in
      let bucket = try Sig_tbl.find tbl key with Not_found -> [] in
      Sig_tbl.replace tbl key ((v, phase) :: bucket)
    end
  done;
  Sig_tbl.fold
    (fun _ bucket acc ->
      match List.rev bucket with
      | ((_, rep_phase) :: _ :: _) as members ->
        List.map (fun (v, ph) -> (v, ph <> rep_phase)) members :: acc
      | _ -> acc)
    tbl []
  |> List.sort (fun a b -> compare (List.hd a) (List.hd b))

let candidate_classes ?(sim_words = default_options.sim_words)
    ?(seed = default_options.seed) ntk =
  let sim_words = max 1 sim_words in
  let rng = Prng.create seed in
  let pis = Ntk.num_pis ntk in
  let sigmat =
    Array.init sim_words (fun _ ->
        Ntk.simulate_words_all ntk
          (Array.init pis (fun _ -> Prng.next_int64 rng)))
  in
  let reach = reachable ntk in
  let eligible v = reach.(v) in
  partition ~eligible ~sigmat (Ntk.num_vars ntk)

(* Lazy Tseitin encoding of node cones into the shared solver: one SAT
   variable per AIG variable, AND clauses added once, ever. Fanins are
   resolved through the merges proved so far ([resolve]), so the
   solver only ever grows by the {e reduced} logic — cones that
   collapse onto already-proved representatives share SAT variables
   and their proofs close by propagation instead of search. *)
type enc = {
  solver : Solver.t;
  satvar : int array; (* AIG var -> SAT var, -1 when not yet encoded *)
  resolve : Ntk.lit -> Ntk.lit; (* chase repr chains *)
  mutable encoded : int;
}

let sat_lit enc l =
  Lit.make enc.satvar.(Ntk.var_of_lit l) (not (Ntk.is_compl l))

let encode_var enc ntk v0 =
  let stack = ref [ v0 ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
      if enc.satvar.(v) >= 0 then stack := rest
      else if not (Ntk.is_and ntk v) then begin
        let sv = Solver.new_var enc.solver in
        enc.satvar.(v) <- sv;
        enc.encoded <- enc.encoded + 1;
        if Ntk.is_const_var v then Solver.add_clause enc.solver [ Lit.neg sv ];
        stack := rest
      end
      else begin
        let f0 = enc.resolve (Ntk.fanin0 ntk v)
        and f1 = enc.resolve (Ntk.fanin1 ntk v) in
        let w0 = Ntk.var_of_lit f0 and w1 = Ntk.var_of_lit f1 in
        let pending =
          (if enc.satvar.(w0) >= 0 then [] else [ w0 ])
          @ if enc.satvar.(w1) >= 0 then [] else [ w1 ]
        in
        if pending = [] then begin
          let sv = Solver.new_var enc.solver in
          enc.satvar.(v) <- sv;
          enc.encoded <- enc.encoded + 1;
          let la = sat_lit enc f0 and lb = sat_lit enc f1 in
          Solver.add_clause enc.solver [ Lit.neg sv; la ];
          Solver.add_clause enc.solver [ Lit.neg sv; lb ];
          Solver.add_clause enc.solver
            [ Lit.pos sv; Lit.negate la; Lit.negate lb ];
          stack := rest
        end
        else stack := pending @ !stack
      end
  done

type pair_proof = Proved | Refuted of bool array | Skipped

(* One candidate pair: member [y] against representative [x], claiming
   [val y = val x xor c]. Two assumption-only solves look for the two
   ways they could differ — the assumption units drive propagation
   straight into both cones, which beats a selector-guarded miter (the
   ternary miter clauses propagate nothing until the search stumbles
   onto the cones; measured ~1.5x slower). No clauses are added per
   pair, so every learnt clause serves every later pair. *)
let prove_pair enc ntk ~deadline ~conflict_budget ~rng x y c =
  encode_var enc ntk y;
  if x <> 0 then encode_var enc ntk x;
  let solve assumptions =
    let conflict_budget =
      if conflict_budget > 0 then Some conflict_budget else None
    in
    Solver.solve ?conflict_budget ~assumptions ~deadline enc.solver
  in
  let cex () =
    let pis = Ntk.num_pis ntk in
    Array.init pis (fun i ->
        let sv = enc.satvar.(i + 1) in
        if sv >= 0 then Solver.value enc.solver sv else Prng.bool rng)
  in
  let ysv = enc.satvar.(y) in
  if x = 0 then begin
    (* y is a candidate constant: [val y = c] everywhere; a model with
       [y = not c] is the counterexample. *)
    match solve [ Lit.make ysv (not c) ] with
    | Solver.Unsat ->
      Solver.add_clause enc.solver [ Lit.make ysv c ];
      Proved
    | Solver.Sat -> Refuted (cex ())
    | Solver.Unknown -> Skipped
  end
  else begin
    let xsv = enc.satvar.(x) in
    (* differ with x = 1: y xor c = 0, i.e. y = c *)
    match solve [ Lit.pos xsv; Lit.make ysv c ] with
    | Solver.Sat -> Refuted (cex ())
    | Solver.Unknown -> Skipped
    | Solver.Unsat -> (
      (* differ with x = 0: y = not c *)
      match solve [ Lit.neg xsv; Lit.make ysv (not c) ] with
      | Solver.Sat -> Refuted (cex ())
      | Solver.Unknown -> Skipped
      | Solver.Unsat -> Proved)
  end

(* Pack up to 64 counterexample assignments into one word batch, bit j
   of PI i's word = cex j's value of PI i; unused bit lanes are filled
   with fresh random samples, so a sparse cex round still refines. *)
let pack_cexs rng pis cexs =
  let ws = Array.init pis (fun _ -> Prng.next_int64 rng) in
  List.iteri
    (fun j cex ->
      let mask = Int64.shift_left 1L j in
      for i = 0 to pis - 1 do
        ws.(i) <-
          (if cex.(i) then Int64.logor ws.(i) mask
           else Int64.logand ws.(i) (Int64.lognot mask))
      done)
    cexs;
  ws

let run ?(options = default_options) ntk =
  let t0 = Stp_util.Unix_time.now () in
  let deadline = Deadline.after options.timeout in
  let rng = Prng.create options.seed in
  let nvars = Ntk.num_vars ntk in
  let pis = Ntk.num_pis ntk in
  let ands_before = Ntk.count_live ntk in
  let depth_before = Ntk.depth ntk in
  let reach = reachable ntk in
  let merged = Array.make nvars false in
  let excluded = Array.make nvars false in
  let repr : Ntk.lit option array = Array.make nvars None in
  let rec resolve l =
    match repr.(Ntk.var_of_lit l) with
    | None -> l
    | Some r -> resolve (if Ntk.is_compl l then Ntk.lit_not r else r)
  in
  let enc =
    { solver = Solver.create ();
      satvar = Array.make nvars (-1);
      resolve;
      encoded = 0 }
  in
  let sat0 = Solver.stats enc.solver in
  (* pattern batches: simulated signatures so far + batches still to
     simulate (initial random ones, then one batch per cex round) *)
  let sigmat = ref [||] in
  let pending =
    ref
      (List.init
         (max 1 options.sim_words)
         (fun _ -> Array.init pis (fun _ -> Prng.next_int64 rng)))
  in
  let classes_initial = ref 0 in
  let candidates = ref 0 in
  let proved = ref 0 in
  let refuted = ref 0 in
  let skipped = ref 0 in
  let merges = ref 0 in
  let cex_total = ref 0 in
  let rounds = ref 0 in
  let continue_ = ref true in
  while
    !continue_ && !rounds < options.max_rounds
    && not (Deadline.expired deadline)
  do
    incr rounds;
    let round_arg = [ ("round", string_of_int !rounds) ] in
    (* 1. simulate the batches added since the last round *)
    Trace.span "sweep.sim" ~args:round_arg (fun () ->
        let fresh =
          List.map (fun ws -> Ntk.simulate_words_all ntk ws) !pending
        in
        pending := [];
        sigmat := Array.append !sigmat (Array.of_list fresh));
    (* 2. partition into candidate classes *)
    let classes =
      Trace.span "sweep.refine" ~args:round_arg (fun () ->
          let eligible v = reach.(v) && not merged.(v) && not excluded.(v) in
          partition ~eligible ~sigmat:!sigmat nvars)
    in
    let nclasses = List.length classes in
    if !rounds = 1 then classes_initial := nclasses;
    Profile.add Profile.Sweep_classes nclasses;
    (* 3. prove members against their representative *)
    let total_members =
      List.fold_left (fun acc cls -> acc + List.length cls - 1) 0 classes
    in
    let attempted = ref 0 in
    let cexs = ref [] in
    let ncex = ref 0 in
    Trace.span "sweep.prove" ~args:round_arg (fun () ->
        let stop = ref false in
        List.iter
          (fun cls ->
            match cls with
            | [] -> ()
            | (rep, _) :: members ->
              List.iter
                (fun (y, c) ->
                  if
                    (not !stop)
                    && not (Deadline.expired deadline)
                    && !ncex < options.max_cex_per_round
                  then begin
                    incr attempted;
                    match
                      prove_pair enc ntk ~deadline
                        ~conflict_budget:options.conflict_budget ~rng rep y c
                    with
                    | Proved ->
                      incr proved;
                      incr merges;
                      Profile.incr Profile.Sweep_pairs_proved;
                      Profile.incr Profile.Sweep_merges;
                      merged.(y) <- true;
                      repr.(y) <-
                        Some
                          (if rep = 0 then Ntk.lit_const c
                           else Ntk.lit_of_var rep c)
                    | Refuted cex ->
                      incr refuted;
                      incr ncex;
                      Profile.incr Profile.Sweep_pairs_refuted;
                      cexs := cex :: !cexs
                    | Skipped ->
                      incr skipped;
                      Profile.incr Profile.Sweep_pairs_skipped;
                      excluded.(y) <- true
                  end
                  else if !ncex >= options.max_cex_per_round then stop := true)
                members)
          classes;
        (* reclaim the round's retired miter clauses in one pass *)
        if !attempted > 0 then Solver.simplify enc.solver);
    candidates := !candidates + !attempted;
    (* members never attempted this round (deadline or cex cap): if the
       sweep is over, account them as skipped *)
    let unattempted = total_members - !attempted in
    if !cexs = [] then begin
      continue_ := false;
      if unattempted > 0 then begin
        skipped := !skipped + unattempted;
        candidates := !candidates + unattempted;
        Profile.add Profile.Sweep_pairs_skipped unattempted
      end
    end
    else begin
      (* 4. feed the counterexamples back as simulation patterns *)
      let cex_list = List.rev !cexs in
      cex_total := !cex_total + List.length cex_list;
      Profile.add Profile.Sweep_cex_patterns (List.length cex_list);
      pending := [ pack_cexs rng pis cex_list ];
      if Deadline.expired deadline && unattempted > 0 then begin
        skipped := !skipped + unattempted;
        candidates := !candidates + unattempted
      end
    end
  done;
  (* deadline hit before the loop re-entered: remaining work was
     already accounted above; now merge and verify *)
  let out = Ntk.extract ~repr:(fun v -> repr.(v)) ntk in
  let verified, verify_method = Pass.verify_equivalent ntk out in
  let sat1 = Solver.stats enc.solver in
  let sat =
    { sat1 with
      Solver.decisions = sat1.Solver.decisions - sat0.Solver.decisions;
      propagations = sat1.Solver.propagations - sat0.Solver.propagations;
      conflicts = sat1.Solver.conflicts - sat0.Solver.conflicts }
  in
  ( out,
    { ands_before;
      ands_after = Ntk.count_live out;
      depth_before;
      depth_after = Ntk.depth out;
      classes = !classes_initial;
      candidates = !candidates;
      pairs_proved = !proved;
      pairs_refuted = !refuted;
      pairs_skipped = !skipped;
      merges = !merges;
      rounds = !rounds;
      cex_patterns = !cex_total;
      sat_vars = enc.encoded;
      sat;
      verified;
      verify_method;
      elapsed = Stp_util.Unix_time.now () -. t0 } )

let pass ?(options = default_options) () =
  { Pass.name = "sweep";
    run =
      (fun ntk ->
        let out, r = run ~options ntk in
        ( out,
          { Pass.pass = "sweep";
            ands_before = r.ands_before;
            ands_after = r.ands_after;
            depth_before = r.depth_before;
            depth_after = r.depth_after;
            verified = r.verified;
            verify_method = r.verify_method;
            elapsed_s = r.elapsed;
            detail =
              [ ("classes", r.classes);
                ("candidates", r.candidates);
                ("pairs_proved", r.pairs_proved);
                ("pairs_refuted", r.pairs_refuted);
                ("pairs_skipped", r.pairs_skipped);
                ("merges", r.merges);
                ("rounds", r.rounds);
                ("cex_patterns", r.cex_patterns);
                ("sat_conflicts", r.sat.Solver.conflicts) ] } )) }
