(** NPN-cached exact cut rewriting (DAG-aware, ABC-style).

    For every AND node, in topological order: enumerate its k-feasible
    cuts ({!Cuts}), NPN-canonicalise each cut function and obtain {e
    all} optimum chains for its class from {!Stp_synth.Npn_cache} —
    the paper's one-pass all-solutions output is what makes trying
    several structurally different optima per cut cheap — then measure
    for each candidate chain the gain: the node's MFFC (the logic that
    dies with it) minus the AND nodes the chain actually needs, shared
    structure found by hashing counting as free. The best strictly
    positive replacement is recorded and the network is rebuilt once
    at the end ({!Ntk.extract}).

    Every replacement chain is checked by simulation against the cut
    function before it is accepted, and the rebuilt network is
    verified against the input network — exhaustively up to 16 inputs,
    by random 64-bit vector simulation above.

    Synthesis runs per NPN class, not per node: distinct classes are
    collected first and fanned over a {!Stp_parallel.Pool} to warm the
    shared cache, so the apply pass is replay-only. Per-class work is
    bounded by [options.timeout] (a {!Stp_util.Deadline} inside the
    engines); classes that time out are simply never rewritten. *)

type options = {
  cut_size : int;  (** k of the cut enumeration, clamped to [2 .. 6] *)
  cut_limit : int; (** priority cuts kept per node *)
  timeout : float; (** per-class synthesis budget, seconds *)
  jobs : int;      (** domains for the class-synthesis phase *)
  basis : Stp_chain.Gate.code list option;
    (** gate library for the replacement chains; the default
        {!and_basis} makes every chain step exactly one AND node, so
        chain length = structural cost *)
  max_chains : int; (** optimum chains tried per cut *)
}

val and_basis : Stp_chain.Gate.code list
(** The eight AND-like gates [[1; 2; 4; 7; 8; 11; 13; 14]] — AND
    closed under input/output complementation, i.e. exactly what one
    AIG node plus edge complements realises. *)

val default_options : options
(** [cut_size = 4], [cut_limit = 8], [timeout = 5.0], [jobs = 1],
    [basis = Some and_basis], [max_chains = 8]. *)

type report = {
  ands_before : int;    (** live AND count of the input network *)
  ands_after : int;
  depth_before : int;
  depth_after : int;
  applied : int;        (** nodes whose best cut won (gain > 0) *)
  candidates : int;     (** (node, cut) pairs considered *)
  classes : int;        (** distinct NPN classes sent to synthesis *)
  cache : Stp_synth.Npn_cache.stats;
  verified : bool;      (** input and output networks agree *)
  verify_method : string; (** ["exhaustive"] or ["random:<rounds>"] *)
  elapsed : float;
}

val gain : report -> int
(** [ands_before - ands_after]. *)

val run :
  ?options:options -> ?cache:Stp_synth.Npn_cache.t -> Ntk.t -> Ntk.t * report
(** Rewrites a copy (the input network itself is only extended with
    scratch nodes, never functionally changed; re-{!Ntk.extract} it if
    the extra capacity matters). Pass [cache] to carry solved classes
    across benchmarks of one run — it must only ever be used with one
    [basis]. *)

val verify_equivalent : Ntk.t -> Ntk.t -> bool * string
(** The final check used by {!run} — an alias of
    {!Pass.verify_equivalent}, kept here for the CLI and tests:
    exhaustive truth-table comparison when [num_pis <= 16], otherwise
    256 rounds of 64-bit random-vector simulation (seeded, so
    deterministic). Networks must agree on input and output counts. *)

val pass : ?options:options -> ?cache:Stp_synth.Npn_cache.t -> unit -> Pass.t
(** The rewriter as a pipeline pass named ["rewrite"]; stats carry
    [applied]/[candidates]/[classes]/[cache_hits]/[cache_misses]/
    [cache_known_timeouts] in [detail]. Register it with
    {!Pass.register} to make it reachable from a [--passes] spec. *)
