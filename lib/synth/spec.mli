(** The search options every exact-synthesis engine reads, and the
    per-instance row of a Table I run.

    Options say {e what} to search for; they carry no time limit. Every
    entry point takes its budget as an explicit
    [~deadline:]{!Stp_util.Deadline.t} and answers
    {!Common.outcome} ({!Engine.result} for single-output chains). *)

type status =
  | Solved
  | Timeout
      (** the per-instance deadline expired, or the engine answered
          [Infeasible]: Table I counts both as unsolved *)

type result = {
  status : status;
  chains : Stp_chain.Chain.t list;
    (** all optimum chains for the STP engine, at most one for the
        CNF-based baselines; empty on timeout *)
  gates : int option; (** optimum gate count when solved *)
  elapsed : float;    (** wall-clock seconds *)
}
(** One instance of a collection run, as
    {!Stp_harness.Runner.run_collection} reports it to its
    [on_instance] observer. *)

type options = {
  max_gates : int;
    (** the largest gate count searched; when every count up to it is
        refuted the answer is [Infeasible] *)
  solution_cap : int;     (** cap on the number of chains collected *)
  all_shapes : bool;
    (** [false] (paper semantics): return all optimum chains of the
        first DAG topology that realises the target — "all optimal
        solutions under the current constraints in one pass".
        [true]: sweep every shape of the optimum gate count. *)
  use_dsd : bool;
    (** Peel disjoint-support decompositions before the topology search:
        a target [f = phi(g(A), h(B))] with disjoint [A], [B] is
        synthesised as optimum sub-chains joined by [phi], so the shape
        enumeration only ever runs on prime blocks. Gate-count
        optimality under this switch assumes disjoint decompositions
        compose additively, which the test suite cross-checks against
        the CNF baselines on every collection. *)
  basis : Stp_chain.Gate.code list option;
    (** Restrict the gate library, e.g. the AND class
        [[1; 2; 4; 7; 8; 11; 13; 14]] for AIG-style synthesis or
        [[8; 14; 6; 9; 7; 1]] for an AND/OR/XOR library. [None] allows
        all ten nontrivial 2-input gates. For identical optima across
        the STP engine and the CNF baselines the basis should be closed
        under operand swap and input/output complementation. *)
  max_depth : int option;
    (** Bound the logic depth: only topologies of at most this many
        levels are searched (every engine routes through the fence
        family for this, so the returned chain is size-optimal among
        chains respecting the bound). Disables DSD peeling in the STP
        engine, whose compositions do not control depth. *)
}

val default_options : options
(** [max_gates = 14], [solution_cap = 2000], [all_shapes = false],
    [use_dsd = true], the full basis, no depth bound. *)

val solved : chains:Stp_chain.Chain.t list -> gates:int -> elapsed:float -> result

val timed_out : elapsed:float -> result
