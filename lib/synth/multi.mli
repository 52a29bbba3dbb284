(** Multi-output synthesis: the full Boolean-chain model of Section
    II-B, where one shared gate pool drives several outputs.

    Both entry points take one explicit deadline for the whole call and
    answer {!Common.outcome} over one multi-output chain, whose size is
    {!Stp_chain.Mchain.size}. A constant output answers [Infeasible]:
    no chain signal computes it. Outputs must share one arity.
    @raise Invalid_argument on an empty output array or mixed
    arities. *)

val exact :
  ?incremental:bool ->
  ?options:Spec.options ->
  deadline:Stp_util.Deadline.t ->
  Stp_tt.Tt.t array ->
  Stp_chain.Mchain.t Common.outcome
(** Size-optimal multi-output chain via the multi-output SSV encoding on
    the CDCL solver — exact, one solution; [Infeasible] when every gate
    count up to [options.max_gates] is refuted. Incremental by default:
    one solver spans the whole gate-budget sweep, with per-budget
    selector literals ({!Stp_encodings.Ssv_multi.Inc});
    [~incremental:false] rebuilds solver and encoding per budget. *)

val stp_shared :
  ?options:Spec.options ->
  deadline:Stp_util.Deadline.t ->
  Stp_tt.Tt.t array ->
  Stp_chain.Mchain.t Common.outcome
(** Heuristic multi-output synthesis in the STP spirit: each output is
    synthesised exactly (all optimum chains), then one chain per output
    is chosen to maximise structural sharing and the union is merged
    with {!Stp_chain.Chain_opt}-style hashing. An upper bound on the
    exact multi-output optimum — fast where {!exact} is not. The
    outputs are searched in turn under the one deadline; the first
    that does not solve decides the answer. *)
