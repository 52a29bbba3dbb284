(** Shared plumbing for all synthesis engines: the one answer type,
    support reduction and trivial-target handling. *)

type 'a outcome =
  | Solved of 'a
      (** the optimum: all optimum chains for the STP engine, one for
          the CNF baselines, one multi-output chain for {!Multi} *)
  | Timeout  (** the deadline expired before an answer *)
  | Infeasible
      (** no chain exists within the options: a constant target, or
          every gate count up to [max_gates] refuted *)
(** How every synthesis entry point ends a search. Each one takes an
    explicit {!Stp_util.Deadline.t} and answers this type;
    {!Engine.result} re-exports it for single-output chains. *)

val prepare :
  Stp_tt.Tt.t ->
  [ `Trivial of Stp_chain.Chain.t
  | `Reduced of Stp_tt.Tt.t * int list ]
(** [prepare f] projects the target onto its support. A target depending
    on one variable yields a gate-free chain ([`Trivial]); otherwise
    [`Reduced (g, support)] gives the compacted function and the original
    indices of its variables.
    @raise Invalid_argument on constant targets, which have no Boolean
    chain in this model. *)

val expand_chain :
  n:int -> support:int list -> Stp_chain.Chain.t -> Stp_chain.Chain.t
(** Lift a chain over the compacted variables back to the original
    [n]-variable space. *)

val optimal_and_verified :
  Stp_tt.Tt.t -> Stp_chain.Chain.t list -> Stp_chain.Chain.t list
(** Deduplicate (up to fanin order) and keep only chains that simulate
    to the target {e and} pass the circuit-solver verification — the
    paper's step (iv). *)
