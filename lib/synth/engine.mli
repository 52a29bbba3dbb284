(** The unified synthesis-engine API.

    Every exact engine in the repo — the paper's STP AllSAT engine and
    the three CNF baselines — is exposed behind one module type:
    a [synthesize] function from a {!spec} (target, options, optional
    factor memo) and an explicit deadline to one three-way {!result}.
    The harness ({!Stp_harness.Runner}), the NPN cache ({!Npn_cache})
    and the netlist rewriter consume engines only through this
    signature, so adding an engine is implementing [S] once.

    {!result} is {!Common.outcome} over chain lists, constructors
    included: the direct entry points ({!Stp_exact.synthesize},
    {!Baselines.bms}, {!Baselines.fen}, {!Baselines.abc},
    {!Npn_cache.synthesize}) answer the same type, and {!Multi} answers
    it over multi-output chains. No option carries a time limit: every
    caller — a service handing out per-request budgets, a collection
    runner, the CLI — builds the deadline itself. *)

type spec = {
  target : Stp_tt.Tt.t;
  options : Spec.options;
  memo : Factor.memo option;
      (** reusable factorisation memo; engines that cannot use one
          ignore it *)
}

val spec : ?options:Spec.options -> ?memo:Factor.memo -> Stp_tt.Tt.t -> spec
(** [spec f] with {!Spec.default_options} and no memo. *)

type 'a outcome = 'a Common.outcome =
  | Solved of 'a
      (** for {!result}: all optimum chains found (non-empty; every
          chain has the same optimum size, readable as {!gates}) *)
  | Timeout  (** the deadline expired before an answer *)
  | Infeasible
      (** no chain exists within the spec's constraints: a constant
          target, or every gate count up to [options.max_gates]
          refuted *)

type result = Stp_chain.Chain.t list outcome

module type S = sig
  val name : string

  val synthesize : spec -> deadline:Stp_util.Deadline.t -> result
end

val stp : (module S)
(** The paper's STP AllSAT engine ({!Stp_exact}); name ["STP"]. *)

val bms : (module S)
(** Busy-man's-synthesis CNF baseline; name ["BMS"]. *)

val fen : (module S)
(** Fence-enumeration CNF baseline; name ["FEN"]. *)

val lutexact : (module S)
(** The CEGAR analogue of ABC's [lutexact]; name ["ABC"]. *)

val all : (module S) list
(** BMS, FEN, ABC, STP — the paper's column order. *)

val name : (module S) -> string

val find : string -> (module S) option
(** Look an engine up by (case-insensitive) name. *)

val gates : result -> int option
(** The optimum gate count of a [Solved] result (the size of its
    chains); [None] otherwise. *)

val outcome_label : _ outcome -> string
(** ["solved"], ["timeout"] or ["infeasible"] — the histogram and
    response-status vocabulary shared by the harness and the daemon. *)

val observed : (module S) -> (module S)
(** Telemetry decorator: the same engine, with a
    {!Stp_telemetry.Trace} span per [synthesize] call (named
    [synth.<engine>], tagged with the target arity) and — when
    {!Stp_telemetry.Telemetry.metrics_enabled} — call latencies
    recorded into the registered histograms [engine/<name>] and
    [engine/<name>/<outcome>]. Free when tracing and metrics are both
    off (two [ref] reads per call). *)
