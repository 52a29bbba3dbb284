(** NPN-class synthesis cache.

    NPN4 has only 222 classes behind the 65 536 4-input functions, and
    every member of a class has the same optimum gate count, with the
    optimum chains mapped onto each other by the class transform. This
    module exploits that: before a full synthesis run the target is
    canonicalised with {!Stp_tt.Npn.canonical}; on a cache hit the
    stored optimum chains of the class representative are replayed
    through the inverse transform (fanins permuted/negated into gate
    codes, output negation folded in) instead of re-searching.

    Verification discipline: the full dedup + circuit-SAT check
    ({!Common.optimal_and_verified}) runs {e once per class}, against
    the canonical target, when the entry is stored. Each subsequent
    replay only re-simulates the transformed chain — a cheap
    bit-parallel equality that still catches any transform-algebra bug
    without re-paying the paper's step (iv) per class member.

    The cache is protected by a mutex and may be shared between the
    domains of a parallel collection run: a class solved by one domain
    is a replay for every other. (The wrapped solver itself runs
    outside the lock; two domains missing on the same class
    concurrently both solve it, and the first store wins.)

    Timeouts are remembered per class, by budget. A miss always solves
    the class {e representative}, so a retry of a class that timed out
    reruns the very search that already failed. When the wrapped solver
    returns [Timeout], the class gets a {e timeout record}: "timed out
    under a budget of b seconds", b being {!Stp_util.Deadline.budget}
    of the request's deadline. A later lookup whose budget is [<= b]
    answers [Timeout] at once (a {!stats.known_timeouts}, not a miss);
    a larger budget retries and, if it times out too, raises b. A
    [Solved] result supersedes the record. The same record holds the
    class's best-known upper bound ({!answer.upper_bound}), computed
    once. Records are never [Solved] answers: they are kept in memory
    only, never listed by {!entries} or counted by {!classes}, and so
    never persisted — a fresh process re-learns them.

    Functions whose support exceeds 6, the limit of
    {!Stp_tt.Npn.canonical}, bypass the cache and are solved directly.

    Entries can be exported ({!entries}) and re-imported
    ({!add_entry}), which is how {!Stp_store.Store} persists a cache
    across processes. *)

type t

val create : unit -> t

type solver = Engine.spec -> deadline:Stp_util.Deadline.t -> Engine.result
(** The shape of {!Engine.S.synthesize} as a plain function. *)

type source =
  | Replay  (** a cached optimum replayed onto the target *)
  | Solve
      (** the wrapped solver ran (a miss, a bypass, a fallback), or the
          target needed no search *)
  | Known_timeout  (** a timeout record answered without a solve *)

type answer = {
  result : Engine.result;
  source : source;
  upper_bound : Stp_chain.Chain.t Lazy.t;
      (** a verified chain for the target, for callers degrading a
          [Timeout]: the class's best-known upper bound —
          {!Baselines.upper_bound} of the representative under each of
          its input orders, the smallest kept — replayed through the
          inverse transform and re-simulated like a cached optimum.
          Computed on force, once per timed-out class. Targets the
          cache does not canonicalise get their own
          {!Baselines.upper_bound}; forcing raises [Invalid_argument]
          on constants. *)
}

val solve : t -> solver -> Engine.spec -> deadline:Stp_util.Deadline.t -> answer
(** [solve t s spec ~deadline] answers [spec] through the cache: a
    replay when the class is cached, [Timeout] when a record shows the
    class timing out under at least this budget, and otherwise a solve
    of the {e class representative} by [s] (so the entry serves the
    whole class), replayed onto the concrete target. The target is
    canonicalised once, for the answer and its bound alike. *)

val wrap_solver : t -> solver -> solver
(** The [result] of {!solve}. *)

val wrap : t -> (module Engine.S) -> (module Engine.S)
(** [wrap t e] is an engine with identical per-instance semantics that
    answers through {!solve}. Keep one cache per engine: entries store
    the wrapped engine's chain sets, and engines differ in how many
    optimum chains they return. *)

val synthesize :
  ?options:Spec.options ->
  ?memo:Factor.memo ->
  ?deadline:Stp_util.Deadline.t ->
  t ->
  Stp_tt.Tt.t ->
  Engine.result
(** [wrap] applied to {!Engine.stp}, under [deadline] (default
    {!Stp_util.Deadline.never}). *)

type stats = {
  hits : int;      (** lookups answered by replaying a cached class *)
  misses : int;    (** lookups that had to run a full synthesis *)
  known_timeouts : int;
    (** lookups answered [Timeout] at once by a timeout record *)
  bypassed : int;  (** instances too wide to canonicalise *)
  failures : int;
    (** replayed chains that failed re-simulation (a transform-algebra
        bug surfaced — the instance was re-solved directly, or given
        its own {!Baselines.upper_bound}) *)
}

val stats : t -> stats

val hit_rate : t -> float
(** [hits / (hits + misses)]; 0 before any lookup. *)

val classes : t -> int
(** Number of distinct NPN classes currently cached. *)

val unproven : t -> int
(** Number of classes holding a timeout record (none of them counted by
    {!classes}). *)

(** {1 Persistence hooks} *)

type entry = {
  gates : int;  (** the class's optimum gate count *)
  chains : Stp_chain.Chain.t list;
      (** optimum chains over the canonical function's variable space *)
}

val entries : t -> (Stp_tt.Tt.t * entry) list
(** Snapshot of every cached class, keyed by canonical representative
    (unordered). *)

val add_entry : t -> Stp_tt.Tt.t -> entry -> bool
(** [add_entry t canon entry] seeds the cache with an externally
    persisted class. The entry is sanitised, not trusted: the key must
    be the canonical representative of a class of at most 6 inputs, and
    only chains of the recorded size that simulate to the key are kept.
    Returns
    [false] (and stores nothing) when nothing survives or the class is
    already cached. *)
