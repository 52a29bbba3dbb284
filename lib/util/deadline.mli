(** Cooperative wall-clock deadlines.

    Long-running solvers poll a deadline at loop boundaries and abandon the
    search when it has expired, which is how the reproduction implements
    the paper's per-instance timeout without threads or signals.

    Monotonicity note: every time read goes through {!Unix_time.now},
    which is CLOCK_MONOTONIC (via {!Profile.now_ns}) — a deadline is
    immune to NTP adjustments and manual clock resets. It is still a
    cooperative bound, not a hard real-time one: expiry is only observed
    when the solver polls. *)

type t

val never : t
(** A deadline that never expires. *)

val after : ?poll_interval:int -> float -> t
(** [after s] expires [s] seconds from now.

    [poll_interval] is the throttle of {!expired}/{!check}: the wall
    clock is consulted once per [poll_interval] calls (default
    {!default_poll_interval}). Tests pass [~poll_interval:1] so expiry
    is observable on the very next poll without spinning thousands of
    calls or sleeping.
    @raise Invalid_argument when [poll_interval < 1]. *)

val default_poll_interval : int
(** Polls between two wall-clock reads when [after] is not told
    otherwise (256). *)

val expired : t -> bool
(** [expired d] is [true] once the wall clock has passed [d]. The check is
    throttled internally (see {!after}) so it is cheap to call in tight
    loops; consequently expiry may be reported up to [poll_interval - 1]
    calls late, never early. Expiry latches: once [expired] has
    returned [true] it returns [true] forever, even on the polls the
    throttle would otherwise answer without reading the clock. *)

val check : t -> unit
(** [check d] raises {!Timeout} if [d] has expired. *)

val budget : t -> float
(** [budget d] is the span [d] was created with: [s] for [after s],
    infinite for {!never}. Unlike {!remaining} it does not shrink as
    time passes, so it names the budget a solve ran under — what the
    NPN cache keys its timeout records by. *)

val remaining : t -> float
(** [remaining d] is the number of seconds left (infinite for {!never});
    unlike {!expired} this always reads the clock. *)

exception Timeout
