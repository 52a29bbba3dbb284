(** NPN classification of Boolean functions.

    Two functions are NPN-equivalent when one is obtained from the other
    by negating inputs, permuting inputs, and possibly negating the
    output. The canonical representative of a class is the minimum truth
    table (w.r.t. {!Tt.compare}) over the whole orbit, so canonicity is a
    simple equality test.

    Canonicalisation walks the whole orbit, all [n! * 2^(n+1)]
    transforms, on one 64-bit word without allocating: adjacent input
    swaps in Steinhaus–Johnson–Trotter order, input flips in Gray-code
    order under each input order, and both output polarities at every
    step. Tables of up to 6 inputs are supported. *)

type transform = {
  perm : int array;  (** input permutation; see {!apply} *)
  input_neg : int;   (** bitmask of complemented inputs *)
  output_neg : bool; (** whether the output is complemented *)
}

val identity : int -> transform
(** [identity n] is the neutral transform on [n] variables. *)

val apply : Tt.t -> transform -> Tt.t
(** [apply t tr] complements the inputs of [t] selected by
    [tr.input_neg], then permutes inputs by [tr.perm] (in the sense of
    {!Tt.permute}), then complements the output if [tr.output_neg]. *)

val inverse : transform -> transform
(** [inverse tr] undoes [tr]: [apply (apply t tr) (inverse tr) = t]. *)

val canonical : Tt.t -> Tt.t * transform
(** [canonical t] is the class representative [r] together with a
    transform [tr] such that [apply t tr = r]. Where [r] has
    automorphisms, several transforms qualify and [tr] is any one of
    them; [r] itself is unique. [BENCH_npn.json] records the cost per
    call.
    @raise Invalid_argument when [Tt.num_vars t > 6]. *)

val is_canonical : Tt.t -> bool

val classes : int -> Tt.t list
(** [classes n] enumerates the canonical representatives of all NPN
    classes of [n]-variable functions, ascending; practical for
    [n <= 4]. [classes 4] has 222 elements. *)

val permutations : int -> int array list
(** [permutations n] lists all permutations of [0 .. n-1]. *)

val canon4 : int -> int
(** [canon4 v] is the canonical representative (as a 16-bit integer
    truth table) of the NPN class of the 4-variable function [v]. Backed
    by a table over all 65536 functions, built on the first call by one
    orbit walk per class; O(1) after that. *)
