type transform = {
  perm : int array;
  input_neg : int;
  output_neg : bool;
}

let identity n = { perm = Array.init n (fun i -> i); input_neg = 0; output_neg = false }

let apply t tr =
  let n = Tt.num_vars t in
  if Array.length tr.perm <> n then invalid_arg "Npn.apply";
  let t = ref t in
  for i = 0 to n - 1 do
    if (tr.input_neg lsr i) land 1 = 1 then t := Tt.negate_var !t i
  done;
  let t = Tt.permute !t tr.perm in
  if tr.output_neg then Tt.bnot t else t

let inverse tr =
  let n = Array.length tr.perm in
  (* With sigma the minterm map of perm (bit i of m lands at position
     perm(i)) and nu the negation mask, [apply t tr] computes
     m -> t(sigma(m) xor nu) xor o.  Since sigma is coordinate-linear,
     the inverse is perm' = perm⁻¹ and nu' = sigma⁻¹(nu), same output
     flag: bit j of nu lands at position perm⁻¹(j) of nu'. *)
  let perm' = Array.make n 0 in
  Array.iteri (fun i p -> perm'.(p) <- i) tr.perm;
  let neg' = ref 0 in
  for j = 0 to n - 1 do
    if (tr.input_neg lsr j) land 1 = 1 then neg' := !neg' lor (1 lsl perm'.(j))
  done;
  { perm = perm'; input_neg = !neg'; output_neg = tr.output_neg }

let permutations n =
  let rec insert_everywhere x = function
    | [] -> [ [ x ] ]
    | y :: ys as l ->
      (x :: l) :: List.map (fun r -> y :: r) (insert_everywhere x ys)
  in
  let rec perms = function
    | [] -> [ [] ]
    | x :: xs -> List.concat_map (insert_everywhere x) (perms xs)
  in
  perms (List.init n (fun i -> i)) |> List.map Array.of_list

(* {2 The orbit walk}

   A table of n <= 6 inputs is one 64-bit word. The walk visits its
   whole NPN orbit by single moves on that word: the n! input orders
   in Steinhaus–Johnson–Trotter order (one adjacent-variable swap per
   step), under each order the 2^n input polarities in reflected Gray
   code (one input flip per step), and both output polarities at every
   step. The transform reaching the current word is kept as
   [apply t { perm; input_neg; _ } = word]: a swap of variables p and
   p + 1 swaps perm's entries p and p + 1, a flip of variable j
   toggles bit perm(j) of input_neg. *)

(* Variable [i]'s minterm pattern within one word. *)
let patterns =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

(* Complement input [i]: swap the halves of every 2^(i+1)-bit block. *)
let[@inline] flip w i =
  let s = 1 lsl i and p = Array.unsafe_get patterns i in
  Int64.(
    logor
      (shift_right_logical (logand w p) s)
      (shift_left (logand w (lognot p)) s))

(* Swap inputs [i] and [i + 1]: a delta swap of the minterms with
   x_i = 1, x_(i+1) = 0 against the ones 2^i above them. *)
let[@inline] swap w i =
  let s = 1 lsl i in
  let m =
    Int64.logand (Array.unsafe_get patterns i)
      (Int64.lognot (Array.unsafe_get patterns (i + 1)))
  in
  let d = Int64.(logand (logxor (shift_right_logical w s) w) m) in
  Int64.(logxor w (logxor d (shift_left d s)))

(* Position p of the [s]-th adjacent transposition (p <-> p + 1),
   1 <= s < n!, of the Steinhaus–Johnson–Trotter order on [n]
   elements: the largest element sweeps right to left, then left to
   right, and between two sweeps the order on [n - 1] takes a step,
   shifted past the largest element when that sits at the left end. *)
let rec sjt_step n s =
  let q = s / n and r = s mod n in
  if r <> 0 then if q land 1 = 0 then n - 1 - r else r - 1
  else sjt_step (n - 1) q + (q land 1)

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

(* A permutation of at most 6 entries packed three bits per entry. *)
let[@inline] entry perm i = (perm lsr (3 * i)) land 7

let[@inline] swap_entries perm i =
  let d = entry perm i lxor entry perm (i + 1) in
  perm lxor ((d lsl (3 * i)) lor (d lsl (3 * (i + 1))))

(* Walks the orbit of the [n]-input word [w0] and returns the least
   member under [Tt.compare]'s order (a signed word compare; at n < 6
   the word is non-negative), with the packed permutation, input mask
   and output flag that first reached it. When [marks] is non-empty
   (n <= 4), every member's slot in it is set to [rep] on the way. *)
let walk n w0 ~(marks : int array) ~rep =
  let full =
    if n >= 6 then -1L else Int64.(sub (shift_left 1L (1 lsl n)) 1L)
  in
  let marking = Array.length marks > 0 in
  let w = ref w0 and perm = ref 0 and neg = ref 0 in
  for i = 0 to n - 1 do
    perm := !perm lor (i lsl (3 * i))
  done;
  let best = ref w0 and best_perm = ref !perm and best_neg = ref 0 in
  let best_gray = ref 0 and best_out = ref false in
  for s = 0 to factorial n - 1 do
    if s > 0 then begin
      let p = sjt_step n s in
      w := swap !w p;
      perm := swap_entries !perm p
    end;
    for k = 0 to (1 lsl n) - 1 do
      if k > 0 then begin
        (* Gray-code step k flips the variable of k's lowest set bit. *)
        let j = ref 0 in
        while (k lsr !j) land 1 = 0 do
          incr j
        done;
        w := flip !w !j
      end;
      let c = Int64.logxor !w full in
      if marking then begin
        marks.(Int64.to_int !w) <- rep;
        marks.(Int64.to_int c) <- rep
      end;
      if !w < !best || c < !best then begin
        let out = c < !w in
        best := (if out then c else !w);
        best_perm := !perm;
        best_neg := !neg;
        best_gray := k lxor (k lsr 1);
        best_out := out
      end
    done;
    (* The Gray code ends with only the last variable flipped. *)
    if n > 0 then neg := !neg lxor (1 lsl entry !perm (n - 1))
  done;
  (* The flips since the best permutation began, in the current
     variables, mapped onto the target's through that permutation. *)
  let input_neg = ref !best_neg in
  for i = 0 to n - 1 do
    if (!best_gray lsr i) land 1 = 1 then
      input_neg := !input_neg lxor (1 lsl entry !best_perm i)
  done;
  ( !best,
    { perm = Array.init n (entry !best_perm);
      input_neg = !input_neg;
      output_neg = !best_out } )

let canonical t =
  let n = Tt.num_vars t in
  if n > 6 then invalid_arg "Npn.canonical: more than 6 inputs";
  let w, tr = walk n (Tt.to_words t).(0) ~marks:[||] ~rep:0 in
  (Tt.of_words n [| w |], tr)

let is_canonical t = Tt.equal t (fst (canonical t))

(* Ascending sweep over every [n]-input function: the first member of
   a class met is its least, and the walk marks its whole orbit. *)
let sweep n =
  let marks = Array.make (1 lsl (1 lsl n)) (-1) in
  for v = 0 to Array.length marks - 1 do
    if marks.(v) < 0 then ignore (walk n (Int64.of_int v) ~marks ~rep:v)
  done;
  marks

let canon4_table = lazy (sweep 4)

let canon4 v =
  if v < 0 || v >= 1 lsl 16 then invalid_arg "Npn.canon4";
  (Lazy.force canon4_table).(v)

let classes n =
  if n > 4 then invalid_arg "Npn.classes: n too large for exhaustive sweep";
  let marks = sweep n in
  let reps = ref [] in
  for v = Array.length marks - 1 downto 0 do
    if marks.(v) = v then reps := Tt.of_int n v :: !reps
  done;
  !reps
