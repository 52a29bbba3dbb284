exception Timeout

type t =
  | Never
  | At of {
      limit : float;
      budget : float;
      interval : int;
      mutable countdown : int;
      mutable hit : bool;
    }

(* Default polling granularity: consult the wall clock once per
   [default_poll_interval] calls. *)
let default_poll_interval = 256

let never = Never

let after ?(poll_interval = default_poll_interval) s =
  if poll_interval < 1 then invalid_arg "Deadline.after: poll_interval < 1";
  At
    { limit = Unix_time.now () +. s;
      budget = s;
      interval = poll_interval;
      countdown = 0;
      hit = false }

(* Expiry latches: the clock is monotonic, so once a poll observes the
   limit passed every later poll must agree. Without the latch a
   re-armed countdown would report "not expired" for the next
   [interval - 1] polls — callers making coarse-grained progress
   between polls (one SAT call per poll, say) could then overrun the
   deadline by hundreds of work items. *)
let expired = function
  | Never -> false
  | At d ->
    d.hit
    ||
    if d.countdown > 0 then begin
      d.countdown <- d.countdown - 1;
      false
    end
    else begin
      (* Re-arm so the clock is read once every [interval] polls;
         [interval = 1] reads it on every poll. *)
      d.countdown <- d.interval - 1;
      if Unix_time.now () > d.limit then begin
        d.hit <- true;
        true
      end
      else false
    end

let check d = if expired d then raise Timeout

let budget = function Never -> infinity | At d -> d.budget

let remaining = function
  | Never -> infinity
  | At d -> Float.max 0.0 (d.limit -. Unix_time.now ())
