(* Measurement plumbing shared by every workload: a monotonic clock,
   order statistics, peak-memory readings from /proc, forked children
   for cold set-up and per-leg memory, the round loop, and the
   metric/check accumulators a run prints at the end. *)

module Json = Stp_telemetry.Json
module Profile = Stp_util.Profile

let now () = float_of_int (Profile.now_ns ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* {2 Order statistics} *)

(* Nearest-rank quantile: the value at rank ceil (q * n). *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0.0 xs

let ratio num den =
  if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* {2 Memory} *)

(* A "<field>:   <n> kB" line of /proc/<pid>/status, in MB; 0 once the
   process is gone. *)
let proc_status_mb pid field =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let prefix = field ^ ":" in
    let n = String.length prefix in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | l when String.length l > n && String.sub l 0 n = prefix ->
        Scanf.sscanf (String.sub l n (String.length l - n)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

let hwm_mb pid = proc_status_mb pid "VmHWM"
let self_hwm_mb () = hwm_mb (Unix.getpid ())
let self_rss_mb () = proc_status_mb (Unix.getpid ()) "VmRSS"

(* Compact the heap and restart this process's VmHWM from the current
   RSS (Linux clear_refs), so a peak can be read per round. *)
let reset_hwm () =
  Gc.compact ();
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

(* {2 Forked children} *)

(* Run [f] in a forked child and return its result (marshalled back
   over a pipe) with the child's VmHWM. The child starts from this
   process's state and takes everything it allocates with it, so cold
   tables are paid again and memory is measured per call. Must run
   before the process spawns a domain (OCaml 5 forbids fork after
   that). *)
let in_child f =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    (match f () with
     | r ->
       Marshal.to_channel oc (r, self_hwm_mb ()) [];
       close_out oc;
       Unix._exit 0
     | exception e ->
       prerr_endline ("[perfbench] child failed: " ^ Printexc.to_string e);
       Unix._exit 2)
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r = try Some (Marshal.from_channel ic) with End_of_file -> None in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    (match r with Some r -> r | None -> failwith "a forked child produced no result")

(* Time [f] cold, [k] times, each in its own child. *)
let cold_samples k f = List.init k (fun _ -> fst (in_child (fun () -> snd (time f))))

(* {2 Rounds} *)

(* Run [round ()] until [seconds] are spent: at least one round, and no
   further round once the median round so far would overrun. *)
let rounds ~seconds round =
  let t0 = now () in
  let rec go acc walls =
    let r, dt = time round in
    Printf.eprintf "[perfbench] round %d: %.4f s\n%!" (List.length acc) dt;
    let acc = r :: acc and walls = dt :: walls in
    if now () -. t0 +. median walls > seconds then List.rev acc
    else go acc walls
  in
  go [] []

(* {2 Results} *)

let metrics : (string * float) list ref = ref []
let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []

let set name value = metrics := (name, value) :: List.remove_assoc name !metrics

(* One operation's output check; a failed check counts the operation as
   failed and names the reason on stderr. *)
let check ok what =
  if not ok then begin
    incr failed;
    if List.length !failures < 20 then failures := what :: !failures
  end

let attempt n = attempted := !attempted + n

(* [names] pairs each reported metric with its unit; a layer the
   workload never reaches reads 0. *)
let result_json ~names ~required =
  let metric (name, unit_) =
    let value =
      match List.assoc_opt name !metrics with
      | Some v -> v
      | None when required -> failwith ("metric not measured: " ^ name)
      | None -> 0.0
    in
    (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ])
  in
  Json.Obj
    [ ("correct", Json.Bool (!failed = 0));
      ("attempted", Json.Int (max 1 !attempted));
      ("failed", Json.Int (min !failed (max 1 !attempted)));
      ("metrics", Json.Obj (List.map metric names)) ]
