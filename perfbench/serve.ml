(* service-zipf: a cold sharded service (2 shards x 1 job, STP, 0.25 s
   per-request deadline, append-mode store in a scratch directory),
   driven over its JSON-lines protocol by one load-generator process on
   2 connections. Phase 1 is an open loop at a fixed rate, phase 2 a
   closed loop of fixed-size pipelined bursts. Every answer's chains
   are parsed and re-simulated against the requested target here. *)

module Tt = Stp_tt.Tt
module Npn = Stp_tt.Npn
module Chain = Stp_chain.Chain
module Json = Stp_telemetry.Json
module Wire = Stp_service.Wire
module Service = Stp_service.Service
module Prng = Stp_util.Prng
module Profile = Stp_util.Profile
module Trace = Stp_telemetry.Trace

let shards = 2
let timeout = 0.25
let rate = 10.0           (* open-loop requests per second *)
let burst = 40            (* requests per closed-loop burst *)
let window = 8            (* closed-loop requests in flight per connection *)
let late_bound_s = 0.05   (* generator lateness p99 above this invalidates a run *)

(* {2 The request stream} *)

(* Zipf (alpha 1.1) over the 221 synthesizable NPN4 classes. The class
   sequence comes from a fixed generator, so which classes arrive when
   (and so the cache's cold misses and the deadline-bound classes) is
   the same for every seed; the workload seed draws the random member
   of each class that is actually sent. *)
type stream = { classes : Stp_workloads.Zipf.t; members : Prng.t }

let stream ~seed = { classes = Stp_workloads.Zipf.create ~seed:1 (); members = Prng.create seed }

(* One draw: (class representative, a random member of its class). *)
let draw s =
  let cls = Stp_workloads.Zipf.next_class s.classes in
  let n = Tt.num_vars cls in
  let perm = Array.init n Fun.id in
  Prng.shuffle s.members perm;
  ( cls,
    Npn.apply cls
      { Npn.perm; input_neg = Prng.bits s.members n; output_neg = Prng.bool s.members } )

(* {2 Service lifecycle} *)

type service = { pid : int; addr : Wire.addr; dir : string }

let scratch_dir () =
  let d = Printf.sprintf ".perfbench/svc%d" (Unix.getpid ()) in
  if not (Sys.file_exists ".perfbench") then Unix.mkdir ".perfbench" 0o755;
  if not (Sys.file_exists d) then Unix.mkdir d 0o755;
  d

let round_trip addr line =
  let fd = Wire.connect ~attempts:1 addr in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Wire.send_lines fd [ line ];
  match Wire.next_line (Wire.line_reader fd) with
  | Some l -> Result.to_option (Json.of_string l)
  | None -> None

(* Fork a cold service and wait until it answers ping. *)
let spawn ~k =
  let dir = scratch_dir () in
  let socket = Printf.sprintf "%s/s%d.sock" dir k in
  let store = Printf.sprintf "%s/store%d" dir k in
  match Unix.fork () with
  | 0 ->
    (try
       Service.serve
         { Service.default_config with
           shards; jobs = 1; timeout; store; socket; window = 64 }
     with e ->
       prerr_endline ("service crashed: " ^ Printexc.to_string e);
       Unix._exit 1);
    Unix._exit 0
  | pid ->
    (* Poll every millisecond rather than through Wire.connect's
       exponential backoff, whose sleeps would dominate the set-up time. *)
    let addr = Wire.Unix_path socket in
    let rec ping tries =
      match round_trip addr {|{"type":"ping"}|} with
      | Some j when Json.member "status" j = Some (Json.String "pong") -> ()
      | _ -> failwith "service did not answer ping"
      | exception Unix.Unix_error _ when tries > 0 ->
        Unix.sleepf 0.001;
        ping (tries - 1)
    in
    ping 5000;
    { pid; addr; dir }

let stop svc =
  (try Unix.kill svc.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] svc.pid)

let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let shard_field stats key =
  match Json.member "shards" stats with
  | Some (Json.List l) ->
    List.map (fun s -> match Json.member key s with Some (Json.Int i) -> i | _ -> 0) l
  | _ -> []

(* {2 Answers and their checks} *)

(* Parse a [Chain.pp_compact] string: "x5=6(x1,x2); ...; f=!x6". *)
let parse_chain ~n s =
  let parts = List.filter (fun p -> p <> "") (List.map String.trim (String.split_on_char ';' s)) in
  let steps, out =
    List.fold_left
      (fun (steps, out) p ->
        if String.length p > 2 && String.sub p 0 2 = "f=" then
          let neg = p.[2] = '!' in
          let v = String.sub p (if neg then 3 else 2) (String.length p - if neg then 3 else 2) in
          (steps, Some (neg, int_of_string (String.sub v 1 (String.length v - 1)) - 1))
        else
          Scanf.sscanf p "x%d=%x(x%d,x%d)" (fun _ gate a b ->
              ({ Chain.fanin1 = a - 1; fanin2 = b - 1; gate } :: steps, out)))
      ([], None) parts
  in
  match out with
  | Some (output_negated, output) ->
    Chain.make ~n ~steps:(List.rev steps) ~output ~output_negated ()
  | None -> failwith "chain without output"

type answer = {
  status : string;
  source : string;
  elapsed : float;   (* daemon-side seconds *)
  client : float;    (* client-side seconds from the actual send *)
  due_lat : float;   (* client-side seconds from the scheduled send *)
  gates : int;
}

type pending = { id : int; cls : Tt.t; target : Tt.t; due : float; sent : float }

(* Solved gate count per class, shared by every member seen. *)
let class_gates : (string, int) Hashtbl.t = Hashtbl.create 64

let check_answer p line =
  match Json.of_string line with
  | Error e ->
    Meter.check false ("unparseable response: " ^ e);
    None
  | Ok j ->
    let str k = match Json.member k j with Some (Json.String s) -> s | _ -> "" in
    let num k = Option.value ~default:0.0 (Option.bind (Json.member k j) Json.to_float_opt) in
    Meter.check (Json.member "id" j = Some (Json.Int p.id))
      (Printf.sprintf "response out of order: expected id %d" p.id);
    let status = str "status" in
    let gates = match Json.member "gates" j with Some (Json.Int g) -> g | _ -> -1 in
    let chains = match Json.member "chains" j with Some (Json.List l) -> l | _ -> [] in
    let simulates = function
      | Json.String s -> (
        match parse_chain ~n:(Tt.num_vars p.target) s with
        | c -> Chain.size c = gates && Tt.equal (Chain.simulate c) p.target
        | exception _ -> false)
      | _ -> false
    in
    Meter.check
      ((status = "solved" || status = "upper_bound") && chains <> [] && List.for_all simulates chains)
      (Printf.sprintf "request %d (%s): status %s, chains do not realise the target"
         p.id (Tt.to_hex p.target) status);
    if status = "solved" then begin
      let cls = Tt.to_hex p.cls in
      match Hashtbl.find_opt class_gates cls with
      | None -> Hashtbl.replace class_gates cls gates
      | Some g ->
        Meter.check (g = gates)
          (Printf.sprintf "class %s solved with %d and %d gates" cls g gates)
    end;
    let t = Meter.now () in
    Some
      { status;
        source = str "source";
        elapsed = num "elapsed_s";
        client = t -. p.sent;
        due_lat = t -. p.due;
        gates }

type conn = { c : Wire.conn; inflight : pending Queue.t }

let request_line p =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Int p.id);
         ("n", Json.Int (Tt.num_vars p.target));
         ("tt", Json.String (Tt.to_hex p.target));
         ("timeout", Json.Float timeout) ])

(* Read whatever responses are ready on [conns] (waiting at most
   [wait] seconds), checking each against its request. *)
let pump conns ~wait on_answer =
  let reads = List.filter_map (fun k -> if Queue.is_empty k.inflight then None else Some (Wire.fd k.c)) conns in
  let writes = List.filter_map (fun k -> if Wire.pending_out k.c > 0 then Some (Wire.fd k.c) else None) conns in
  let readable, _, _ =
    if reads = [] && writes = [] then begin
      if wait > 0.0 then Unix.sleepf wait;
      ([], [], [])
    end
    else
      try Unix.select reads writes [] (Float.max 0.0 wait)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  List.iter
    (fun k ->
      if Wire.pending_out k.c > 0 && not (Wire.flush_out k.c) then
        failwith "service closed a connection";
      if List.mem (Wire.fd k.c) readable then begin
        List.iter
          (fun line ->
            match Queue.take_opt k.inflight with
            | None -> Meter.check false "response to no request"
            | Some p -> Option.iter on_answer (check_answer p line))
          (Wire.read_lines k.c);
        if Wire.eof k.c && not (Queue.is_empty k.inflight) then
          failwith "service closed a connection with requests outstanding"
      end)
    conns

let next_id = ref 0

let send k s ~due =
  let cls, target = draw s in
  let p = { id = !next_id; cls; target; due; sent = Meter.now () } in
  incr next_id;
  Meter.attempt 1;
  Wire.queue_line k.c (request_line p);
  ignore (Wire.flush_out k.c);
  Queue.add p k.inflight;
  p

let drain conns on_answer =
  while List.exists (fun k -> not (Queue.is_empty k.inflight)) conns do
    pump conns ~wait:1.0 on_answer
  done

(* Phase 1: requests due every 1/rate seconds, alternating connections,
   each timed from its due time. *)
let open_loop conns s ~seconds =
  let answers = ref [] and late = ref [] in
  let on_answer a = answers := a :: !answers in
  let t0 = Meter.now () in
  let n = max 1 (int_of_float (seconds *. rate)) in
  for i = 0 to n - 1 do
    let due = t0 +. (float_of_int i /. rate) in
    let rec wait () =
      let dt = due -. Meter.now () in
      if dt > 0.0 then begin
        pump conns ~wait:dt on_answer;
        wait ()
      end
    in
    wait ();
    let p = send (List.nth conns (i mod 2)) s ~due in
    late := (p.sent -. due) :: !late;
    pump conns ~wait:0.0 on_answer
  done;
  drain conns on_answer;
  (!answers, !late)

(* Phase 2: bursts of [burst] requests, each connection keeping up to
   [window] in flight; a burst's wall is first send to last answer. *)
let closed_loop conns s ~seconds =
  let answers = ref [] in
  let on_answer a = answers := a :: !answers in
  let one_burst () =
    let left = ref burst in
    let top_up () =
      List.iter
        (fun k ->
          while !left > 0 && Queue.length k.inflight < window do
            decr left;
            ignore (send k s ~due:(Meter.now ()))
          done)
        conns
    in
    top_up ();
    while !left > 0 || List.exists (fun k -> not (Queue.is_empty k.inflight)) conns do
      pump conns ~wait:1.0 on_answer;
      top_up ()
    done
  in
  let walls = Meter.rounds ~seconds (fun () -> snd (Meter.time one_burst)) in
  (!answers, walls)

type run = {
  svc_stats : Json.t option;
  hwm : float;               (* summed VmHWM of front-end and workers *)
  store_bytes : int;
  open_answers : answer list;
  late : float list;
  closed_answers : answer list;
  walls : float list;
}

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let run_phases svc s ~seconds =
  let conns =
    List.init 2 (fun _ -> { c = Wire.make (Wire.connect svc.addr); inflight = Queue.create () })
  in
  let open_answers, late = open_loop conns s ~seconds:(seconds *. 0.6) in
  Meter.check
    (Meter.quantile late 0.99 <= late_bound_s)
    (Printf.sprintf "load generator ran late: p99 %.4f s > %.3f s" (Meter.quantile late 0.99)
       late_bound_s);
  let closed_answers, walls = closed_loop conns s ~seconds:(seconds *. 0.4) in
  List.iter (fun k -> Wire.close k.c) conns;
  let svc_stats = round_trip svc.addr {|{"type":"stats"}|} in
  let pids = svc.pid :: Option.fold ~none:[] ~some:(fun j -> shard_field j "pid") svc_stats in
  { svc_stats;
    hwm = Meter.sum (List.map Meter.hwm_mb pids);
    store_bytes = 0;
    open_answers;
    late;
    closed_answers;
    walls }

let end_to_end r =
  let all = r.open_answers @ r.closed_answers in
  let count f = List.length (List.filter f all) in
  let closed_time = Meter.sum r.walls in
  Meter.set "wall_s" (Meter.median r.walls);
  Meter.set "solved_frac" (Meter.ratio (count (fun a -> a.status = "solved")) (List.length all));
  let lat = List.map (fun a -> a.due_lat) r.open_answers in
  Meter.set "latency_p50_s" (Meter.quantile lat 0.5);
  Meter.set "latency_p99_s" (Meter.quantile lat 0.99);
  Meter.set "throughput_rps" (float_of_int (List.length r.closed_answers) /. closed_time);
  Meter.set "ands_after"
    (Meter.sum (List.map (fun a -> float_of_int a.gates) all) /. float_of_int (List.length all));
  Meter.set "peak_rss_mb" r.hwm

let per_layer r =
  let all = r.open_answers @ r.closed_answers in
  let elapsed src = List.filter_map (fun a -> if a.source = src then Some a.elapsed else None) all in
  let frac src = Meter.ratio (List.length (elapsed src)) (List.length all) in
  let set = Meter.set in
  set "daemon.solver_p99_s" (Meter.quantile (elapsed "solver") 0.99);
  set "daemon.cache_p50_s" (Meter.quantile (elapsed "cache") 0.5);
  set "daemon.degraded_p99_s" (Meter.quantile (elapsed "upper_bound") 0.99);
  set "npn_cache.hit_ratio" (frac "cache");
  set "npn_cache.degraded_frac" (frac "upper_bound");
  set "store.bytes" (float_of_int r.store_bytes);
  let qw = List.map (fun a -> a.client -. a.elapsed) r.open_answers in
  set "service.queue_wire_p50_s" (Meter.quantile qw 0.5);
  set "service.queue_wire_p99_s" (Meter.quantile qw 0.99);
  set "loadgen.late_p99_s" (Meter.quantile r.late 0.99);
  (match r.svc_stats with
   | Some j ->
     let routed = List.map float_of_int (shard_field j "routed") in
     let mean = Meter.sum routed /. float_of_int (max 1 (List.length routed)) in
     set "service.balance_max_over_mean"
       (if mean = 0.0 then 0.0 else List.fold_left Float.max 0.0 routed /. mean);
     set "service.backpressure_stalls"
       (match Option.bind (Json.member "backpressure" j) (Json.member "stalls") with
        | Some (Json.Int n) -> float_of_int n
        | _ -> 0.0);
     let sat key =
       match Json.member "shards" j with
       | Some (Json.List l) ->
         Meter.sum
           (List.map
              (fun s ->
                Option.value ~default:0.0
                  (Option.bind (Option.bind (Json.member "sat" s) (Json.member key)) Json.to_float_opt))
              l)
       | _ -> 0.0
     in
     set "sat.conflicts" (sat "conflicts");
     set "sat.propagations" (sat "propagations");
     set "encodings.solvers" (sat "solvers")
   | None -> Meter.check false "no stats response");
  (* Shares of one closed-loop burst: shard-busy seconds per answer
     source, spread over the shards, and the remainder (front-end,
     wire, idle shards). *)
  let bursts = float_of_int (List.length r.walls) in
  let busy src =
    Meter.sum (List.filter_map (fun a -> if a.source = src then Some a.elapsed else None) r.closed_answers)
    /. float_of_int shards /. bursts
  in
  let wall = Meter.sum r.walls /. bursts in
  set "daemon.solver_busy_s" (busy "solver");
  set "daemon.cache_busy_s" (busy "cache");
  set "daemon.degraded_busy_s" (busy "upper_bound");
  set "bench.wall_s" wall;
  set "bench.unattributed_s" (wall -. busy "solver" -. busy "cache" -. busy "upper_bound")

let layer_shares =
  [ "daemon.solver_busy_s"; "daemon.cache_busy_s"; "daemon.degraded_busy_s"; "bench.unattributed_s" ]

let measure ~seed ~seconds ~k =
  Hashtbl.reset class_gates;
  let s = stream ~seed in
  let svc = spawn ~k in
  let r =
    Fun.protect ~finally:(fun () -> stop svc) (fun () -> run_phases svc s ~seconds)
  in
  let store_bytes =
    List.fold_left ( + ) 0
      (List.init shards (fun shard ->
           file_size (Service.shard_store_path ~base:(Printf.sprintf "%s/store%d" svc.dir k) ~shard ~shards)))
  in
  { r with store_bytes }

let run ~seed ~seconds ~trace =
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  Fun.protect ~finally:(fun () -> remove_tree (scratch_dir ())) @@ fun () ->
  (* Set-up: generate the stream's tables and bring a cold service up
     to its first pong, several times. *)
  let setups =
    List.init 10 (fun k ->
        let svc, dt = Meter.time (fun () -> ignore (stream ~seed); spawn ~k:(100 + k)) in
        stop svc;
        dt)
  in
  Meter.set "setup_s" (Meter.median setups);
  if not trace then end_to_end (measure ~seed ~seconds ~k:0)
  else begin
    let untraced = measure ~seed ~seconds:(seconds /. 2.0) ~k:0 in
    (* Tracing and the stage profiler are inherited by the forked
       service processes. *)
    Profile.set_enabled true;
    Trace.set_enabled true;
    let traced = measure ~seed ~seconds:(seconds /. 2.0) ~k:1 in
    per_layer traced;
    Meter.set "trace.overhead_s" (Meter.median traced.walls -. Meter.median untraced.walls)
  end;
  layer_shares
