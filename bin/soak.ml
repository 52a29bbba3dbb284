(* Soak bench for the sharded synthesis service: replay a large
   Zipf-distributed NPN4 request stream (hot head, cold tail) through
   many pipelined clients and report latency quantiles, throughput,
   cache hit rate, per-client ordering violations and per-shard balance
   as BENCH_synthd.json.

   By default the harness forks its own service on a temp Unix socket;
   --socket/--tcp instead aims it at an already-running service.
   --kill-after K exercises crash recovery mid-run: once K responses
   have arrived, one worker is killed with SIGKILL — every request must
   still be answered. *)

open Cmdliner
module Cli = Stp_harness.Cli
module Wire = Stp_service.Wire
module Service = Stp_service.Service
module Json = Stp_telemetry.Json
module Hist = Stp_telemetry.Hist
module Zipf = Stp_workloads.Zipf

let now_ns = Stp_util.Profile.now_ns

type client = {
  conn : Wire.conn;
  pending : (int * int) Queue.t;  (* request id, send timestamp ns *)
  mutable quota : int;            (* requests this client still owns *)
  mutable sent : int;
}

let request_line ~id ~n ~tt ~timeout =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Int id);
         ("n", Json.Int n);
         ("tt", Json.String tt);
         ("timeout", Json.Float timeout) ])

(* One blocking control round-trip on its own connection, outside the
   measured stream. *)
let control_round_trip addr line =
  let fd = Wire.connect addr in
  Wire.send_lines fd [ line ];
  let r = Wire.line_reader fd in
  let resp = Wire.next_line r in
  Unix.close fd;
  match resp with
  | Some l -> (
    match Json.of_string l with
    | Ok j -> Some j
    | Error _ -> None)
  | None -> None

let shard_pids stats =
  match Json.member "shards" stats with
  | Some (Json.List shards) ->
    List.filter_map
      (fun s ->
        match (Json.member "alive" s, Json.member "pid" s) with
        | Some (Json.Bool true), Some (Json.Int pid) -> Some pid
        | _ -> None)
      shards
  | _ -> []

let incr_count tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let run requests clients window seed alpha timeout socket tcp shards jobs
    store compact_bytes kill_after json_path =
  if requests < 1 then begin
    prerr_endline "soak: --requests must be >= 1";
    exit 124
  end;
  let external_service = socket <> "" || tcp <> "" in
  let sock_path =
    if external_service then socket
    else
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "stp-soak-%d.sock" (Unix.getpid ()))
  in
  let addr =
    if tcp <> "" && socket = "" then
      match Wire.parse_tcp tcp with
      | host, port -> Wire.Tcp (host, port)
      | exception Failure msg ->
        prerr_endline ("soak: " ^ msg);
        exit 124
    else Wire.Unix_path sock_path
  in
  let service_pid =
    if external_service then None
    else begin
      match Unix.fork () with
      | 0 ->
        (try
           Service.serve
             { Service.shards = max 1 shards;
               jobs = Cli.resolve_jobs jobs;
               timeout;
               store;
               socket = sock_path;
               tcp = "";
               no_npn_cache = false;
               window;
               compact_dead_bytes = compact_bytes }
         with e ->
           Printf.eprintf "[soak] service crashed: %s\n%!"
             (Printexc.to_string e);
           Unix._exit 1);
        Unix._exit 0
      | pid ->
        Printf.eprintf "[soak] spawned service pid %d on %s\n%!" pid sock_path;
        Some pid
    end
  in
  Fun.protect ~finally:(fun () ->
      match service_pid with
      | Some pid -> (
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> Printf.eprintf "[soak] service exited 0\n%!"
        | _, st ->
          let what =
            match st with
            | Unix.WEXITED c -> Printf.sprintf "exited %d" c
            | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
            | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s
          in
          Printf.eprintf "[soak] service %s\n%!" what;
          exit 1
        | exception Unix.Unix_error _ -> ())
      | None -> ())
  @@ fun () ->
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  (* Wire.connect retries while the service binds its socket. *)
  let zipf = Zipf.create ~seed ~alpha () in
  let clients_n = max 1 clients in
  let conns =
    Array.init clients_n (fun i ->
        let base = requests / clients_n in
        let quota = base + if i < requests mod clients_n then 1 else 0 in
        { conn = Wire.make (Wire.connect addr);
          pending = Queue.create ();
          quota;
          sent = 0 })
  in
  let hist = Hist.make "soak/latency" in
  let statuses = Hashtbl.create 8 in
  let sources = Hashtbl.create 8 in
  let answered = ref 0 in
  let ordering_violations = ref 0 in
  let killed_pid = ref None in
  let next_id = ref 0 in
  let top_up c =
    while c.sent < c.quota && Queue.length c.pending < window do
      let id = !next_id in
      incr next_id;
      let n, tt = Zipf.next zipf in
      Wire.queue_line c.conn (request_line ~id ~n ~tt ~timeout);
      Queue.add (id, now_ns ()) c.pending;
      c.sent <- c.sent + 1
    done
  in
  let progress_every = max 1 (requests / 20) in
  let handle_response c line =
    if String.trim line <> "" then begin
      (match Json.of_string line with
       | Error _ -> incr_count statuses "unparseable"
       | Ok j ->
         (* Responses must arrive in this client's request order. *)
         (match (Json.member "id" j, Queue.take_opt c.pending) with
          | Some (Json.Int id), Some (expected, t0) ->
            if id <> expected then incr ordering_violations;
            Hist.observe_ns hist (now_ns () - t0)
          | _, Some (_, t0) ->
            incr ordering_violations;
            Hist.observe_ns hist (now_ns () - t0)
          | _, None -> incr ordering_violations);
         (match Json.member "status" j with
          | Some (Json.String s) -> incr_count statuses s
          | _ -> incr_count statuses "missing");
         (match Json.member "source" j with
          | Some (Json.String s) -> incr_count sources s
          | _ -> ()));
      incr answered;
      if !answered mod progress_every = 0 then
        Printf.eprintf "[soak] %d/%d answered\n%!" !answered requests;
      (* Crash-recovery exercise: SIGKILL one worker mid-run; the
         service must re-dispatch its in-flight requests. *)
      if !killed_pid = None && kill_after > 0 && !answered >= kill_after
      then begin
        match control_round_trip addr {|{"type":"stats"}|} with
        | Some stats -> (
          match shard_pids stats with
          | pid :: _ ->
            Printf.eprintf "[soak] killing shard pid %d after %d responses\n%!"
              pid !answered;
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            killed_pid := Some pid
          | [] -> killed_pid := Some 0)
        | None -> killed_pid := Some 0
      end
    end
  in
  let t_start = now_ns () in
  Array.iter (fun c -> top_up c) conns;
  while !answered < requests do
    let reads =
      Array.to_list conns
      |> List.filter_map (fun c ->
             if Queue.length c.pending > 0 && not (Wire.eof c.conn) then
               Some (Wire.fd c.conn)
             else None)
    in
    let writes =
      Array.to_list conns
      |> List.filter_map (fun c ->
             if Wire.pending_out c.conn > 0 then Some (Wire.fd c.conn)
             else None)
    in
    if reads = [] && writes = [] then begin
      Printf.eprintf "[soak] service closed all connections with %d/%d answered\n%!"
        !answered requests;
      exit 1
    end;
    let readable, writable, _ =
      match Unix.select reads writes [] 1.0 with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iter
      (fun c ->
        if List.mem (Wire.fd c.conn) readable then begin
          List.iter (handle_response c) (Wire.read_lines c.conn);
          top_up c
        end;
        if
          List.mem (Wire.fd c.conn) writable || Wire.pending_out c.conn > 0
        then ignore (Wire.flush_out c.conn);
        if Wire.eof c.conn && Queue.length c.pending > 0 then begin
          Printf.eprintf "[soak] a client connection died with %d responses outstanding\n%!"
            (Queue.length c.pending);
          exit 1
        end)
      conns
  done;
  let wall_s = float_of_int (now_ns () - t_start) *. 1e-9 in
  (* Final service-side stats (per-shard balance) on a fresh conn. A
     stats answer carries the worker counter blocks of the previous
     stats probe, so refresh them first and give the now idle workers a
     moment to answer. *)
  ignore (control_round_trip addr {|{"type":"stats"}|});
  Unix.sleepf 0.2;
  let service_stats = control_round_trip addr {|{"type":"stats"}|} in
  Array.iter (fun c -> Wire.close c.conn) conns;
  let counts tbl =
    Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) tbl []
    |> List.sort compare
  in
  let cache_hits = Option.value ~default:0 (Hashtbl.find_opt sources "cache") in
  let service_block =
    match service_stats with
    | Some j ->
      let take k =
        match Json.member k j with Some v -> [ (k, v) ] | None -> []
      in
      Json.Obj
        (take "shards" @ take "clients" @ take "backpressure"
        @ take "requests" @ take "responses")
    | None -> Json.Null
  in
  let balance =
    match service_stats with
    | None -> Json.Null
    | Some j -> (
      match Json.member "shards" j with
      | Some (Json.List shards) ->
        let routed =
          List.map
            (fun s ->
              match Json.member "routed" s with
              | Some (Json.Int r) -> r
              | _ -> 0)
            shards
        in
        let total = List.fold_left ( + ) 0 routed in
        let mean = float_of_int total /. float_of_int (List.length routed) in
        let maxi = List.fold_left max 0 routed in
        Json.Obj
          [ ("routed", Json.List (List.map (fun r -> Json.Int r) routed));
            ("max_over_mean",
             Json.Float (if mean > 0.0 then float_of_int maxi /. mean else 0.0))
          ]
      | _ -> Json.Null)
  in
  let bench =
    Json.Obj
      [ ("bench", Json.String "synthd_soak");
        ("config",
         Json.Obj
           [ ("requests", Json.Int requests);
             ("clients", Json.Int clients_n);
             ("window", Json.Int window);
             ("seed", Json.Int seed);
             ("alpha", Json.Float alpha);
             ("timeout_s", Json.Float timeout);
             ("shards",
              if external_service then Json.Null else Json.Int (max 1 shards));
             ("jobs",
              if external_service then Json.Null
              else Json.Int (Cli.resolve_jobs jobs));
             ("store",
              if store = "" then Json.Null else Json.String store);
             ("external_service", Json.Bool external_service);
             ("kill_after",
              if kill_after > 0 then Json.Int kill_after else Json.Null) ]);
        ("wall_s", Json.Float wall_s);
        ("throughput_rps", Json.Float (float_of_int requests /. wall_s));
        ("latency", Hist.to_json hist);
        ("statuses", Json.Obj (counts statuses));
        ("sources", Json.Obj (counts sources));
        ("hit_rate", Json.Float (float_of_int cache_hits /. float_of_int requests));
        ("ordering_violations", Json.Int !ordering_violations);
        ("killed_shard_pid",
         match !killed_pid with
         | Some pid when pid > 0 -> Json.Int pid
         | _ -> Json.Null);
        ("balance", balance);
        ("service", service_block) ]
  in
  let oc = open_out json_path in
  output_string oc (Json.to_string bench);
  output_char oc '\n';
  close_out oc;
  let q p = Hist.quantile_ns hist p *. 1e-9 in
  Printf.printf
    "soak: %d requests, %d clients, %.1f req/s; p50 %.4fs p90 %.4fs p99 %.4fs; hit rate %.3f; %d ordering violations -> %s\n"
    requests clients_n
    (float_of_int requests /. wall_s)
    (q 0.5) (q 0.9) (q 0.99)
    (float_of_int cache_hits /. float_of_int requests)
    !ordering_violations json_path;
  if !ordering_violations > 0 then exit 1

let requests_arg =
  let doc = "Total number of requests to replay." in
  Arg.(value & opt int 100_000 & info [ "n"; "requests" ] ~docv:"N" ~doc)

let clients_arg =
  let doc = "Concurrent pipelined client connections." in
  Arg.(value & opt int 8 & info [ "clients" ] ~docv:"N" ~doc)

let window_arg =
  let doc = "Per-client pipeline depth (requests in flight)." in
  Arg.(value & opt int 32 & info [ "window" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "PRNG seed for the Zipf stream." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let alpha_arg =
  let doc =
    "Zipf exponent: class popularity is 1/rank^$(docv) over the 221 \
     synthesizable NPN4 classes (0 = uniform)."
  in
  Arg.(value & opt float 1.1 & info [ "alpha" ] ~docv:"ALPHA" ~doc)

let shards_arg =
  let doc = "Shards for the self-spawned service (ignored with --socket/--tcp)." in
  Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc)

let compact_bytes_arg =
  let doc = "Online-compaction threshold for the self-spawned service." in
  Arg.(value & opt int (1 lsl 20) & info [ "compact-bytes" ] ~docv:"BYTES" ~doc)

let kill_after_arg =
  let doc =
    "After $(docv) responses, SIGKILL one shard worker mid-run (crash \
     recovery must still answer every request; 0 disables)."
  in
  Arg.(value & opt int 0 & info [ "kill-after" ] ~docv:"N" ~doc)

let cmd =
  let doc = "Zipf soak bench for the sharded synthesis service" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Replays a deterministic Zipf-distributed stream of NPN4 \
         synthesis requests (random class members, so canonicalisation \
         is exercised) through many pipelined clients against the \
         sharded service, then writes latency quantiles, throughput, \
         cache hit rate, per-client ordering violations and per-shard \
         balance to the --json file. Without --socket/--tcp a service \
         is forked for the duration of the run." ]
  in
  Cmd.v
    (Cmd.info "soak" ~doc ~man)
    Term.(
      const run $ requests_arg $ clients_arg $ window_arg $ seed_arg
      $ alpha_arg
      $ Cli.timeout ~doc:"Per-request deadline in seconds." ()
      $ Cli.socket $ Cli.tcp $ shards_arg $ Cli.jobs $ Cli.store
      $ compact_bytes_arg $ kill_after_arg
      $ Cli.json ~default:"BENCH_synthd.json" ())

let () = exit (Cmd.eval cmd)
