(* Fork-based integration tests for the sharded multiplexing service:
   class-invariant shard routing, pipelined concurrent clients (Unix
   socket and TCP) with per-client response order, and kill -9 crash
   recovery without losing accepted requests. The parent must stay
   domain-free — OCaml 5 refuses [Unix.fork] after a domain spawn; the
   forked service front-end is domain-free too and its workers only
   spawn domains after the last fork. *)

module Tt = Stp_tt.Tt
module Npn = Stp_tt.Npn
module Prng = Stp_util.Prng
module Report = Stp_harness.Report
module Service = Stp_service.Service
module Wire = Stp_service.Wire

let temp_sock () =
  let path = Filename.temp_file "stp_service_test" ".sock" in
  Sys.remove path;
  path

let parse_response line =
  match Report.of_string line with
  | Ok json -> json
  | Error msg -> Alcotest.failf "unparseable response %S: %s" line msg

let get_string key json =
  match Report.member key json with
  | Some (Report.String s) -> Some s
  | _ -> None

let get_int key json =
  match Report.member key json with
  | Some (Report.Int i) -> Some i
  | _ -> None

(* {2 Routing} *)

let test_shard_of_class_invariant () =
  let prng = Prng.create 7 in
  let classes = [ "8ff8"; "6996"; "1ee1"; "0117"; "007f" ] in
  List.iter
    (fun hex ->
      let f = Tt.of_hex ~n:4 hex in
      let home = Service.shard_of ~shards:4 f in
      for _ = 1 to 25 do
        let perm = Array.init 4 Fun.id in
        Prng.shuffle prng perm;
        let tr =
          { Npn.perm;
            input_neg = Prng.bits prng 4;
            output_neg = Prng.bool prng }
        in
        let member = Npn.apply f tr in
        Alcotest.(check int)
          (Printf.sprintf "every member of %s routes to its class's shard" hex)
          home
          (Service.shard_of ~shards:4 member)
      done)
    classes;
  (* The partition must actually spread classes around. *)
  let shards_hit = Hashtbl.create 8 in
  List.iter
    (fun hex ->
      Hashtbl.replace shards_hit
        (Service.shard_of ~shards:4 (Tt.of_hex ~n:4 hex))
        ())
    classes;
  Alcotest.(check bool) "classes spread over more than one shard" true
    (Hashtbl.length shards_hit > 1);
  Alcotest.(check int) "single shard routes everything to 0" 0
    (Service.shard_of ~shards:1 (Tt.of_hex ~n:4 "8ff8"))

(* {2 Wire} *)

let test_parse_tcp () =
  let check_ok spec expect =
    Alcotest.(check (pair string int)) spec expect (Wire.parse_tcp spec)
  in
  check_ok "7777" ("127.0.0.1", 7777);
  check_ok ":7777" ("127.0.0.1", 7777);
  check_ok "10.0.0.1:443" ("10.0.0.1", 443);
  let rejects spec =
    match Wire.parse_tcp spec with
    | _ -> Alcotest.failf "parse_tcp accepted %S" spec
    | exception Failure _ -> ()
  in
  rejects "";
  rejects "localhost:notaport";
  rejects "1:2:3";
  rejects "::1";
  rejects "[::1]:80";
  rejects "127.0.0.1:70000"

(* A newline-free stream must not grow the conn's line buffer without
   bound: past the cap the conn is marked eof and yields no lines. *)
let test_read_line_cap () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  let conn = Wire.make b in
  let chunk = Bytes.make 65536 'x' in
  let limit = 32 * 1024 * 1024 in
  let total = ref 0 in
  while (not (Wire.eof conn)) && !total < limit do
    (match Unix.write a chunk 0 (Bytes.length chunk) with
     | n -> total := !total + n
     | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
       ());
    Alcotest.(check (list string)) "no lines from a newline-free stream" []
      (Wire.read_lines conn)
  done;
  Alcotest.(check bool) "oversized line flips eof" true (Wire.eof conn);
  Alcotest.(check bool) "eof arrives well before the stream ends" true
    (!total < limit);
  Unix.close a;
  Wire.close conn

(* {2 The forked service} *)

let spawn_service ?(shards = 2) ?(store = "") ?(window = 64) ?(tcp = "")
    ~socket () =
  match Unix.fork () with
  | 0 ->
    (try
       Service.serve
         { Service.default_config with
           Service.shards;
           store;
           socket;
           tcp;
           window;
           timeout = 10.0 }
     with _ -> Unix._exit 1);
    Unix._exit 0
  | pid -> pid

let stop_service pid =
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "service exits 0 on SIGTERM" true
    (status = Unix.WEXITED 0)

let request ~id ~n tt =
  Printf.sprintf {|{"id": %d, "n": %d, "tt": "%s"}|} id n tt

(* Four NPN targets, two arities, cycled per client in a client-specific
   rotation so concurrent clients hit overlapping classes in different
   orders. *)
let targets = [| (4, "8ff8"); (4, "6996"); (3, "e8"); (3, "96") |]

let test_pipelined_clients_keep_order () =
  let socket = temp_sock () in
  let port = 31000 + (Unix.getpid () mod 20000) in
  let pid = spawn_service ~socket ~tcp:(Printf.sprintf "127.0.0.1:%d" port) () in
  Fun.protect ~finally:(fun () -> stop_service pid) @@ fun () ->
  (* Four concurrent clients — two on the Unix socket, two on TCP —
     each pipelining its whole batch before reading anything. *)
  let per_client = 12 in
  let clients =
    Array.init 4 (fun c ->
        let addr =
          if c < 2 then Wire.Unix_path socket
          else Wire.Tcp ("127.0.0.1", port)
        in
        (c, Wire.connect addr))
  in
  Array.iter
    (fun (c, fd) ->
      let lines =
        List.init per_client (fun i ->
            let n, tt = targets.((c + i) mod Array.length targets) in
            request ~id:((c * 1000) + i) ~n tt)
      in
      Wire.send_lines fd lines)
    clients;
  (* Only now read: every client must see its own ids, in its own send
     order, every one answered. *)
  Array.iter
    (fun (c, fd) ->
      let r = Wire.line_reader fd in
      for i = 0 to per_client - 1 do
        match Wire.next_line r with
        | None -> Alcotest.failf "client %d: EOF after %d responses" c i
        | Some line ->
          let json = parse_response line in
          Alcotest.(check (option int))
            (Printf.sprintf "client %d response %d in request order" c i)
            (Some ((c * 1000) + i))
            (get_int "id" json);
          Alcotest.(check (option string))
            (Printf.sprintf "client %d response %d solved" c i)
            (Some "solved") (get_string "status" json)
      done;
      Unix.close fd)
    clients

let test_kill_shard_loses_nothing () =
  let socket = temp_sock () in
  let store = Filename.temp_file "stp_service_test" ".npn" in
  Sys.remove store;
  let pid = spawn_service ~socket ~store () in
  Fun.protect ~finally:(fun () -> stop_service pid) @@ fun () ->
  let fd = Wire.connect (Wire.Unix_path socket) in
  let r = Wire.line_reader fd in
  (* Worker pids from the front-end's stats. *)
  Wire.send_lines fd [ {|{"type": "stats", "id": -1}|} ];
  let stats =
    match Wire.next_line r with
    | Some line -> parse_response line
    | None -> Alcotest.fail "no stats response"
  in
  let pids =
    match Report.member "shards" stats with
    | Some (Report.List shards) ->
      List.filter_map (fun s -> get_int "pid" s) shards
    | _ -> Alcotest.fail "stats carries no shard list"
  in
  Alcotest.(check int) "two workers running" 2 (List.length pids);
  (* Pipeline a stream, then SIGKILL one worker while it is mid-work:
     its unanswered in-flight requests must be re-dispatched to the
     replacement, so the client still sees every response, in order. *)
  let total = 12 in
  let lines =
    List.init total (fun i ->
        let n, tt = targets.(i mod Array.length targets) in
        request ~id:i ~n tt)
  in
  Wire.send_lines fd lines;
  Unix.kill (List.hd pids) Sys.sigkill;
  for i = 0 to total - 1 do
    match Wire.next_line r with
    | None -> Alcotest.failf "EOF after %d responses" i
    | Some line ->
      let json = parse_response line in
      Alcotest.(check (option int))
        (Printf.sprintf "response %d in request order despite the kill" i)
        (Some i) (get_int "id" json);
      Alcotest.(check (option string))
        (Printf.sprintf "response %d solved" i)
        (Some "solved") (get_string "status" json)
  done;
  (* The killed worker was restarted and the service still answers. *)
  Wire.send_lines fd [ {|{"type": "stats", "id": -2}|} ];
  (match Wire.next_line r with
   | None -> Alcotest.fail "no stats after recovery"
   | Some line ->
     let stats = parse_response line in
     let restarts =
       match Report.member "shards" stats with
       | Some (Report.List shards) ->
         List.fold_left
           (fun acc s -> acc + Option.value ~default:0 (get_int "restarts" s))
           0 shards
       | _ -> 0
     in
     Alcotest.(check bool) "a worker restart is recorded" true (restarts >= 1));
  Unix.close fd;
  (* Shard section files exist for the store base. *)
  Alcotest.(check bool) "shard store sections written" true
    (Sys.file_exists
       (Service.shard_store_path ~base:store ~shard:0 ~shards:2)
    || Sys.file_exists
         (Service.shard_store_path ~base:store ~shard:1 ~shards:2))

let test_backpressure_stalls_are_counted () =
  let socket = temp_sock () in
  (* window = 1: the second pipelined request already stalls the
     client, so the stall counter must move. *)
  let pid = spawn_service ~socket ~window:1 () in
  Fun.protect ~finally:(fun () -> stop_service pid) @@ fun () ->
  let fd = Wire.connect (Wire.Unix_path socket) in
  let r = Wire.line_reader fd in
  let total = 6 in
  Wire.send_lines fd
    (List.init total (fun i ->
         let n, tt = targets.(i mod Array.length targets) in
         request ~id:i ~n tt));
  for i = 0 to total - 1 do
    match Wire.next_line r with
    | None -> Alcotest.failf "EOF after %d responses" i
    | Some line ->
      Alcotest.(check (option int)) "in order under backpressure" (Some i)
        (get_int "id" (parse_response line))
  done;
  Wire.send_lines fd [ {|{"type": "stats"}|} ];
  (match Wire.next_line r with
   | None -> Alcotest.fail "no stats response"
   | Some line ->
     let stats = parse_response line in
     let stalls =
       match Report.member "backpressure" stats with
       | Some bp -> Option.value ~default:0 (get_int "stalls" bp)
       | None -> 0
     in
     Alcotest.(check bool) "stalls counted" true (stalls >= 1));
  Unix.close fd

let test_stats_keep_npn_cache_blocks () =
  (* A hard class under a microscopic budget: its first request times
     out, its second is answered by the worker's timeout record. The
     front-end must keep that worker's npn_cache block per shard. *)
  let socket = temp_sock () in
  let pid = spawn_service ~socket () in
  Fun.protect ~finally:(fun () -> stop_service pid) @@ fun () ->
  let hex = "b4d2693996c85a17" in
  let owner = Service.shard_of ~shards:2 (Tt.of_hex ~n:6 hex) in
  let fd = Wire.connect (Wire.Unix_path socket) in
  let r = Wire.line_reader fd in
  let ask line =
    Wire.send_lines fd [ line ];
    match Wire.next_line r with
    | Some line -> parse_response line
    | None -> Alcotest.fail "EOF from the service"
  in
  let hard id =
    ask (Printf.sprintf {|{"id": %d, "n": 6, "tt": "%s", "timeout": 1e-6}|} id hex)
  in
  List.iter
    (fun id ->
      Alcotest.(check (option string)) "degraded" (Some "upper_bound")
        (get_string "status" (hard id)))
    [ 1; 2 ];
  (* A stats answer carries the previous probe's worker blocks. This
     one sends the probe; the owner answers it before the next request
     on its FIFO pipe, so the second stats sees the refreshed block. *)
  ignore (ask {|{"type": "stats"}|});
  ignore (hard 3);
  let stats = ask {|{"type": "stats"}|} in
  Unix.close fd;
  let block =
    match Report.member "shards" stats with
    | Some (Report.List shards) ->
      Option.bind (List.nth_opt shards owner) (Report.member "npn_cache")
    | _ -> None
  in
  match block with
  | Some b ->
    Alcotest.(check (option int)) "one search" (Some 1) (get_int "misses" b);
    Alcotest.(check (option int)) "one short-circuit" (Some 1)
      (get_int "known_timeouts" b);
    Alcotest.(check (option int)) "one unproven class" (Some 1)
      (get_int "unproven_classes" b)
  | None -> Alcotest.fail "no npn_cache block for the owning shard"

(* The front-end canonicalises every 5- or 6-input request to route
   it. A client streaming distinct 6-input functions to one shard must
   not hold up another client's cache hit on the other shard. *)
let test_wide_stream_does_not_stall_hits () =
  let socket = temp_sock () in
  let pid = spawn_service ~socket () in
  Fun.protect ~finally:(fun () -> stop_service pid) @@ fun () ->
  let home = Service.shard_of ~shards:2 (Tt.of_hex ~n:4 "8ff8") in
  let prng = Prng.create 17 in
  let rec wide acc =
    if List.length acc = 16 then acc
    else
      let f = Tt.of_fun 6 (fun _ -> Prng.bool prng) in
      let hex = Tt.to_hex f in
      if Service.shard_of ~shards:2 f = home || List.mem hex acc then wide acc
      else wide (hex :: acc)
  in
  let wide = wide [] in
  let hitter = Wire.connect (Wire.Unix_path socket) in
  let hits = Wire.line_reader hitter in
  let ask id =
    Wire.send_lines hitter [ request ~id ~n:4 "8ff8" ];
    match Wire.next_line hits with
    | Some line -> parse_response line
    | None -> Alcotest.fail "EOF from the service"
  in
  Alcotest.(check (option string)) "the class is solved first" (Some "solved")
    (get_string "status" (ask 1));
  let streamer = Wire.connect (Wire.Unix_path socket) in
  Wire.send_lines streamer
    (List.mapi
       (fun i hex ->
         Printf.sprintf {|{"id": %d, "n": 6, "tt": "%s", "timeout": 1e-6}|}
           (100 + i) hex)
       wide);
  (* Let the front-end take the stream in before the hit arrives. *)
  Unix.sleepf 0.05;
  let t0 = Unix.gettimeofday () in
  let hit = ask 2 in
  let waited = Unix.gettimeofday () -. t0 in
  Alcotest.(check (option string)) "a cache hit" (Some "cache")
    (get_string "source" hit);
  if waited >= 0.1 then
    Alcotest.failf "the hit took %.3f s behind the 6-input stream" waited;
  let streamed = Wire.line_reader streamer in
  List.iteri
    (fun i _ ->
      match Wire.next_line streamed with
      | Some line ->
        Alcotest.(check (option int)) "stream answered in order" (Some (100 + i))
          (get_int "id" (parse_response line))
      | None -> Alcotest.failf "EOF after %d streamed responses" i)
    wide;
  Unix.close streamer;
  Unix.close hitter

let () =
  Alcotest.run "service"
    [ ( "routing",
        [ Alcotest.test_case "shard_of is NPN-class invariant" `Quick
            test_shard_of_class_invariant ] );
      ( "wire",
        [ Alcotest.test_case "parse_tcp accepts host:port, rejects junk"
            `Quick test_parse_tcp;
          Alcotest.test_case "read_lines caps a newline-free stream" `Quick
            test_read_line_cap ] );
      ( "service",
        [ Alcotest.test_case "pipelined clients keep per-client order" `Slow
            test_pipelined_clients_keep_order;
          Alcotest.test_case "kill -9 a shard loses nothing" `Slow
            test_kill_shard_loses_nothing;
          Alcotest.test_case "backpressure stalls are counted" `Slow
            test_backpressure_stalls_are_counted;
          Alcotest.test_case "stats keep each shard's npn_cache block" `Slow
            test_stats_keep_npn_cache_blocks;
          Alcotest.test_case "6-input stream does not stall another client's hit"
            `Slow test_wide_stream_does_not_stall_hits ] ) ]
