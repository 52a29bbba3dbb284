(* Fork-based integration tests for the synthesis daemon. They live in
   their own binary because OCaml 5 refuses [Unix.fork] once any other
   domain has been spawned in the process — the parent here must stay
   domain-free (the forked daemons use [jobs = 1], which spawns none
   either). *)

module Tt = Stp_tt.Tt
module Report = Stp_harness.Report
module Store = Stp_store.Store
module Daemon = Stp_store.Daemon
module Wire = Stp_service.Wire

let get_string key json =
  match Report.member key json with
  | Some (Report.String s) -> Some s
  | _ -> None

let parse_response line =
  match Report.of_string line with
  | Ok json -> json
  | Error msg -> Alcotest.failf "unparseable response %S: %s" line msg

let temp_path () =
  let path = Filename.temp_file "stp_daemon_test" ".npn" in
  Sys.remove path;
  path

let spawn_daemon ~store_path =
  let req_r, req_w = Unix.pipe ~cloexec:false () in
  let resp_r, resp_w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close resp_r;
    let store = Store.load ~path:store_path in
    (try
       Daemon.serve ~input:req_r ~output:resp_w
         { Daemon.default_config with Daemon.store = Some store }
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    (pid, Unix.out_channel_of_descr req_w, Unix.in_channel_of_descr resp_r)

let test_daemon_end_to_end () =
  let store_path = temp_path () in
  (* Cold daemon: three requests, all solved by the solver. *)
  let pid, req, resp = spawn_daemon ~store_path in
  List.iter
    (fun line ->
      output_string req (line ^ "\n");
      flush req)
    [ Daemon.request ~id:1 ~n:4 "8ff8";
      Daemon.request ~id:2 ~n:3 "e8";
      Daemon.request ~id:3 ~n:4 "6996" ];
  let responses = List.init 3 (fun _ -> parse_response (input_line resp)) in
  List.iteri
    (fun i r ->
      Alcotest.(check (option string))
        (Printf.sprintf "request %d solved" (i + 1))
        (Some "solved") (get_string "status" r);
      Alcotest.(check bool)
        (Printf.sprintf "request %d id echoed" (i + 1))
        true
        (Report.member "id" r = Some (Report.Int (i + 1))))
    responses;
  (* SIGTERM, not EOF: the daemon must flush the store and exit
     cleanly. *)
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "daemon exited cleanly on SIGTERM" true
    (status = Unix.WEXITED 0);
  let store = Store.load ~path:store_path in
  let st = Store.stats store in
  Alcotest.(check int) "store reloads uncorrupted" 0 st.Store.skipped;
  Alcotest.(check int) "three classes persisted" 3 st.Store.classes;
  (* Warm restart: the same request must now be answered from the
     persisted cache without a solver call. *)
  let pid, req, resp = spawn_daemon ~store_path in
  output_string req (Daemon.request ~id:9 ~n:4 "8ff8" ^ "\n");
  flush req;
  let r = parse_response (input_line resp) in
  Alcotest.(check (option string)) "warm restart hits the cache"
    (Some "cache") (get_string "source" r);
  close_out req;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "daemon exits on EOF" true (status = Unix.WEXITED 0);
  Sys.remove store_path

let get_float key json =
  Option.bind (Report.member key json) Report.to_float_opt

let member_path json path =
  List.fold_left
    (fun acc key -> Option.bind acc (Report.member key))
    (Some json) path

let test_daemon_ping_and_stats () =
  let store_path = temp_path () in
  let pid, req, resp = spawn_daemon ~store_path in
  let ask line =
    output_string req (line ^ "\n");
    flush req;
    parse_response (input_line resp)
  in
  (* Ping: liveness, version, uptime, store path. *)
  let pong = ask (Daemon.control ~id:1 "ping") in
  Alcotest.(check (option string)) "pong" (Some "pong")
    (get_string "status" pong);
  Alcotest.(check (option string)) "version" (Some Daemon.version)
    (get_string "version" pong);
  Alcotest.(check bool) "uptime present" true
    (match get_float "uptime_s" pong with Some u -> u >= 0.0 | None -> false);
  Alcotest.(check (option string)) "store path echoed" (Some store_path)
    (get_string "store" pong);
  Alcotest.(check bool) "ping id echoed" true
    (Report.member "id" pong = Some (Report.Int 1));
  (* One solver answer and one cache replay populate the per-source
     latency histograms. *)
  let r1 = ask (Daemon.request ~id:2 ~n:4 "8ff8") in
  Alcotest.(check (option string)) "first solve" (Some "solver")
    (get_string "source" r1);
  let r2 = ask (Daemon.request ~id:3 ~n:4 "8ff8") in
  Alcotest.(check (option string)) "replayed" (Some "cache")
    (get_string "source" r2);
  (* Stats: uptime, counts, store block, per-source histograms with
     populated quantiles. *)
  let stats = ask (Daemon.control ~id:4 "stats") in
  Alcotest.(check (option string)) "stats ok" (Some "ok")
    (get_string "status" stats);
  (match Report.member "requests" stats with
   | Some (Report.Int n) ->
     Alcotest.(check bool) "requests counted" true (n >= 4)
   | _ -> Alcotest.fail "requests count missing");
  (match member_path stats [ "store"; "classes" ] with
   | Some (Report.Int 1) -> ()
   | _ -> Alcotest.fail "store stats must report the one absorbed class");
  let hist_quantile source q =
    match
      member_path stats [ "telemetry"; "histograms"; "synthd/source/" ^ source; q ]
    with
    | Some v -> Report.to_float_opt v
    | None -> None
  in
  List.iter
    (fun source ->
      (match hist_quantile source "p50_s" with
       | Some p ->
         Alcotest.(check bool)
           (Printf.sprintf "%s p50 populated" source)
           true (p > 0.0)
       | None -> Alcotest.failf "histogram synthd/source/%s missing p50" source);
      match hist_quantile source "p99_s" with
      | Some p ->
        Alcotest.(check bool)
          (Printf.sprintf "%s p99 populated" source)
          true (p > 0.0)
      | None -> Alcotest.failf "histogram synthd/source/%s missing p99" source)
    [ "solver"; "cache" ];
  (match
     member_path stats [ "telemetry"; "histograms"; "synthd/batch"; "count" ]
   with
   | Some (Report.Int n) ->
     Alcotest.(check bool) "batch histogram populated" true (n >= 1)
   | _ -> Alcotest.fail "synthd/batch histogram missing");
  (* Unknown control types are rejected, not treated as synthesis. *)
  let bad = ask (Daemon.control ~id:5 "frobnicate") in
  Alcotest.(check (option string)) "unknown type errors" (Some "error")
    (get_string "status" bad);
  close_out req;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "daemon exits on EOF" true (status = Unix.WEXITED 0);
  Sys.remove store_path

let test_daemon_socket_round_trip () =
  let sock_path = Filename.temp_file "stp_synthd" ".sock" in
  Sys.remove sock_path;
  match Unix.fork () with
  | 0 ->
    (try
       Daemon.serve { Daemon.default_config with Daemon.socket = sock_path }
     with _ -> ());
    Unix._exit 0
  | pid ->
    (* No polling for the socket to appear: [Wire.connect] retries the
       connect with backoff until the daemon binds. *)
    let fd = Wire.connect (Wire.Unix_path sock_path) in
    Wire.send_lines fd
      [ Daemon.request ~id:1 ~n:3 "96"; Daemon.request ~id:2 ~n:3 "e8" ];
    Unix.shutdown fd Unix.SHUTDOWN_SEND;
    let r = Wire.line_reader fd in
    let rec drain acc =
      match Wire.next_line r with
      | Some l when String.trim l = "" -> drain acc
      | Some l -> drain (l :: acc)
      | None -> List.rev acc
    in
    let responses = drain [] in
    Unix.close fd;
    Alcotest.(check int) "two responses" 2 (List.length responses);
    List.iter
      (fun line ->
        Alcotest.(check (option string)) "socket request solved"
          (Some "solved")
          (get_string "status" (parse_response line)))
      responses;
    Unix.kill pid Sys.sigterm;
    let _, status = Unix.waitpid [] pid in
    Alcotest.(check bool) "socket daemon exits on SIGTERM" true
      (status = Unix.WEXITED 0)

let () =
  Alcotest.run "daemon"
    [ ( "daemon",
        [ Alcotest.test_case "stdin end-to-end with SIGTERM" `Slow
            test_daemon_end_to_end;
          Alcotest.test_case "ping and stats" `Slow test_daemon_ping_and_stats;
          Alcotest.test_case "socket round trip" `Slow
            test_daemon_socket_round_trip ] ) ]
