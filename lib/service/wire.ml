(* Non-blocking line-buffered connections for the service front-end:
   one [conn] per client and per shard pipe, drained and filled from a
   single select loop. All reads and writes are best-effort — they move
   as many bytes as the kernel will take without blocking and leave the
   rest buffered. *)

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;              (* received bytes not yet split to lines *)
  chunk : Bytes.t;
  out : string Queue.t;         (* pending output, oldest first *)
  mutable out_head_off : int;   (* bytes of [Queue.peek out] already sent *)
  mutable out_bytes : int;      (* total unsent bytes across [out] *)
  mutable eof : bool;           (* read side saw EOF or a fatal error *)
}

let make fd =
  Unix.set_nonblock fd;
  { fd;
    rbuf = Buffer.create 4096;
    chunk = Bytes.create 65536;
    out = Queue.create ();
    out_head_off = 0;
    out_bytes = 0;
    eof = false }

let fd c = c.fd

let eof c = c.eof

let pending_out c = c.out_bytes

let close c =
  c.eof <- true;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Complete lines currently buffered; the partial tail stays. *)
let split_lines c =
  let s = Buffer.contents c.rbuf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some i ->
    Buffer.clear c.rbuf;
    Buffer.add_substring c.rbuf s (i + 1) (String.length s - i - 1);
    String.split_on_char '\n' (String.sub s 0 i)

(* Backpressure cannot protect [rbuf] — bytes are consumed eagerly —
   so a peer streaming data with no newline would grow it without
   bound. No legitimate request line approaches this size; a conn whose
   partial line exceeds it is dropped as [eof]. *)
let max_line_bytes = 8 * 1024 * 1024

(* Drain everything the kernel has for us right now; returns the
   complete lines that produced. EOF and connection-reset errors mark
   the conn [eof] (after yielding any lines already buffered), as does
   a buffered partial line growing past [max_line_bytes]. *)
let read_lines c =
  let continue = ref (not c.eof) in
  while !continue do
    match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
    | 0 ->
      c.eof <- true;
      continue := false
    | n ->
      Buffer.add_subbytes c.rbuf c.chunk 0 n;
      (* Bound one drain too: a fast local writer can keep the fd
         readable indefinitely. Complete lines beyond the cap wait for
         the next loop iteration. *)
      if Buffer.length c.rbuf > max_line_bytes then continue := false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      c.eof <- true;
      continue := false
  done;
  let lines = split_lines c in
  if Buffer.length c.rbuf > max_line_bytes then begin
    c.eof <- true;
    Buffer.clear c.rbuf
  end;
  lines

let queue_line c line =
  Queue.add (line ^ "\n") c.out;
  c.out_bytes <- c.out_bytes + String.length line + 1

(* Write as much buffered output as the kernel accepts. Returns [false]
   when the peer is gone (EPIPE/ECONNRESET) — the caller drops the
   conn. *)
let flush_out c =
  let ok = ref true in
  let continue = ref true in
  while !continue && not (Queue.is_empty c.out) do
    let s = Queue.peek c.out in
    let off = c.out_head_off in
    match Unix.write_substring c.fd s off (String.length s - off) with
    | n ->
      c.out_bytes <- c.out_bytes - n;
      if off + n = String.length s then begin
        ignore (Queue.pop c.out);
        c.out_head_off <- 0
      end
      else c.out_head_off <- off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      ok := false;
      continue := false
  done;
  !ok

(* {2 Addresses and listeners} *)

type addr = Unix_path of string | Tcp of string * int

let parse_tcp spec =
  let bad reason =
    failwith (Printf.sprintf "bad TCP address %S: %s" spec reason)
  in
  let port_of s =
    match int_of_string (String.trim s) with
    | p when 0 <= p && p <= 65535 -> p
    | _ -> bad "port out of range (0-65535)"
    | exception Failure _ -> bad "expected PORT or HOST:PORT"
  in
  match (String.index_opt spec ':', String.rindex_opt spec ':') with
  | None, _ -> ("127.0.0.1", port_of spec)
  | Some i, Some j when i <> j ->
    bad "IPv6 literals are not supported; use an IPv4 HOST:PORT"
  | Some i, _ ->
    let host = String.sub spec 0 i in
    let port = port_of (String.sub spec (i + 1) (String.length spec - i - 1)) in
    ((if host = "" then "127.0.0.1" else host), port)

let sockaddr_of = function
  | Unix_path path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ ->
        (match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
         | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
         | _ -> failwith ("cannot resolve host " ^ host))
    in
    Unix.ADDR_INET (inet, port)

let listen addr =
  let domain =
    match addr with Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
  in
  let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec sock;
  (match addr with
   | Unix_path path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
   | Tcp _ -> Unix.setsockopt sock Unix.SO_REUSEADDR true);
  Unix.bind sock (sockaddr_of addr);
  Unix.listen sock 64;
  sock

(* Bounded connect retry on the two "server not up yet" errors, for
   every TCP and Unix client of the service and of the daemon's socket
   server: a freshly forked server binds a beat after its parent can
   first try to connect. *)
let connect ?(attempts = 25) addr =
  let sa = sockaddr_of addr in
  let domain = Unix.domain_of_sockaddr sa in
  let rec go n delay =
    let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect sock sa with
    | () -> sock
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when n > 1 ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Unix.sleepf delay;
      go (n - 1) (Float.min 0.25 (delay *. 2.))
    | exception Unix.Unix_error (Unix.EINTR, _, _) when n > 1 ->
      (* The interrupted connect may still complete in-kernel; retrying
         on the same fd would raise EALREADY/EISCONN, so start over on
         a fresh one. *)
      (try Unix.close sock with Unix.Unix_error _ -> ());
      go (n - 1) delay
    | exception e ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      raise e
  in
  go (max 1 attempts) 0.01

(* {2 Blocking line I/O for simple clients and tests} *)

type line_reader = {
  lfd : Unix.file_descr;
  lbuf : Buffer.t;
  lchunk : Bytes.t;
  mutable llines : string list;
  mutable leof : bool;
}

let line_reader fd =
  { lfd = fd;
    lbuf = Buffer.create 4096;
    lchunk = Bytes.create 4096;
    llines = [];
    leof = false }

let rec next_line r =
  match r.llines with
  | l :: rest ->
    r.llines <- rest;
    Some l
  | [] ->
    if r.leof then None
    else begin
      (match Unix.read r.lfd r.lchunk 0 (Bytes.length r.lchunk) with
       | 0 -> r.leof <- true
       | n ->
         Buffer.add_subbytes r.lbuf r.lchunk 0 n;
         let s = Buffer.contents r.lbuf in
         (match String.rindex_opt s '\n' with
          | None -> ()
          | Some i ->
            Buffer.clear r.lbuf;
            Buffer.add_substring r.lbuf s (i + 1) (String.length s - i - 1);
            r.llines <- String.split_on_char '\n' (String.sub s 0 i))
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      next_line r
    end

let send_lines fd lines =
  let s = String.concat "\n" lines ^ "\n" in
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let written = ref 0 in
  while !written < len do
    match Unix.write fd b !written (len - !written) with
    | n -> written := !written + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done
