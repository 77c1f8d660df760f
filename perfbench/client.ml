(* A blocking line-protocol client for [minview serve]: one connection,
   one request in flight (a closed loop). *)

type t = { fd : Unix.file_descr; chunk : Bytes.t; acc : Buffer.t }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; chunk = Bytes.create 65_536; acc = Buffer.create 65_536 }

let close c = Unix.close c.fd

let send c s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* Read until [complete] holds on the bytes received so far. *)
let receive c complete =
  Buffer.clear c.acc;
  let rec go () =
    match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
    | 0 -> failwith "serve closed the connection"
    | n ->
      Buffer.add_subbytes c.acc c.chunk 0 n;
      if not (complete c.acc) then go ()
  in
  go ();
  Buffer.contents c.acc

let ends_with_newline b =
  Buffer.length b > 0 && Buffer.nth b (Buffer.length b - 1) = '\n'

(* A multi-line body ends with a line holding a single [.]; an error is
   one [-ERR] line. *)
let body_complete b =
  let n = Buffer.length b in
  (n >= 5 && Buffer.nth b 0 = '-' && Buffer.nth b (n - 1) = '\n')
  || (n >= 3
     && Buffer.nth b (n - 1) = '\n'
     && Buffer.nth b (n - 2) = '.'
     && Buffer.nth b (n - 3) = '\n')

(* [PIN], then [QUERY view]: the full response text of the query. *)
let pin_and_query c view =
  send c "PIN\n";
  let pin = receive c ends_with_newline in
  if String.length pin = 0 || pin.[0] <> '+' then
    failwith ("PIN refused: " ^ String.trim pin);
  send c ("QUERY " ^ view ^ "\n");
  receive c body_complete
