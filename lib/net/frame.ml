let magic = "DHWN"
let version = 2
let max_frame_len = Wire.max_string_len

type envelope = { src : int; sent_at : int; payload : string }
type send = { dst : int; payload : string; show : string }

type t =
  | Hello of {
      pid : int;
      protocol : string;
      n : int;
      t : int;
      incarnation : int;
      wakeup : int option;
    }
  | Welcome of { round : int }
  | Round_start of { round : int; inbox : envelope list }
  | Step_result of {
      round : int;
      sends : send list;
      work : int list;
      terminate : bool;
      wakeup : int option;
      persists : int;
    }
  | Shutdown

(* Tags are part of the wire format; never renumber, only append. Tag 5
   was the version-1 heartbeat and stays retired. *)
let tag = function
  | Hello _ -> 1
  | Welcome _ -> 2
  | Round_start _ -> 3
  | Step_result _ -> 4
  | Shutdown -> 6

let put_envelope b (e : envelope) =
  Wire.put_int b e.src;
  Wire.put_int b e.sent_at;
  Wire.put_string b e.payload

let get_envelope r =
  let src = Wire.get_int r "envelope.src" in
  let sent_at = Wire.get_int r "envelope.sent_at" in
  let payload = Wire.get_string r "envelope.payload" in
  { src; sent_at; payload }

let put_send b (s : send) =
  Wire.put_int b s.dst;
  Wire.put_string b s.payload;
  Wire.put_string b s.show

let get_send r =
  let dst = Wire.get_int r "send.dst" in
  let payload = Wire.get_string r "send.payload" in
  let show = Wire.get_string r "send.show" in
  { dst; payload; show }

let encode_body f =
  let b = Buffer.create 64 in
  Wire.put_u8 b (tag f);
  (match f with
  | Hello { pid; protocol; n; t; incarnation; wakeup } ->
      Buffer.add_string b magic;
      Wire.put_u8 b version;
      Wire.put_int b pid;
      Wire.put_string b protocol;
      Wire.put_int b n;
      Wire.put_int b t;
      Wire.put_int b incarnation;
      Wire.put_opt_int b wakeup
  | Welcome { round } -> Wire.put_int b round
  | Round_start { round; inbox } ->
      Wire.put_int b round;
      Wire.put_list b put_envelope inbox
  | Step_result { round; sends; work; terminate; wakeup; persists } ->
      Wire.put_int b round;
      Wire.put_list b put_send sends;
      Wire.put_list b Wire.put_int work;
      Wire.put_bool b terminate;
      Wire.put_opt_int b wakeup;
      Wire.put_int b persists
  | Shutdown -> ());
  Buffer.contents b

let encode f =
  let body = encode_body f in
  let b = Buffer.create (String.length body + 4) in
  Wire.put_u32 b (String.length body);
  Buffer.add_string b body;
  Buffer.contents b

let decode_body body =
  try
    let r = Wire.reader body in
    let f =
      match Wire.get_u8 r "frame.tag" with
      | 1 ->
          let got_magic = Wire.get_raw r 4 "hello.magic" in
          if got_magic <> magic then
            raise
              (Wire.Decode
                 (Printf.sprintf "hello: bad magic %S (want %S)" got_magic magic));
          let v = Wire.get_u8 r "hello.version" in
          if v <> version then
            raise
              (Wire.Decode
                 (Printf.sprintf "hello: protocol version %d, this build speaks %d"
                    v version));
          let pid = Wire.get_int r "hello.pid" in
          let protocol = Wire.get_string r "hello.protocol" in
          let n = Wire.get_int r "hello.n" in
          let t = Wire.get_int r "hello.t" in
          let incarnation = Wire.get_int r "hello.incarnation" in
          let wakeup = Wire.get_opt_int r "hello.wakeup" in
          Wire.expect_end r "hello";
          Hello { pid; protocol; n; t; incarnation; wakeup }
      | 2 ->
          let round = Wire.get_int r "welcome.round" in
          Wire.expect_end r "welcome";
          Welcome { round }
      | 3 ->
          let round = Wire.get_int r "round-start.round" in
          let inbox = Wire.get_list r get_envelope "round-start.inbox" in
          Wire.expect_end r "round-start";
          Round_start { round; inbox }
      | 4 ->
          let round = Wire.get_int r "step-result.round" in
          let sends = Wire.get_list r get_send "step-result.sends" in
          let work =
            Wire.get_list r (fun r -> Wire.get_int r "step-result.work")
              "step-result.work"
          in
          let terminate = Wire.get_bool r "step-result.terminate" in
          let wakeup = Wire.get_opt_int r "step-result.wakeup" in
          let persists = Wire.get_int r "step-result.persists" in
          Wire.expect_end r "step-result";
          Step_result { round; sends; work; terminate; wakeup; persists }
      | 6 ->
          Wire.expect_end r "shutdown";
          Shutdown
      | t -> raise (Wire.Decode (Printf.sprintf "unknown frame tag %d" t))
    in
    Ok f
  with Wire.Decode m -> Error m

let decode s =
  try
    let r = Wire.reader s in
    let len = Wire.get_u32 r "frame.length" in
    if len > max_frame_len then
      Error
        (Printf.sprintf "oversized frame: length prefix %d exceeds cap %d" len
           max_frame_len)
    else if String.length s - 4 < len then
      Error
        (Printf.sprintf "truncated frame: length prefix %d, %d body byte(s)" len
           (String.length s - 4))
    else if String.length s - 4 > len then
      Error
        (Printf.sprintf "trailing garbage: length prefix %d, %d body byte(s)" len
           (String.length s - 4))
    else decode_body (String.sub s 4 len)
  with Wire.Decode m -> Error m

let equal (a : t) (b : t) = a = b

let pp ppf = function
  | Hello { pid; protocol; n; t; incarnation; wakeup } ->
      Format.fprintf ppf "hello pid=%d proto=%s n=%d t=%d inc=%d wakeup=%s" pid
        protocol n t incarnation
        (match wakeup with Some w -> string_of_int w | None -> "-")
  | Welcome { round } -> Format.fprintf ppf "welcome round=%d" round
  | Round_start { round; inbox } ->
      Format.fprintf ppf "round-start r=%d inbox=%d" round (List.length inbox)
  | Step_result { round; sends; work; terminate; wakeup; persists } ->
      Format.fprintf ppf
        "step-result r=%d sends=%d work=%d terminate=%b wakeup=%s persists=%d"
        round (List.length sends) (List.length work) terminate
        (match wakeup with Some w -> string_of_int w | None -> "-")
        persists
  | Shutdown -> Format.fprintf ppf "shutdown"
