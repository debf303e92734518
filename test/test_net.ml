(* The real-process deployment substrate (lib/net): wire-frame codec laws
   (round-trip plus strict rejection of every malformed shape), payload
   codecs, crash-atomic on-disk checkpoints with torn-write fallback, and
   the socket transport's deadlines and bounded connect retries. *)

module Gen = QCheck2.Gen
module Net = Dhw_net
module F = Dhw_net.Frame
module W = Dhw_net.Wire
module Ck = Doall.Ckpt_script

let frame_t = Alcotest.testable F.pp F.equal

(* ------------------------------------------------------------------ *)
(* Frame codec: round-trip law and rejections *)

let gen_bytes = Gen.(string_size ~gen:char (0 -- 12))
let gen_small = Gen.(0 -- 1000)
let gen_wakeup = Gen.(option (0 -- 500))

let gen_envelope =
  Gen.map3
    (fun src sent_at payload -> { F.src; sent_at; payload })
    gen_small gen_small gen_bytes

let gen_send =
  Gen.map3 (fun dst payload show -> { F.dst; payload; show }) gen_small gen_bytes
    gen_bytes

let gen_frame =
  Gen.oneof
    [
      Gen.map
        (fun ((pid, protocol, n), (t, incarnation, wakeup)) ->
          F.Hello { pid; protocol; n; t; incarnation; wakeup })
        Gen.(
          pair
            (triple gen_small (string_size ~gen:printable (0 -- 8)) gen_small)
            (triple gen_small gen_small gen_wakeup));
      Gen.map (fun round -> F.Welcome { round }) gen_small;
      Gen.map2
        (fun round inbox -> F.Round_start { round; inbox })
        gen_small
        Gen.(list_size (0 -- 6) gen_envelope);
      Gen.map
        (fun ((round, sends, work), (terminate, wakeup, persists)) ->
          F.Step_result { round; sends; work; terminate; wakeup; persists })
        Gen.(
          pair
            (triple gen_small (list_size (0 -- 6) gen_send)
               (list_size (0 -- 6) gen_small))
            (triple bool gen_wakeup gen_small));
      Gen.pure F.Shutdown;
    ]

let pp_frame f = Format.asprintf "%a" F.pp f

let frame_roundtrip =
  Helpers.qcheck_case ~count:300 ~name:"frame: decode (encode f) = Ok f"
    gen_frame (fun f ->
      match F.decode (F.encode f) with
      | Ok f' when F.equal f f' -> true
      | Ok f' ->
          QCheck2.Test.fail_reportf "decoded %s from %s" (pp_frame f') (pp_frame f)
      | Error e -> QCheck2.Test.fail_reportf "decode failed: %s (%s)" e (pp_frame f))

let frame_truncation_rejected =
  Helpers.qcheck_case ~count:100
    ~name:"frame: every proper prefix is rejected" gen_frame (fun f ->
      let s = F.encode f in
      let ok = ref true in
      for k = 0 to String.length s - 1 do
        match F.decode (String.sub s 0 k) with
        | Error _ -> ()
        | Ok f' ->
            ok := false;
            ignore f'
      done;
      if not !ok then
        QCheck2.Test.fail_reportf "a prefix of %s decoded" (pp_frame f);
      !ok)

let frame_trailing_rejected =
  Helpers.qcheck_case ~count:100 ~name:"frame: trailing garbage is rejected"
    gen_frame (fun f ->
      match F.decode (F.encode f ^ "\x00") with
      | Error _ -> true
      | Ok _ -> QCheck2.Test.fail_reportf "trailing byte accepted (%s)" (pp_frame f))

let expect_error name s =
  match F.decode s with
  | Error _ -> ()
  | Ok f -> Alcotest.failf "%s: accepted %s" name (pp_frame f)

let hello =
  F.Hello { pid = 1; protocol = "a+rec"; n = 12; t = 3; incarnation = 0; wakeup = Some 0 }

(* encode layout: [0..3] length, [4] tag, then (hello only) [5..8] magic,
   [9] version. *)
let mutate s i c =
  let b = Bytes.of_string s in
  Bytes.set b i c;
  Bytes.to_string b

let test_rejections () =
  let b = Buffer.create 8 in
  W.put_u32 b (F.max_frame_len + 1);
  expect_error "oversized length prefix" (Buffer.contents b);
  let h = F.encode hello in
  expect_error "wrong hello version" (mutate h 9 '\xee');
  expect_error "bad hello magic" (mutate h 5 'X');
  expect_error "unknown tag" (mutate h 4 '\x7f');
  (match F.decode (mutate h 9 (Char.chr (F.version + 1))) with
  | Error e ->
      let mentions_version =
        let needle = "version" in
        let nl = String.length needle and el = String.length e in
        let rec scan i = i + nl <= el && (String.sub e i nl = needle || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) "version error names the mismatch" true mentions_version
  | Ok _ -> Alcotest.fail "future version accepted");
  (* a frame body shorter than its length prefix *)
  expect_error "short body" (String.sub h 0 (String.length h - 2))

(* ------------------------------------------------------------------ *)
(* Payload codecs *)

let gen_ord =
  Gen.oneof
    [
      Gen.map (fun c -> Ck.Partial c) gen_small;
      Gen.map2 (fun c g -> Ck.Full (c, g)) gen_small gen_small;
    ]

let gen_last =
  Gen.oneof
    [
      Gen.pure Ck.No_msg;
      Gen.map2 (fun ord src -> Ck.Last_ord { ord; src }) gen_ord gen_small;
    ]

let codec_ord_roundtrip =
  Helpers.qcheck_case ~count:200 ~name:"codec: ord round-trips" gen_ord
    (fun o -> Net.Codec.decode_ord (Net.Codec.encode_ord o) = o)

let codec_last_roundtrip =
  Helpers.qcheck_case ~count:200 ~name:"codec: last round-trips" gen_last
    (fun l -> Net.Codec.decode_last (Net.Codec.encode_last l) = l)

let gen_bmsg =
  Gen.oneof
    [
      Gen.map (fun o -> Doall.Protocol_b.Ord o) gen_ord;
      Gen.pure Doall.Protocol_b.Go_ahead;
    ]

let codec_b_roundtrip =
  Helpers.qcheck_case ~count:200 ~name:"codec: protocol-B msg round-trips"
    gen_bmsg (fun m -> Net.Codec.decode_b (Net.Codec.encode_b m) = m)

let gen_rmsg =
  Gen.oneof
    [
      Gen.map (fun o -> Doall.Recovery.Payload o) gen_ord;
      Gen.pure Doall.Recovery.Announce;
      Gen.map (fun l -> Doall.Recovery.Transfer l) gen_last;
    ]

let codec_rmsg_roundtrip =
  Helpers.qcheck_case ~count:200 ~name:"codec: recovery rmsg round-trips"
    gen_rmsg (fun m ->
      Net.Codec.decode_rmsg Net.Codec.decode_ord
        (Net.Codec.encode_rmsg Net.Codec.encode_ord m)
      = m)

let test_codec_rejects () =
  (try
     ignore (Net.Codec.decode_ord "");
     Alcotest.fail "empty ord accepted"
   with W.Decode _ -> ());
  (try
     ignore (Net.Codec.decode_ord (Net.Codec.encode_ord (Ck.Partial 3) ^ "\x00"));
     Alcotest.fail "trailing ord byte accepted"
   with W.Decode _ -> ());
  try
    ignore (Net.Codec.decode_last "\x07");
    Alcotest.fail "unknown last tag accepted"
  with W.Decode _ -> ()

(* ------------------------------------------------------------------ *)
(* Crash-atomic checkpoints *)

let tmpdir () =
  let d = Filename.temp_file "dhwnet" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let with_tmpdir f =
  let d = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let truncate_file p keep =
  let fd = Unix.openfile p [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd keep;
  Unix.close fd

let flip_byte p i =
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
  let oc = open_out_bin p in
  output_bytes oc b;
  close_out oc

let test_ckpt_roundtrip () =
  with_tmpdir (fun dir ->
      Alcotest.(check (option string)) "empty dir" None (Net.Ckpt.load ~dir ~pid:0);
      Net.Ckpt.save ~dir ~pid:0 "view-1";
      Alcotest.(check (option string)) "first save" (Some "view-1")
        (Net.Ckpt.load ~dir ~pid:0);
      Net.Ckpt.save ~dir ~pid:0 "view-2";
      Alcotest.(check (option string)) "overwrite" (Some "view-2")
        (Net.Ckpt.load ~dir ~pid:0);
      (* per-pid isolation: pid 1 sees nothing, and pid 0's file refuses to
         masquerade as pid 1's *)
      Alcotest.(check (option string)) "other pid" None (Net.Ckpt.load ~dir ~pid:1))

let test_ckpt_truncated_falls_back () =
  with_tmpdir (fun dir ->
      Net.Ckpt.save ~dir ~pid:3 "rank-1";
      Net.Ckpt.save ~dir ~pid:3 "rank-2";
      (* a torn write of the current generation must recover the previous
         rank, not crash and not return garbage *)
      truncate_file (Net.Ckpt.path ~dir ~pid:3) 7;
      Alcotest.(check (option string)) "truncated current -> previous rank"
        (Some "rank-1") (Net.Ckpt.load ~dir ~pid:3))

let test_ckpt_corrupt_falls_back () =
  with_tmpdir (fun dir ->
      Net.Ckpt.save ~dir ~pid:0 "rank-1";
      Net.Ckpt.save ~dir ~pid:0 "rank-2";
      let p = Net.Ckpt.path ~dir ~pid:0 in
      flip_byte p (String.length "DHWC" + 12);
      Alcotest.(check (option string)) "bit-flipped current -> previous rank"
        (Some "rank-1") (Net.Ckpt.load ~dir ~pid:0);
      (* both generations gone bad: recovery starts from nothing *)
      truncate_file p 3;
      flip_byte (p ^ ".prev") 6;
      Alcotest.(check (option string)) "both bad -> none" None
        (Net.Ckpt.load ~dir ~pid:0))

let test_ckpt_torn_rename_falls_back () =
  with_tmpdir (fun dir ->
      Net.Ckpt.save ~dir ~pid:5 "rank-1";
      Net.Ckpt.save ~dir ~pid:5 "rank-2";
      (* Simulate a crash inside save's torn-rename window on a third
         attempt: the current generation has already been demoted to
         .prev (displacing rank-1) but the fsynced tmp never made it into
         place — the node dies leaving NO current file, only .prev and a
         stray partial tmp. Recovery must surface the .prev generation. *)
      let p = Net.Ckpt.path ~dir ~pid:5 in
      Sys.rename p (p ^ ".prev");
      let oc = open_out_bin (p ^ ".tmp") in
      output_string oc "torn";
      close_out oc;
      Alcotest.(check bool) "current generation gone" false (Sys.file_exists p);
      Alcotest.(check (option string)) "missing current -> .prev generation"
        (Some "rank-2")
        (Net.Ckpt.load ~dir ~pid:5))

let test_ckpt_binary_payload () =
  with_tmpdir (fun dir ->
      let payload =
        Net.Codec.encode_last (Ck.Last_ord { ord = Ck.Full (2, 1); src = 7 })
      in
      Net.Ckpt.save ~dir ~pid:2 payload;
      match Net.Ckpt.load ~dir ~pid:2 with
      | Some raw ->
          Alcotest.(check bool) "decodes back" true
            (Net.Codec.decode_last raw = Ck.Last_ord { ord = Ck.Full (2, 1); src = 7 })
      | None -> Alcotest.fail "binary payload lost")

(* ------------------------------------------------------------------ *)
(* Transport *)

let test_addr_parse () =
  let ok s a =
    match Net.Transport.addr_of_string s with
    | Ok a' ->
        Alcotest.(check string) s (Net.Transport.addr_to_string a)
          (Net.Transport.addr_to_string a')
    | Error e -> Alcotest.failf "%s rejected: %s" s e
  in
  ok "unix:/tmp/x.sock" (Net.Transport.Unix_sock "/tmp/x.sock");
  ok "tcp:127.0.0.1:8080" (Net.Transport.Tcp ("127.0.0.1", 8080));
  ok "tcp:localhost:0" (Net.Transport.Tcp ("localhost", 0));
  List.iter
    (fun s ->
      match Net.Transport.addr_of_string s with
      | Ok _ -> Alcotest.failf "%s accepted" s
      | Error _ -> ())
    [ "bogus"; "unix:"; "tcp:host"; "tcp::80"; "tcp:h:notaport"; "tcp:h:70000" ]

let test_transport_loopback () =
  with_tmpdir (fun dir ->
      let addr = Net.Transport.Unix_sock (Filename.concat dir "s.sock") in
      let stats = Net.Transport.stats () in
      let srv = Net.Transport.listen addr in
      let client = Net.Transport.connect ~stats addr in
      let peer = Net.Transport.accept ~stats srv in
      Net.Transport.send_frame ~stats client (F.Welcome { round = 42 });
      Alcotest.(check frame_t) "server receives" (F.Welcome { round = 42 })
        (Net.Transport.recv_frame ~stats peer);
      Net.Transport.send_frame ~stats peer hello;
      Alcotest.(check frame_t) "client receives" hello
        (Net.Transport.recv_frame ~stats client);
      Alcotest.(check int) "two connects (dial + accept)" 2
        stats.Net.Transport.connects;
      Alcotest.(check int) "two frames sent" 2 stats.Net.Transport.frames_sent;
      Alcotest.(check int) "two frames received" 2
        stats.Net.Transport.frames_received;
      Alcotest.(check bool) "bytes counted" true
        (stats.Net.Transport.bytes_sent > 0
        && stats.Net.Transport.bytes_sent = stats.Net.Transport.bytes_received);
      (* peer closes: the reader sees Closed, not a hang *)
      Net.Transport.close_noerr client;
      (match Net.Transport.recv_frame ~stats peer with
      | exception Net.Transport.Closed _ -> ()
      | f -> Alcotest.failf "read %s after close" (pp_frame f));
      Net.Transport.close_noerr peer;
      Net.Transport.close_noerr srv)

let test_connect_retries_exhaust () =
  with_tmpdir (fun dir ->
      let addr = Net.Transport.Unix_sock (Filename.concat dir "absent.sock") in
      let stats = Net.Transport.stats () in
      match
        Net.Transport.connect ~stats ~attempts:3 ~backoff_s:0.001
          ~max_backoff_s:0.002 addr
      with
      | _ -> Alcotest.fail "connect to nothing succeeded"
      | exception Unix.Unix_error _ ->
          Alcotest.(check int) "attempts-1 retries" 2 stats.Net.Transport.retries;
          Alcotest.(check int) "no connect counted" 0 stats.Net.Transport.connects)

let test_recv_timeout () =
  with_tmpdir (fun dir ->
      let addr = Net.Transport.Unix_sock (Filename.concat dir "s.sock") in
      let stats = Net.Transport.stats () in
      let srv = Net.Transport.listen addr in
      let client = Net.Transport.connect ~stats addr in
      let peer = Net.Transport.accept ~stats srv in
      (match Net.Transport.recv_frame ~stats ~timeout_s:0.05 peer with
      | exception Net.Transport.Timeout _ ->
          Alcotest.(check int) "timeout counted" 1 stats.Net.Transport.timeouts
      | f -> Alcotest.failf "read %s from silence" (pp_frame f));
      Net.Transport.close_noerr client;
      Net.Transport.close_noerr peer;
      Net.Transport.close_noerr srv)

(* ------------------------------------------------------------------ *)
(* Async deployment substrate: peer codec, datagram mesh, seeded chaos *)

let test_peer_codec_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "peer_msg round-trips" true
        (Net.Codec.decode_peer (Net.Codec.encode_peer m) = m))
    [
      Net.Codec.P_data { src = 2; inc = 3; seq = 41; ord = Ck.Full (7, 2) };
      Net.Codec.P_data { src = 0; inc = 0; seq = 0; ord = Ck.Partial 9 };
      Net.Codec.P_ack { src = 1; inc = 2; target_inc = 0; seq = 999_983 };
      Net.Codec.P_beat { src = 2; inc = 5 };
    ];
  match Net.Codec.decode_peer "garbage" with
  | exception W.Decode _ -> ()
  | _ -> Alcotest.fail "garbage decoded as a peer_msg"

let test_counters_codec_roundtrip () =
  let bag = [ ("work", 600); ("data_sent", 3); ("parks", 0); ("inc", 2) ] in
  Alcotest.(check bool) "counter bag round-trips" true
    (Net.Codec.decode_counters (Net.Codec.encode_counters bag) = bag);
  Alcotest.(check bool) "empty bag round-trips" true
    (Net.Codec.decode_counters (Net.Codec.encode_counters []) = [])

let test_mesh_loopback () =
  with_tmpdir (fun dir ->
      let a = Net.Mesh.create ~dir ~pid:0 in
      let b = Net.Mesh.create ~dir ~pid:1 in
      Alcotest.(check bool) "send reaches bound peer" true
        (Net.Mesh.send a ~dst:1 "hello");
      Alcotest.(check (option string)) "datagram arrives" (Some "hello")
        (Net.Mesh.recv b ~timeout_s:1.0);
      Alcotest.(check (option string)) "silence times out" None
        (Net.Mesh.recv b ~timeout_s:0.01);
      (* an unbound pid is organic loss: counted, returned, never raised *)
      Alcotest.(check bool) "unbound peer unreachable" false
        (Net.Mesh.send a ~dst:7 "x");
      let sa = Net.Mesh.stats_of a in
      Alcotest.(check int) "one undeliverable" 1 sa.Net.Mesh.undeliverable;
      Alcotest.(check int) "one delivered send" 1 sa.Net.Mesh.datagrams_sent;
      (* SIGKILL semantics: a closed peer's path is gone; a respawned
         incarnation rebinds the same path and traffic resumes *)
      Net.Mesh.close b;
      Alcotest.(check bool) "dead peer unreachable" false
        (Net.Mesh.send a ~dst:1 "y");
      let b2 = Net.Mesh.create ~dir ~pid:1 in
      Alcotest.(check bool) "respawn reachable" true
        (Net.Mesh.send a ~dst:1 "z");
      Alcotest.(check (option string)) "respawn receives" (Some "z")
        (Net.Mesh.recv b2 ~timeout_s:1.0);
      Net.Mesh.close a;
      Net.Mesh.close b2)

let test_chaos_content_keyed () =
  let plan =
    { Net.Chaos.none with drop_bp = 3000; dup_bp = 1000; max_delay = 5;
      seed = 42L }
  in
  let judge ?(now = 7) kind =
    (Net.Chaos.judge plan ~src:0 ~dst:1 ~kind ~now ()).Net.Chaos.release_at
  in
  let k = Net.Chaos.Data { seq = 3; attempt = 0 } in
  (* content-keying: the same identity meets the same fate every time *)
  Alcotest.(check (list int)) "verdict is pure" (judge k) (judge k);
  (* delays are offsets from the send tick *)
  List.iter2
    (fun a b -> Alcotest.(check int) "verdict shifts with now" (a + 100) b)
    (judge k)
    (judge ~now:107 k);
  (* a retransmission is a fresh identity — otherwise a dropped packet
     would be condemned forever and loss could never heal *)
  let differs = ref false in
  for seq = 0 to 199 do
    if
      judge (Net.Chaos.Data { seq; attempt = 0 })
      <> judge (Net.Chaos.Data { seq; attempt = 1 })
    then differs := true
  done;
  Alcotest.(check bool) "attempts draw fresh fates" true !differs;
  (* the drop coin lands near its basis points over many identities *)
  let dropped = ref 0 in
  for seq = 0 to 999 do
    if judge (Net.Chaos.Ack { seq; attempt = 0 }) = [] then incr dropped
  done;
  Alcotest.(check bool)
    (Printf.sprintf "drop rate near 3000bp (got %d/1000)" !dropped)
    true
    (!dropped > 200 && !dropped < 400)

let test_chaos_sever_window () =
  let k = Net.Chaos.Beat { index = 4 } in
  let plan = { Net.Chaos.none with severs = [ (0, 1, 10, 20) ] } in
  let cut ~src ~dst now =
    (Net.Chaos.judge plan ~src ~dst ~kind:k ~now ()).Net.Chaos.release_at = []
  in
  Alcotest.(check bool) "inside the window" true (cut ~src:0 ~dst:1 15);
  Alcotest.(check bool) "window is inclusive" true
    (cut ~src:0 ~dst:1 10 && cut ~src:0 ~dst:1 20);
  Alcotest.(check bool) "after the window" false (cut ~src:0 ~dst:1 21);
  (* severs are directed: the reverse link stays up *)
  Alcotest.(check bool) "reverse direction up" false (cut ~src:1 ~dst:0 15)

(* ------------------------------------------------------------------ *)
(* The lockstep fleet: real dhw_node processes driven by Kernel.run *)

module Orch = Dhw_net.Orchestrator
module Sch = Simkit.Campaign.Schedule
module Metrics = Simkit.Metrics

let built_exe rel =
  match List.find_opt Sys.file_exists [ rel; "_build/default/test/" ^ rel ] with
  | Some p -> if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
  | None -> Alcotest.failf "%s not found (run under dune)" rel

let fleet_run ?(io_timeout_s = 10.) ~node_exe ~protocol ~n ~t ~max_rounds fault =
  with_tmpdir (fun dir ->
      Orch.run
        (Orch.config ~fault ~max_rounds ~io_timeout_s ~watchdog_s:60. ~log_dir:dir
           ~node_exe
           ~addr:(Net.Transport.Unix_sock (Filename.concat dir "ctl.sock"))
           ~protocol ~n ~t ~ckpt_dir:(Filename.concat dir "ckpt") ()))

let entry victim at mode = { Sch.victim; at; mode }

(* Seeded schedules for every protocol the fleet speaks: crash-only storms
   for a and b, crash+restart storms for a+rec and b+rec, and silent
   crashes of pids asleep at their crash round (pid 2 waits for its
   takeover deadline, and is mailed only by whoever is active). *)
let fleet_cases =
  let g = Dhw_util.Prng.create 39L (* every sample has entries *) in
  let sampled protocol ~n ~t =
    let sched =
      if String.length protocol > 1 then
        Simkit.Campaign.sample_recovery g ~t ~window:20 ~restart_gap:6
      else Simkit.Campaign.sample g ~t ~window:20
    in
    (protocol, n, t, sched)
  in
  [
    sampled "a" ~n:16 ~t:4;
    sampled "b" ~n:16 ~t:4;
    sampled "a+rec" ~n:12 ~t:3;
    sampled "b+rec" ~n:12 ~t:3;
    sampled "a+rec" ~n:24 ~t:4;
    sampled "b+rec" ~n:20 ~t:4;
    ("a", 16, 4, Sch.make [ entry 2 1 Sch.Silent; entry 0 6 Sch.Silent ]);
    ( "a+rec", 16, 4,
      Sch.make
        [ entry 2 1 Sch.Silent; entry 2 5 Sch.Restart;
          entry 0 3 (Sch.Acting { keep_work = false; delivery = Simkit.Fault.Prefix 0 }) ] );
  ]

let test_fleet_matches_kernel () =
  let node_exe = built_exe "../bin/dhw_node.exe" in
  let max_rounds = 2000 in
  List.iteri
    (fun i (protocol, n, t, sched) ->
      let name =
        Format.asprintf "case %d (%s n=%d t=%d: %a)" i protocol n t Sch.pp sched
      in
      let spec = Doall.Spec.make ~n ~t in
      let recovery which =
        Doall.Fuzz.run_recovery_schedule ~max_rounds ~rejoin_rounds:3 spec which sched
      in
      let plain proto = Doall.Fuzz.run_schedule ~max_rounds spec proto sched in
      let sim =
        match protocol with
        | "a+rec" -> recovery Doall.Recovery.A
        | "b+rec" -> recovery Doall.Recovery.B
        | "a" -> plain Doall.Protocol_a.protocol
        | _ -> plain Doall.Protocol_b.protocol
      in
      let real =
        fleet_run ~node_exe ~protocol ~n ~t ~max_rounds (Sch.to_fault sched)
      in
      let sr = sim.Doall.Fuzz.report in
      Alcotest.(check string) (name ^ ": stop") "completed"
        (Orch.stop_to_string real.Orch.stop);
      Alcotest.(check bool) (name ^ ": outcome") true
        (Orch.to_run_outcome real.Orch.stop = sr.Doall.Runner.outcome);
      List.iter
        (fun (what, f) ->
          Alcotest.(check int) (name ^ ": " ^ what) (f sr.Doall.Runner.metrics)
            (f real.Orch.metrics))
        [
          ("work", Metrics.work); ("messages", Metrics.messages);
          ("rounds", Metrics.rounds); ("persists", Metrics.persists);
          ("restarts", Metrics.restarts); ("crashes", Metrics.crashes);
        ];
      let statuses a = Array.to_list (Array.map Simkit.Types.status_to_string a) in
      Alcotest.(check (list string)) (name ^ ": statuses")
        (statuses sr.Doall.Runner.statuses) (statuses real.Orch.statuses);
      let events tr =
        List.map (Format.asprintf "%a" Simkit.Trace.pp_event) (Simkit.Trace.events tr)
      in
      Alcotest.(check (list string)) (name ^ ": trace")
        (events sim.Doall.Fuzz.trace) (events real.Orch.trace))
    fleet_cases

(* A node that exits outside the fault plan ends the run as a node
   failure, promptly, whether or not anyone has mail for it. *)
let test_node_death ~dead_pid ~expect_reap () =
  let node_exe = built_exe "fake_node.exe" in
  let io_timeout_s = 5. in
  Unix.putenv "DHW_FAKE_DEAD_PID" (string_of_int dead_pid);
  let res =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "DHW_FAKE_DEAD_PID" "")
      (fun () ->
        fleet_run ~io_timeout_s ~node_exe ~protocol:"a" ~n:12 ~t:2 ~max_rounds:2000
          Simkit.Fault.none)
  in
  (match res.Orch.stop with
  | Orch.Node_failure (_, msg) ->
      let reaped =
        msg = Printf.sprintf "pid %d exited outside the fault plan" dead_pid
      in
      Alcotest.(check bool)
        (Printf.sprintf "found by %s (%s)" (if expect_reap then "the reap" else "EOF") msg)
        expect_reap reaped
  | stop -> Alcotest.failf "expected a node failure, got %s" (Orch.stop_to_string stop));
  Alcotest.(check bool)
    (Printf.sprintf "within the io timeout (%.2fs)" res.Orch.wall_s)
    true (res.Orch.wall_s < io_timeout_s)

(* ------------------------------------------------------------------ *)

let suite =
  [
    frame_roundtrip;
    frame_truncation_rejected;
    frame_trailing_rejected;
    Alcotest.test_case "frame: malformed shapes rejected" `Quick test_rejections;
    codec_ord_roundtrip;
    codec_last_roundtrip;
    codec_b_roundtrip;
    codec_rmsg_roundtrip;
    Alcotest.test_case "codec: malformed payloads rejected" `Quick
      test_codec_rejects;
    Alcotest.test_case "ckpt: save/load round-trip" `Quick test_ckpt_roundtrip;
    Alcotest.test_case "ckpt: truncated file falls back to previous rank"
      `Quick test_ckpt_truncated_falls_back;
    Alcotest.test_case "ckpt: corrupt generations degrade gracefully" `Quick
      test_ckpt_corrupt_falls_back;
    Alcotest.test_case "ckpt: torn rename leaves .prev as the live generation"
      `Quick test_ckpt_torn_rename_falls_back;
    Alcotest.test_case "ckpt: binary payload survives" `Quick
      test_ckpt_binary_payload;
    Alcotest.test_case "transport: address syntax" `Quick test_addr_parse;
    Alcotest.test_case "transport: loopback frames + stats" `Quick
      test_transport_loopback;
    Alcotest.test_case "transport: bounded connect retries exhaust" `Quick
      test_connect_retries_exhaust;
    Alcotest.test_case "transport: recv deadline fires" `Quick
      test_recv_timeout;
    Alcotest.test_case "codec: peer_msg round-trips, garbage rejected" `Quick
      test_peer_codec_roundtrip;
    Alcotest.test_case "codec: counter bag round-trips" `Quick
      test_counters_codec_roundtrip;
    Alcotest.test_case "mesh: loopback, organic loss, respawn rebind" `Quick
      test_mesh_loopback;
    Alcotest.test_case "chaos: verdicts are content-keyed and pure" `Quick
      test_chaos_content_keyed;
    Alcotest.test_case "chaos: severs are directed deterministic windows"
      `Quick test_chaos_sever_window;
    Alcotest.test_case "orchestrator: fleet runs match the kernel on seeded schedules"
      `Quick test_fleet_matches_kernel;
    Alcotest.test_case "orchestrator: an unmailed node's death is reaped"
      `Quick (test_node_death ~dead_pid:0 ~expect_reap:true);
    Alcotest.test_case "orchestrator: a mailed node's death is a closed socket"
      `Quick (test_node_death ~dead_pid:1 ~expect_reap:false);
  ]
