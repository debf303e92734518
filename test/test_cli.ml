(* The doall_cli exit-code contract, as documented in the README: exit
   codes are machine-readable verdicts. [run]/[async]/[shmem] encode the
   outcome class (0 completed+correct, 1 incorrect, 2 usage, 3 stalled,
   4 round/tick limit); fuzz exits 1 when a campaign finds a
   counterexample and replay exits 1 when the replayed schedule still
   violates its oracle stack; a malformed schedule file or an option the
   chosen stack does not take is a usage error (2). Driven through the real
   executable so the codes can never drift from the docs silently.

   Protocols A-D never stall and the CLI exposes no round-limit override,
   so classes 3 and 4 are unreachable from here; they are covered by the
   kernel tests on synthetic protocols. *)

let cli =
  lazy
    (let candidates =
       [ "../bin/doall_cli.exe"; "_build/default/bin/doall_cli.exe" ]
     in
     match List.find_opt Sys.file_exists candidates with
     | Some c -> c
     | None -> Alcotest.fail "doall_cli.exe not found (run under dune)")

(* A committed schedule from test/corpus (cwd is test/ under dune test). *)
let committed file =
  let candidates =
    [ Filename.concat "corpus" file; Filename.concat "test/corpus" file ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some c -> c
  | None -> Alcotest.failf "%s not found (run under dune)" file

let null = if Sys.win32 then "NUL" else "/dev/null"

let exec args =
  Sys.command
    (Filename.quote_command (Lazy.force cli) ~stdout:null ~stderr:null args)

let check_exit name expected args =
  Alcotest.(check int) (name ^ ": exit code") expected (exec args)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The index just past the first [sub] in [s]. *)
let find s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some (i + n)
    else go (i + 1)
  in
  go 0

let contains s sub = find s sub <> None

(* Exit code, stdout and stderr of one run. *)
let capture args =
  let out = Filename.temp_file "dhw-cli-out" ".txt"
  and err = Filename.temp_file "dhw-cli-err" ".txt" in
  let code =
    Sys.command
      (Filename.quote_command (Lazy.force cli) ~stdout:out ~stderr:err args)
  in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

(* A usage error (exit 2) whose message names [what]. *)
let check_usage name ~what args =
  let code, _, err = capture args in
  Alcotest.(check int) (name ^ ": exit code") 2 code;
  if not (contains err what) then
    Alcotest.failf "%s: stderr %S does not name %S" name err what

let temp_sched text =
  let path = Filename.temp_file "dhw-cli" ".sched" in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  path

(* A fresh corpus directory the CLI will create and fill. *)
let temp_corpus () =
  let path = Filename.temp_file "dhw-cli-corpus" "" in
  Sys.remove path;
  path

let test_run_codes () =
  check_exit "run clean" 0 [ "run"; "-p"; "a"; "-n"; "24"; "-t"; "6" ];
  check_exit "run with crashes" 0
    [ "run"; "-p"; "a"; "-n"; "24"; "-t"; "6"; "--crash"; "0@3"; "--crash"; "2@7" ];
  check_exit "unknown protocol is usage error" 2
    [ "run"; "-p"; "nosuch"; "-n"; "24"; "-t"; "6" ]

let test_fuzz_codes () =
  let corpus = temp_corpus () in
  check_exit "clean campaign" 0
    [ "fuzz"; "-p"; "a"; "--seed"; "11"; "--executions"; "40"; "-n"; "24";
      "-t"; "6"; "--corpus"; corpus ];
  check_exit "clean campaign, parallel" 0
    [ "fuzz"; "-p"; "a"; "--seed"; "11"; "--executions"; "40"; "-n"; "24";
      "-t"; "6"; "--jobs"; "2"; "--corpus"; corpus ];
  check_exit "negative --jobs is usage error" 2
    [ "fuzz"; "-p"; "a"; "--jobs=-3"; "--executions"; "5"; "-n"; "12"; "-t"; "4" ]

let test_counterexample_codes () =
  (* work-cap 1 is violated by every schedule: the campaign must exit 1 and
     write the shrunk counterexample to the corpus. *)
  let corpus = temp_corpus () in
  check_exit "fuzz counterexample" 1
    [ "fuzz"; "-p"; "a"; "--seed"; "1"; "--executions"; "10"; "-n"; "12";
      "-t"; "4"; "--work-cap"; "1"; "--max-failures"; "1"; "--corpus"; corpus ];
  let sched = Filename.concat corpus "a-seed1-0.sched" in
  Alcotest.(check bool) "counterexample written" true (Sys.file_exists sched);
  (* Replay's exit code is the verdict of the replayed oracle stack: the
     schedule passes the standard stack (0) and still violates the cap (1). *)
  check_exit "replay without cap" 0 [ "replay"; sched ];
  check_exit "replay with cap" 1 [ "replay"; sched; "--work-cap"; "1" ];
  (* A missing schedule file is rejected by cmdliner's own argument
     validation, which uses its fixed code 124 rather than this CLI's 2. *)
  check_exit "replay of missing file is a cmdliner error" 124
    [ "replay"; Filename.concat corpus "nosuch.sched" ]

let test_async_and_recovery_codes () =
  check_exit "async-a fuzz clean" 0
    [ "fuzz"; "-p"; "async-a"; "--seed"; "7"; "--executions"; "15"; "-n"; "25";
      "-t"; "4"; "--jobs"; "2" ];
  check_exit "async-a fuzz counterexample" 1
    [ "fuzz"; "-p"; "async-a"; "--seed"; "4"; "--executions"; "8"; "-n"; "16";
      "-t"; "4"; "--work-cap"; "1"; "--max-failures"; "1"; "--corpus";
      temp_corpus () ];
  check_exit "a+rec fuzz clean" 0
    [ "fuzz"; "-p"; "a+rec"; "--seed"; "3"; "--executions"; "40"; "-n"; "20";
      "-t"; "5"; "--jobs"; "2" ];
  check_exit "a+rec fuzz counterexample" 1
    [ "fuzz"; "-p"; "a+rec"; "--seed"; "4"; "--executions"; "8"; "-n"; "16";
      "-t"; "4"; "--work-cap"; "1"; "--max-failures"; "1"; "--corpus";
      temp_corpus () ]

let test_jobs_byte_identical_stdout () =
  (* The CI determinism gate in miniature: the same seeded campaign at
     --jobs 1 and --jobs 4 must print byte-identical results. *)
  let capture jobs =
    let out = Filename.temp_file "dhw-cli-out" ".txt" in
    let code =
      Sys.command
        (Filename.quote_command (Lazy.force cli) ~stdout:out ~stderr:null
           [ "fuzz"; "-p"; "a"; "--seed"; "11"; "--executions"; "60"; "-n";
             "24"; "-t"; "6"; "--jobs"; string_of_int jobs ])
    in
    Alcotest.(check int) (Printf.sprintf "jobs=%d exit" jobs) 0 code;
    let ic = open_in_bin out in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove out;
    s
  in
  Alcotest.(check string) "stdout identical at jobs 1 and 4" (capture 1) (capture 4)

let test_net_codes () =
  (* Real-process family. Misconfigurations must be rejected before any
     node is spawned; one tiny clean fleet proves the 0 path end to end. *)
  check_exit "net-run clean fleet" 0
    [ "net-run"; "-p"; "a"; "-n"; "8"; "-t"; "2" ];
  check_exit "net-run unknown protocol is usage error" 2
    [ "net-run"; "-p"; "nosuch"; "-n"; "8"; "-t"; "2" ];
  check_exit "net-run restarts need a recovery protocol" 2
    [ "net-run"; "-p"; "a"; "-n"; "8"; "-t"; "2"; "--restarts"; "0@6" ];
  check_exit "net-run watchdog expiry is a limit" 4
    [ "net-run"; "-p"; "a"; "-n"; "200"; "-t"; "8"; "--watchdog"; "0.01" ];
  (* Corrupt/Byzantine entries have no tamper model over real sockets:
     replay --real must refuse them as misconfiguration, not degrade. *)
  let sched =
    temp_sched
      "schedule v1\nmeta protocol a\nmeta n 8\nmeta t 2\n\
       corrupt 0 @2 lying-view salt 1\nend\n"
  in
  check_exit "replay --real rejects corrupt entries" 2
    [ "replay"; "--real"; sched ];
  Sys.remove sched

(* Every schedule file goes through one loader: a malformed or missing
   meta n/t, an async link or delay field outside the executor's range, or
   an entry naming a pid outside [0, t), is a usage error naming the key or
   line, on both substrates and with or without --real. *)
let test_schedule_validation () =
  let sync body = "schedule v1\nmeta protocol a\n" ^ body ^ "end\n"
  and async body =
    "async-schedule v1\nmeta protocol async-a\n" ^ body ^ "end\n"
  in
  let cases =
    [
      ("sync: missing meta n", sync "meta t 4\n", "meta n", []);
      ("sync: malformed meta n", sync "meta n x\nmeta t 4\n", "meta n", []);
      ("sync: malformed meta t", sync "meta n 12\nmeta t four\n", "meta t", []);
      ("sync: meta t 0", sync "meta n 12\nmeta t 0\n", "meta t", []);
      ( "sync: pid outside [0, t)",
        sync "meta n 12\nmeta t 4\ncrash 9 @3 silent\n",
        "crash 9 @3 silent", [] );
      ( "sync --real: pid outside [0, t)",
        sync "meta n 12\nmeta t 4\ncrash 9 @3 silent\n",
        "crash 9 @3 silent", [ "--real" ] );
      ("async: missing meta t", async "meta n 12\n", "meta t", []);
      ("async: malformed meta n", async "meta n 1e3\nmeta t 4\n", "meta n", []);
      ( "async: pid outside [0, t)",
        async "meta n 12\nmeta t 4\ncrash 9 @3\n", "crash 9 @3", [] );
      ( "async: sever endpoint outside [0, t)",
        async "meta n 12\nmeta t 4\nsever 0 4 @1 @5\n", "sever 0 4 @1 @5", [] );
      ( "async --real: pid outside [0, t)",
        async "meta n 12\nmeta t 4\nrestart 7 @3\n", "restart 7 @3",
        [ "--real" ] );
      ( "async: link drop 10000",
        async "meta n 12\nmeta t 4\nlink drop 10000 dup 0\n", "link drop", [] );
      ( "async: link dup 10001",
        async "meta n 12\nmeta t 4\nlink drop 0 dup 10001\n", "link dup", [] );
      ( "async: corrupt 10000",
        async "meta n 12\nmeta t 4\ncorrupt 10000\n", "corrupt", [] );
      ( "async: slow factor 0",
        async "meta n 12\nmeta t 4\nslow 1 factor 0\n", "slow factor", [] );
      ("async: delay 0", async "meta n 12\nmeta t 4\ndelay 0 lag 3\n", "delay", []);
      ( "async --real: lag 0",
        async "meta n 12\nmeta t 4\ndelay 3 lag 0\n", "lag", [ "--real" ] );
    ]
  in
  List.iter
    (fun (name, text, what, flags) ->
      let path = temp_sched text in
      check_usage name ~what ([ "replay"; path ] @ flags);
      Sys.remove path)
    cases;
  let path =
    temp_sched "schedule v1\nmeta protocol a\ncrash 0 @x silent\nend\n"
  in
  check_usage "parse error names the line" ~what:"line 3" [ "replay"; path ];
  Sys.remove path

(* An option the dispatched stack does not take is rejected before
   anything runs; the stacks keep their --executions defaults. *)
let test_inapplicable_options () =
  let fuzz args =
    [ "fuzz"; "-n"; "12"; "-t"; "4"; "--executions"; "1" ] @ args
  in
  check_usage "--exhaustive outside the crash stack" ~what:"--exhaustive"
    (fuzz [ "-p"; "a+rec"; "--exhaustive" ]);
  check_usage "--restart-gap outside +rec" ~what:"--restart-gap"
    (fuzz [ "-p"; "a"; "--restart-gap"; "3" ]);
  check_usage "--work-cap on a Byzantine stack" ~what:"--work-cap"
    (fuzz [ "-p"; "a+val"; "--work-cap"; "5" ]);
  check_usage "--work-cap on bare a with --byz" ~what:"--work-cap"
    (fuzz [ "-p"; "a"; "--byz"; "1"; "--work-cap"; "5" ]);
  check_usage "--byz without a Byzantine stack" ~what:"Byzantine"
    (fuzz [ "-p"; "b"; "--byz"; "1" ]);
  check_usage "--byz on a recovery protocol" ~what:"Byzantine"
    (fuzz [ "-p"; "a+rec"; "--byz"; "1" ]);
  check_usage "--byz out of range" ~what:"--byz"
    (fuzz [ "-p"; "async-a"; "--byz"; "4" ]);
  check_usage "unknown protocol" ~what:"nosuch" (fuzz [ "-p"; "nosuch" ]);
  (* the error lists the names the command takes, and only those *)
  let code, _, err = capture (fuzz [ "-p"; "d-online" ]) in
  Alcotest.(check int) "fuzz -p d-online: exit code" 2 code;
  if contains err "D-online" || not (contains err "async-a+val") then
    Alcotest.failf "fuzz -p d-online: stderr %S must list fuzz's names only" err;
  check_usage "run lists D-online" ~what:"D-online"
    [ "run"; "-p"; "nosuch"; "-n"; "12"; "-t"; "4" ];
  check_usage "replay --work-cap on a Byzantine stack" ~what:"--work-cap"
    [ "replay"; committed "byz-break-a.sched"; "--work-cap"; "3" ];
  check_usage "real-run option without --real" ~what:"--real"
    [ "replay"; committed "net-seed.sched"; "--keep-dir" ];
  check_usage "--work-cap with --real" ~what:"--work-cap"
    [ "replay"; committed "net-seed.sched"; "--real"; "--work-cap"; "3" ];
  check_usage "--tick-ms with a schedule v1 file" ~what:"--tick-ms"
    [ "replay"; committed "net-seed.sched"; "--real"; "--tick-ms"; "5" ];
  check_usage "--addr with an async-schedule v1 file" ~what:"--addr"
    [ "replay"; committed "async-net-seed.sched"; "--real"; "--addr";
      "tcp:127.0.0.1:0" ];
  let schedules args =
    let code, out, _ = capture ([ "fuzz"; "-n"; "8"; "-t"; "2" ] @ args) in
    Alcotest.(check int) "default executions: exit" 0 code;
    out
  in
  Alcotest.(check bool) "a: 200 schedules by default" true
    (contains (schedules [ "-p"; "a" ]) "schedules=200 ");
  Alcotest.(check bool) "async-a: 100 schedules by default" true
    (contains (schedules [ "-p"; "async-a" ]) "schedules=100 ")

(* fuzz -> corpus -> replay for every stack: the written .sched must
   re-fail under replay with the oracle its .report.json names, which pins
   the dispatch from protocol name and file contents back to the stack. *)
let test_corpus_round_trip () =
  let round_trip name ~file args ~replay_args =
    let corpus = temp_corpus () in
    let code, _, _ =
      capture
        ([ "fuzz" ] @ args @ [ "--max-failures"; "1"; "--corpus"; corpus ])
    in
    Alcotest.(check int) (name ^ ": fuzz exit") 1 code;
    let base = Filename.concat corpus file in
    let report = read_file (base ^ ".report.json") in
    let code, out, _ = capture ([ "replay"; base ^ ".sched" ] @ replay_args) in
    Alcotest.(check int) (name ^ ": replay exit") 1 code;
    let oracle =
      match find out "verdict: oracle=" with
      | Some i -> String.sub out i (String.index_from out i ' ' - i)
      | None -> Alcotest.failf "%s: no failing verdict in %S" name out
    in
    if not (contains report (Printf.sprintf "\"oracle\": \"%s\"" oracle)) then
      Alcotest.failf "%s: replay failed %s, report %S" name oracle report
  in
  let cap = [ "--work-cap"; "1" ] in
  let capped p seed =
    [ "-p"; p; "--seed"; seed; "--executions"; "8"; "-n"; "16"; "-t"; "4" ]
    @ cap
  in
  round_trip "crash" ~file:"a-seed1-0" (capped "a" "1") ~replay_args:cap;
  round_trip "checkpoint:k" ~file:"checkpoint:2-seed1-0" (capped "checkpoint:2" "1")
    ~replay_args:cap;
  round_trip "recovery" ~file:"a+rec-seed4-0" (capped "a+rec" "4")
    ~replay_args:cap;
  round_trip "async" ~file:"async-a-seed4-0" (capped "async-a" "4")
    ~replay_args:cap;
  round_trip "a with --byz" ~file:"a-seed1-0"
    [ "-p"; "a"; "--byz"; "3"; "--seed"; "1"; "--executions"; "150"; "-n"; "60";
      "-t"; "12" ]
    ~replay_args:[];
  round_trip "async-a with --byz" ~file:"async-a-seed4-0"
    [ "-p"; "async-a"; "--byz"; "1"; "--seed"; "4"; "--executions"; "40"; "-n";
      "24"; "-t"; "6"; "--window"; "40" ]
    ~replay_args:[]

(* The committed corpus keeps its verdicts under the one replay. *)
let test_committed_corpus () =
  List.iter
    (fun (file, expected) ->
      check_exit ("replay " ^ file) expected [ "replay"; committed file ])
    [
      ("recovery-seed.sched", 0);
      ("net-seed.sched", 0);
      ("async-net-seed.sched", 0);
      ("byz-break-a.sched", 1);
      ("byz-break-async-a.sched", 1);
    ]

let suite =
  [
    Alcotest.test_case "run exit codes" `Quick test_run_codes;
    Alcotest.test_case "fuzz exit codes" `Quick test_fuzz_codes;
    Alcotest.test_case "counterexample and replay exit codes" `Quick
      test_counterexample_codes;
    Alcotest.test_case "async and recovery fuzz exit codes" `Quick
      test_async_and_recovery_codes;
    Alcotest.test_case "campaign stdout independent of --jobs" `Quick
      test_jobs_byte_identical_stdout;
    Alcotest.test_case "net-run and net-replay exit codes" `Quick
      test_net_codes;
    Alcotest.test_case "schedule file validation" `Quick
      test_schedule_validation;
    Alcotest.test_case "options outside the stack" `Quick
      test_inapplicable_options;
    Alcotest.test_case "fuzz corpus replays for every stack" `Quick
      test_corpus_round_trip;
    Alcotest.test_case "committed corpus verdicts" `Quick test_committed_corpus;
  ]
