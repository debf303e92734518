(* A stand-in for dhw_node that dies outside any fault plan. For the pid
   named by the DHW_FAKE_DEAD_PID environment variable it connects, sends a
   valid Hello that asks for no wakeup, reads the Welcome and exits, so only
   mail or the orchestrator's final reap can notice it is gone. Every other
   pid execs the real dhw_node (next to this binary's build directory) with
   the same arguments. *)

module Net = Dhw_net

let () =
  let argv = Sys.argv in
  let flag name =
    let rec find i =
      if i + 1 >= Array.length argv then failwith ("fake_node: missing " ^ name)
      else if argv.(i) = name then argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  let pid = int_of_string (flag "--pid") in
  let dead =
    match Sys.getenv_opt "DHW_FAKE_DEAD_PID" with
    | Some s -> int_of_string_opt s
    | None -> None
  in
  if dead <> Some pid then begin
    let real =
      Filename.concat
        (Filename.dirname (Filename.dirname Sys.executable_name))
        "bin/dhw_node.exe"
    in
    Unix.execv real (Array.append [| real |] (Array.sub argv 1 (Array.length argv - 1)))
  end;
  let addr =
    match Net.Transport.addr_of_string (flag "--addr") with
    | Ok a -> a
    | Error e -> failwith e
  in
  let fd = Net.Transport.connect addr in
  Net.Transport.send_frame fd
    (Net.Frame.Hello
       {
         pid;
         protocol = flag "--protocol";
         n = int_of_string (flag "-n");
         t = int_of_string (flag "-t");
         incarnation = int_of_string (flag "--incarnation");
         wakeup = None;
       });
  match Net.Transport.recv_frame fd with
  | Net.Frame.Welcome _ -> exit 0
  | _ -> exit 2
