(* Child processes: the ppdm binary under test.  End-to-end numbers come
   from here, through the CLI, so they stay comparable when library
   signatures change underneath. *)

external wait4 : int -> int * int = "e2e_wait4"

type outcome = {
  status : int;  (** exit code; 128 + signal number when killed *)
  wall_s : float;  (** spawn to reap *)
  cpu_s : float;  (** the child's user + system time *)
  peak_rss_mb : float;
}

let now = Unix.gettimeofday

(* Every child not yet reaped, so an early exit can stop them all. *)
let live : int list ref = ref []

let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let spawn ~stdout prog args =
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout
      Unix.stderr
  in
  live := pid :: !live;
  pid

(* The child's CPU time shows in [Unix.times] once it is reaped, and only
   one child is reaped at a time, so the difference is this child's. *)
let reap pid ~t0 =
  let cpu0 = children_cpu () in
  let status, rss_kb = wait4 pid in
  let t1 = now () in
  live := List.filter (fun p -> p <> pid) !live;
  {
    status;
    wall_s = t1 -. t0;
    cpu_s = children_cpu () -. cpu0;
    peak_rss_mb = float_of_int rss_kb /. 1024.;
  }

(* Run [prog args] to completion with its stdout in the file [out]. *)
let run prog args ~out =
  let fd =
    Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let t0 = now () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        spawn ~stdout:fd prog args)
  in
  reap pid ~t0

(* Start [prog args] with its stdout on a pipe; returns the pid, the read
   end and the spawn time. *)
let spawn_piped prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close w) (fun () ->
        spawn ~stdout:w prog args)
  in
  (pid, Unix.in_channel_of_descr r, t0)

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (wait4 pid) with Failure _ -> ())
    !live;
  live := []

let () = at_exit kill_all

let read_file path = In_channel.with_open_bin path In_channel.input_all

let check_ok what (o : outcome) =
  if o.status <> 0 then
    failwith (Printf.sprintf "%s exited with status %d" what o.status)
