(* Process accounting read from /proc/<pid>: the benchmark reads the
   answering process (the server child, or itself when it answers
   in-process), never assumes the two are the same. *)

type sample = {
  cpu_s : float;  (** utime + stime, every thread. *)
  syscr : float;  (** read-class syscalls. *)
  syscw : float;  (** write-class syscalls. *)
  wchar : float;  (** bytes passed to write-class syscalls. *)
  vol_cs : float;  (** voluntary context switches, every thread. *)
  invol_cs : float;
  hwm_kb : float;  (** VmHWM: peak resident set. *)
}

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let b = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec go () =
          let k = input ic chunk 0 4096 in
          if k > 0 then begin
            Buffer.add_subbytes b chunk 0 k;
            go ()
          end
        in
        go ();
        Some (Buffer.contents b))
  with Sys_error _ -> None

(* "Key:   123 kB" lines of status/io files. *)
let field text key =
  let lines = String.split_on_char '\n' text in
  List.fold_left
    (fun acc line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = key -> (
          let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          let num = match String.index_opt rest ' ' with Some j -> String.sub rest 0 j | None -> rest in
          match float_of_string_opt num with Some f -> f | None -> acc)
      | _ -> acc)
    0.0 lines

(* /proc/<pid>/stat utime and stime (fields 14 and 15) are summed over
   the thread group; counted in USER_HZ = 100 ticks. *)
let cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> 0.0
  | Some s -> (
      let after = String.rindex s ')' in
      let fields = String.split_on_char ' ' (String.sub s (after + 2) (String.length s - after - 2)) in
      (* fields now start at field 3 (state) *)
      match (List.nth_opt fields 11, List.nth_opt fields 12) with
      | Some u, Some st -> (float_of_string u +. float_of_string st) /. 100.0
      | _ -> 0.0)

(* Context switches are per thread in /proc; sum every live thread. *)
let ctx_switches pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  let tasks = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.fold_left
    (fun (v, iv) tid ->
      match read_file (Printf.sprintf "%s/%s/status" dir tid) with
      | None -> (v, iv)
      | Some s ->
          (v +. field s "voluntary_ctxt_switches", iv +. field s "nonvoluntary_ctxt_switches"))
    (0.0, 0.0) tasks

let sample pid =
  let status = Option.value ~default:"" (read_file (Printf.sprintf "/proc/%d/status" pid)) in
  let io = Option.value ~default:"" (read_file (Printf.sprintf "/proc/%d/io" pid)) in
  let vol_cs, invol_cs = ctx_switches pid in
  {
    cpu_s = cpu_s pid;
    syscr = field io "syscr";
    syscw = field io "syscw";
    wchar = field io "wchar";
    vol_cs;
    invol_cs;
    hwm_kb = field status "VmHWM";
  }

let self () = sample (Unix.getpid ())
