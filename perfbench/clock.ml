(* CLOCK_MONOTONIC with nanosecond resolution: gettimeofday's whole
   microseconds are too coarse for the engine calls the benchmark times. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

(* Seconds since an arbitrary origin (boot). *)
let now () = float_of_int (now_ns ()) *. 1e-9

(* Linux timer slack of the calling thread, in nanoseconds. *)
external set_timer_slack_ns : int -> unit = "perfbench_set_timer_slack_ns"
