(* Open-loop request schedule. Request [i] is due at [due.(i)] whether
   or not earlier requests have been answered; the generator sends it as
   soon as it gets to it at or after that time. Latency is charged from
   the due time, so a stall anywhere — in the program or in the
   generator — is paid by every request that fell due during it, and
   the generator's own lateness ([sent - due]) is reported beside it. *)

type t = {
  due : float array;
  sent : float array;
  finished : float array;  (** [nan] until answered. *)
}

let create due =
  let n = Array.length due in
  { due; sent = Array.make n Float.nan; finished = Array.make n Float.nan }

(* Due times of [n] requests at a fixed [rate] per second from [start]. *)
let fixed_rate ~start ~rate ~n =
  Array.init n (fun i -> start +. (float_of_int i /. rate))

let finish t i time = t.finished.(i) <- time

(* Send every request due before [stop_at], in order. [wait_until d]
   must return once the clock has reached [d] (answering replies
   meanwhile, which is where [finish] is called); [send i] issues
   request [i]. Returns how many requests were sent. *)
let run t ~now ~wait_until ~send ~stop_at =
  let n = Array.length t.due in
  let i = ref 0 in
  while !i < n && t.due.(!i) < stop_at do
    wait_until t.due.(!i);
    t.sent.(!i) <- now ();
    send !i;
    incr i
  done;
  !i

let latency t i = t.finished.(i) -. t.due.(i)
let send_lag t i = t.sent.(i) -. t.due.(i)
