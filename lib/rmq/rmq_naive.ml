(** Linear-scan RMQ: O(1) space, O(r - l) query. Testing oracle and the
    right choice for very small arrays. *)

type t = { value : int -> float; len : int }

let build a =
  let a = Array.copy a in
  { value = (fun i -> a.(i)); len = Array.length a }

let build_oracle ~value ~len = { value; len }

let length t = t.len

let check t l r =
  if l < 0 || r >= t.len || l > r then
    invalid_arg (Printf.sprintf "Rmq_naive.query: [%d,%d] not in [0,%d)" l r t.len)

let query t ~l ~r =
  check t l r;
  let best = ref l in
  let best_v = ref (t.value l) in
  for i = l + 1 to r do
    let v = t.value i in
    if v > !best_v then begin
      best := i;
      best_v := v
    end
  done;
  !best

let size_words _ = 2
let size_bytes _ = 16

