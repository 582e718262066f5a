(* Growable columns of ints and of unboxed floats, one value per request.
   Values live in fixed-size chunks, so growing never copies, and the
   collector copies nothing when a column gains a value: keeping a
   request's figures costs the generator no garbage collection work on
   the core it shares with the server. *)

let bits = 16
let chunk = 1 lsl bits
let mask = chunk - 1

module Int = struct
  type t = { mutable chunks : int array array }

  let create () = { chunks = [||] }

  (* Makes indices [0, n) addressable. *)
  let reserve t n =
    let need = (n + chunk - 1) lsr bits and have = Array.length t.chunks in
    if need > have then
      t.chunks <- Array.append t.chunks (Array.init (need - have) (fun _ -> Array.make chunk 0))

  let get t i = t.chunks.(i lsr bits).(i land mask)
  let set t i v = t.chunks.(i lsr bits).(i land mask) <- v
end

module Float = struct
  type t = { mutable chunks : float array array }

  let create () = { chunks = [||] }

  let reserve t n =
    let need = (n + chunk - 1) lsr bits and have = Array.length t.chunks in
    if need > have then
      t.chunks <-
        Array.append t.chunks (Array.init (need - have) (fun _ -> Array.make chunk Stdlib.Float.nan))

  let get t i = t.chunks.(i lsr bits).(i land mask)
  let set t i (v : float) = t.chunks.(i lsr bits).(i land mask) <- v
end
