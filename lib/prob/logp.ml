type t = float

let slack = 1e-9

let zero = neg_infinity
let one = 0.0

let of_prob p =
  if p < 0.0 || p > 1.0 +. slack then
    invalid_arg (Printf.sprintf "Logp.of_prob: %g not in [0, 1]" p)
  else if p >= 1.0 then one
  else log p

let of_prob_unchecked p = if p <= 0.0 then neg_infinity else log p

let to_prob t = if t >= 0.0 then 1.0 else exp t

let of_log x =
  if x > slack then invalid_arg (Printf.sprintf "Logp.of_log: %g > 0" x)
  else if x > 0.0 then one
  else x

let to_log t = t

let mul a b = a +. b

let div a b =
  if b = neg_infinity then invalid_arg "Logp.div: division by zero probability"
  else if a = neg_infinity then neg_infinity
  else a -. b

let compare = Float.compare
let equal = Float.equal
let ( >= ) (a : t) (b : t) = a >= b
let ( > ) (a : t) (b : t) = a > b
let ( <= ) (a : t) (b : t) = a <= b
let ( < ) (a : t) (b : t) = a < b

let max (a : t) (b : t) = if a >= b then a else b
let min (a : t) (b : t) = if a <= b then a else b

let is_zero t = t = neg_infinity

let approx_equal ?(eps = 1e-9) a b = Float.abs (to_prob a -. to_prob b) <= eps

let sub_prob t eps =
  let p = to_prob t -. eps in
  if p <= 0.0 then zero else of_prob_unchecked p

let pp ppf t = Format.fprintf ppf "%.6g" (to_prob t)

let to_string t = Format.asprintf "%a" pp t
