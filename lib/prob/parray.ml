module S = Pti_storage

type t = {
  n : int;
  cum : S.floats; (* cum.(i) = sum of finite logs of positions [0..i-1] *)
  zeros : S.ints; (* zeros.(i) = number of zero-probability positions in [0..i-1] *)
}

let of_logps logs =
  let n = Array.length logs in
  let cum = Array.make (n + 1) 0.0 in
  let zeros = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let l = Logp.to_log logs.(i) in
    if Logp.is_zero logs.(i) then begin
      cum.(i + 1) <- cum.(i);
      zeros.(i + 1) <- zeros.(i) + 1
    end
    else begin
      cum.(i + 1) <- cum.(i) +. l;
      zeros.(i + 1) <- zeros.(i)
    end
  done;
  { n; cum = S.Floats.of_array cum; zeros = S.Ints.of_array zeros }

let of_probs probs = of_logps (Array.map Logp.of_prob probs)

let length t = t.n

let window t ~pos ~len =
  let n = length t in
  if len < 1 || pos < 0 || pos + len > n then
    invalid_arg
      (Printf.sprintf "Parray.window: pos=%d len=%d out of [0,%d)" pos len n);
  if S.Ints.unsafe_get t.zeros (pos + len) - S.Ints.unsafe_get t.zeros pos > 0
  then Logp.zero
  else
    Logp.of_log
      (Float.min 0.0 (S.Floats.unsafe_get t.cum (pos + len) -. S.Floats.unsafe_get t.cum pos))

let prefix t j =
  if j < 0 || j > length t then invalid_arg "Parray.prefix: out of range";
  if S.Ints.get t.zeros j > 0 then Logp.zero
  else Logp.of_log (Float.min 0.0 (S.Floats.get t.cum j))

let size_bytes t = S.Floats.byte_size t.cum + S.Ints.byte_size t.zeros
let raw t = (t.cum, t.zeros)

let of_storage ~cum ~zeros =
  let n = S.Floats.length cum - 1 in
  if n < 0 || S.Ints.length zeros <> n + 1 then
    invalid_arg "Parray.of_storage: inconsistent section lengths";
  { n; cum; zeros }
