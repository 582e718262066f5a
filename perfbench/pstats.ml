(* Order statistics for the benchmark's reports. Quantiles use the
   nearest-rank definition on the sorted sample, computed in integer
   arithmetic so that e.g. p99 of 1000 samples is exactly the 990th. *)

let sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

(* [q] in parts per 100000 (p99 = 99_000). Index of the nearest-rank
   q-quantile in a sorted sample of [n >= 1] elements. *)
let rank ~n ~q_pcm = max 0 (min (n - 1) ((((q_pcm * n) + 99_999) / 100_000) - 1))

let quantile_sorted s ~q_pcm =
  let n = Array.length s in
  if n = 0 then Float.nan else s.(rank ~n ~q_pcm)

let quantile a ~q_pcm = quantile_sorted (sorted a) ~q_pcm
let median a = quantile a ~q_pcm:50_000

let mean a =
  let n = Array.length a in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0.0 a /. float_of_int n

(* The mean after dropping the lowest and the highest value (with four
   or more values): per-round figures of a run are averaged, since an
   average follows slow drift in host speed more smoothly than a
   median, and one round that met a host pause does not move it. *)
let trimmed_mean a =
  let s = sorted a in
  let n = Array.length s in
  if n < 4 then mean s else mean (Array.sub s 1 (n - 2))

type tail = {
  q_pcm : int;  (** The percentile, in parts per 100000. *)
  value : float;
  beyond : int;  (** Samples strictly after the percentile's rank. *)
  count : int;  (** Sample size. *)
}

let ladder = [| 50_000; 90_000; 99_000; 99_900; 99_990; 99_999 |]

(* The highest percentile of [ladder] that still has at least ten
   samples beyond it, so a reported tail is never one or two outliers.
   [None] when even the median has fewer than ten samples after it. *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  Array.fold_left
    (fun best q_pcm ->
      if n = 0 then best
      else
        let beyond = n - (rank ~n ~q_pcm + 1) in
        if beyond >= 10 then
          Some { q_pcm; value = s.(rank ~n ~q_pcm); beyond; count = n }
        else best)
    None ladder

let percentile_label q_pcm =
  let whole = q_pcm / 1000 and frac = q_pcm mod 1000 in
  if frac = 0 then Printf.sprintf "p%d" whole
  else
    let s = Printf.sprintf "%03d" frac in
    let s =
      let len = ref (String.length s) in
      while !len > 0 && s.[!len - 1] = '0' do decr len done;
      String.sub s 0 !len
    in
    Printf.sprintf "p%d.%s" whole s

(* The median over fixed-width time windows of each window's q-quantile.
   A host pause of a few milliseconds lands in one window and moves
   that window's tail only, so the figure describes the typical window
   rather than the run's rarest pause. Windows with fewer than
   [min_count] samples are skipped. *)
let windowed ~width ~min_count ~q_pcm (samples : (float * float) array) =
  let buckets = Hashtbl.create 64 in
  Array.iter
    (fun (t, v) ->
      let w = int_of_float (Float.floor (t /. width)) in
      Hashtbl.replace buckets w (v :: Option.value (Hashtbl.find_opt buckets w) ~default:[]))
    samples;
  let per_window =
    Hashtbl.fold
      (fun _ vs acc ->
        if List.length vs >= min_count then quantile (Array.of_list vs) ~q_pcm :: acc else acc)
      buckets []
  in
  median (Array.of_list per_window)

(* Events per second in each full window of [width] seconds between 0
   and [stop] (event times are offsets from the phase start), median
   over the windows. *)
let windowed_rate ~width ~stop times =
  let nw = int_of_float (Float.floor (stop /. width)) in
  if nw = 0 then Float.nan
  else begin
    let counts = Array.make nw 0 in
    Array.iter
      (fun t ->
        let w = int_of_float (Float.floor (t /. width)) in
        if t >= 0.0 && w < nw then counts.(w) <- counts.(w) + 1)
      times;
    median (Array.map (fun c -> float_of_int c /. width) counts)
  end
