(* In-memory span recorder. Spans are kept in growable arrays while the
   benchmark runs and written out once at the end, so recording costs
   two clock reads and a few array stores per span. A span names its
   parent by index (-1 for a root); spans of one request share [id]. *)

type span = {
  name : string;
  id : int;
  parent : int;
  start : float;
  stop : float;
}

type t = { mutable spans : span array; mutable n : int; enabled : bool }

let dummy = { name = ""; id = -1; parent = -1; start = 0.0; stop = 0.0 }
let create ~enabled = { spans = Array.make 1024 dummy; n = 0; enabled }

(* Returns the span's index, or -1 when tracing is off. *)
let add t ~name ~id ~parent ~start ~stop =
  if not t.enabled then -1
  else begin
    if t.n = Array.length t.spans then begin
      let bigger = Array.make (2 * t.n) dummy in
      Array.blit t.spans 0 bigger 0 t.n;
      t.spans <- bigger
    end;
    t.spans.(t.n) <- { name; id; parent; start; stop };
    t.n <- t.n + 1;
    t.n - 1
  end

(* Length of the union of [intervals] after clipping each to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of its interval
   that its direct children cover. *)
let self_times t =
  let children = Array.make t.n [] in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then
      children.(s.parent) <- (s.start, s.stop) :: children.(s.parent)
  done;
  Array.init t.n (fun i ->
      let s = t.spans.(i) in
      s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop children.(i))

(* Self times of every span called [name]. *)
let self_times_of t ~name =
  let self = self_times t in
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.spans.(i).name = name then acc := self.(i) :: !acc
  done;
  Array.of_list !acc

(* One JSON object per line; times in microseconds from [origin]. *)
let write t ~origin path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let self = self_times t in
      for i = 0 to t.n - 1 do
        let s = t.spans.(i) in
        Printf.fprintf oc
          "{\"span\":%d,\"name\":%S,\"id\":%d,\"parent\":%d,\"start_us\":%.3f,\"dur_us\":%.3f,\"self_us\":%.3f}\n"
          i s.name s.id s.parent
          ((s.start -. origin) *. 1e6)
          ((s.stop -. s.start) *. 1e6)
          (self.(i) *. 1e6)
      done)

(* Sets the end of span [i]: a parent is added before its children, so
   they can name it, and closed after them. *)
let close t i ~stop = if i >= 0 then t.spans.(i) <- { (t.spans.(i)) with stop }
