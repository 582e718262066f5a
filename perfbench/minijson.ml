(* Just enough JSON to read the server's Stats reply. *)

type v = Null | Bool of bool | Num of float | Str of string | Arr of v list | Obj of (string * v) list

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
        incr pos;
        skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Bad "unterminated string");
      let c = s.[!pos] in
      incr pos;
      if c = '"' then ()
      else if c = '\\' then begin
        let e = peek () in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'u' -> pos := !pos + 4 (* not needed for stats keys *)
        | c -> Buffer.add_char b c);
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            let k = str () in
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> raise (Bad "bad object")
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> raise (Bad "bad array")
          in
          items []
    | '"' -> Str (str ())
    | 't' -> pos := !pos + 4; Bool true
    | 'f' -> pos := !pos + 5; Bool false
    | 'n' -> pos := !pos + 4; Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr pos
        done;
        if !pos = start then raise (Bad (Printf.sprintf "unexpected char at %d" start));
        Num (float_of_string (String.sub s start (!pos - start)))
  in
  value ()

let rec path v keys =
  match (keys, v) with
  | [], v -> Some v
  | k :: rest, Obj fields -> (
      match List.assoc_opt k fields with Some v -> path v rest | None -> None)
  | _ -> None

(* A number at [keys], 0 when absent (counters the server has not
   touched yet are omitted from its JSON). *)
let num v keys = match path v keys with Some (Num f) -> f | _ -> 0.0
