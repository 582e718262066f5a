(* Tests for the write-ahead log and the integrity scrubber (PR 10):

   - Pti_storage.Wal framing: roundtrip, torn-tail detection and
     truncation, ambiguous mid-log corruption refused with a typed
     Corrupt;
   - store-level recovery: unsealed inserts and deletes survive a
     reopen byte-identically, seal rotation retires the log, torn
     tails are truncated on writable open, replay is idempotent when a
     retired log resurfaces, a failed append burns no doc id;
   - the crash-churn property: a child process running a seeded
     insert/delete/seal/compact schedule under [--wal-sync always] is
     killed at arbitrary points (abort failpoints and real SIGKILL);
     the recovered store must answer queries exactly like a monolithic
     reference over either the acked prefix of operations or that
     prefix plus the one in-flight op — nothing else;
   - scrub: an injected bit-flip is detected, the damaged segment is
     quarantined through a manifest commit while queries keep
     answering, and a forced compaction restores a corpus that opens
     clean under [~verify:true]. *)

module U = Pti_ustring.Ustring
module L = Pti_core.Listing_index
module Logp = Pti_prob.Logp
module S = Pti_storage
module Store = Pti_segment.Segment_store
module F = Pti_fault
module H = Pti_test_helpers

let tau_min = 0.1

let with_tmpdir = H.with_tmpdir

let with_faults f =
  F.disarm_all ();
  Fun.protect ~finally:F.disarm_all f

let manual_config =
  { (Store.default_config ~tau_min) with Store.memtable_max_docs = 0 }

let hits_testable = Alcotest.(list (pair int (float 1e-9)))
let floats hits = List.map (fun (d, p) -> (d, Logp.to_log p)) hits

let file_size path = (Unix.stat path).Unix.st_size

let files_matching dir pred =
  Sys.readdir dir |> Array.to_list |> List.filter pred |> List.sort compare

let wal_files dir =
  files_matching dir (fun n ->
      String.length n > 4
      && String.sub n 0 4 = "wal-"
      && Filename.check_suffix n ".log")

let seg_files dir =
  files_matching dir (fun n -> Filename.check_suffix n ".pti")

(* xor [n] consecutive bytes at [off] with 0x10 — wide enough to hit a
   checksummed region even across 8-byte alignment padding *)
let flip_bytes path off n =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create n in
      ignore (Unix.lseek fd off Unix.SEEK_SET : int);
      let got = Unix.read fd b 0 n in
      for i = 0 to got - 1 do
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10))
      done;
      ignore (Unix.lseek fd off Unix.SEEK_SET : int);
      ignore (Unix.write fd b 0 got : int))

let append_garbage path bytes =
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc bytes)

let docs_of_seed ?(n = 12) seed =
  List.init n (fun i ->
      H.random_ustring (H.rng_of_seed (seed + i)) (8 + ((seed + i) mod 10)) 4 3)

(* Canonical reference answers over live (id, doc) pairs in ascending
   id order: listing positions map back to corpus ids, sorted the way
   the store sorts (descending relevance, ascending id among equals). *)
let reference_hits live pats =
  if live = [] then List.map (fun _ -> []) pats
  else begin
    let ids = Array.of_list (List.map fst live) in
    let l = L.build ~tau_min (List.map snd live) in
    List.map
      (fun (pat, tau) ->
        L.query l ~pattern:pat ~tau
        |> List.map (fun (d, p) -> (ids.(d), p))
        |> List.sort (fun (d1, p1) (d2, p2) ->
               let c = Logp.compare p2 p1 in
               if c <> 0 then c else Int.compare d1 d2)
        |> floats)
      pats
  end

let store_answers t pats =
  List.map (fun (pat, tau) -> floats (Store.query t ~pattern:pat ~tau)) pats

let fixed_pats seed =
  let rng = H.rng_of_seed seed in
  List.init 8 (fun _ ->
      (H.random_letters rng 3 2, 0.15 +. Random.State.float rng 0.5))

(* ------------------------------------------------------------------ *)
(* Framing: Pti_storage.Wal in isolation                               *)

let with_tmpfile f =
  let path = Filename.temp_file "pti_wal_frame" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let payloads =
  [ "alpha"; ""; String.make 300 'x'; "tail-record"; "\x00\x01\xff bin" ]

let write_payloads path =
  let w = S.Wal.open_writer path in
  Fun.protect
    ~finally:(fun () -> S.Wal.close w)
    (fun () ->
      List.iter (S.Wal.append w) payloads;
      S.Wal.sync w)

let test_framing_roundtrip () =
  with_tmpfile (fun path ->
      write_payloads path;
      let sc = S.Wal.scan path in
      Alcotest.(check (list string)) "records roundtrip" payloads sc.S.Wal.ws_records;
      Alcotest.(check bool) "not torn" false sc.S.Wal.ws_torn;
      Alcotest.(check int) "valid bytes = file size" (file_size path)
        sc.S.Wal.ws_valid_bytes;
      let framed =
        List.fold_left (fun a p -> a + S.Wal.header_bytes + String.length p) 0 payloads
      in
      Alcotest.(check int) "framing overhead accounted" framed
        sc.S.Wal.ws_valid_bytes)

let test_framing_torn_tail () =
  (* a partial header is a torn tail; truncation makes the log clean *)
  with_tmpfile (fun path ->
      write_payloads path;
      let clean = file_size path in
      append_garbage path "\x07\x00\x00";
      let sc = S.Wal.scan path in
      Alcotest.(check bool) "torn" true sc.S.Wal.ws_torn;
      Alcotest.(check int) "valid prefix survives" clean sc.S.Wal.ws_valid_bytes;
      Alcotest.(check (list string)) "records intact" payloads sc.S.Wal.ws_records;
      S.Wal.truncate path sc.S.Wal.ws_valid_bytes;
      Alcotest.(check int) "truncated to the valid prefix" clean (file_size path);
      let sc2 = S.Wal.scan path in
      Alcotest.(check bool) "clean after truncation" false sc2.S.Wal.ws_torn)

let test_framing_corrupt_last () =
  (* a bit-flip inside the LAST record is indistinguishable from a torn
     tail and must be reported as one, dropping only that record *)
  with_tmpfile (fun path ->
      write_payloads path;
      let last = List.nth payloads (List.length payloads - 1) in
      flip_bytes path (file_size path - String.length last + 2) 1;
      let sc = S.Wal.scan path in
      Alcotest.(check bool) "torn" true sc.S.Wal.ws_torn;
      Alcotest.(check (list string)) "prefix records survive"
        (List.filteri (fun i _ -> i < List.length payloads - 1) payloads)
        sc.S.Wal.ws_records)

let test_framing_corrupt_middle () =
  (* a bad checksum FOLLOWED by valid records is mid-log corruption:
     truncating there would silently drop acknowledged operations, so
     scan must refuse with a typed Corrupt instead *)
  with_tmpfile (fun path ->
      write_payloads path;
      flip_bytes path (S.Wal.header_bytes + 2) 1;
      match S.Wal.scan path with
      | exception S.Corrupt { section; _ } ->
          Alcotest.(check string) "wal section named" "wal" section
      | _ -> Alcotest.fail "mid-log corruption must raise Corrupt")

(* ------------------------------------------------------------------ *)
(* Store-level recovery                                                *)

let test_recovery_inserts_survive () =
  let docs = docs_of_seed 301 in
  let pats = fixed_pats 311 in
  with_tmpdir (fun dir ->
      let t = Store.create ~config:manual_config ~wal_sync:Store.Wal_always dir in
      List.iter (fun u -> ignore (Store.insert t u : int)) docs;
      (* no seal: every document lives only in the memtable + WAL *)
      let expected =
        reference_hits (List.mapi (fun i u -> (i, u)) docs) pats
      in
      let fresh = Store.open_dir ~wal_sync:Store.Wal_always dir in
      let st = Store.stats fresh in
      Alcotest.(check int) "memtable recovered" (List.length docs)
        st.Store.st_memtable_docs;
      Alcotest.(check int) "one record per insert" (List.length docs)
        st.Store.st_wal_records;
      List.iteri
        (fun i hits ->
          Alcotest.check hits_testable
            (Printf.sprintf "answer %d" i)
            (List.nth expected i) hits)
        (store_answers fresh pats);
      (* ids not burned: the next insert continues the sequence *)
      Alcotest.(check int) "next id continues" (List.length docs)
        (Store.insert fresh (List.hd docs)))

let test_recovery_deletes_replayed () =
  let docs = docs_of_seed 401 in
  let pats = fixed_pats 411 in
  with_tmpdir (fun dir ->
      let t = Store.create ~config:manual_config ~wal_sync:Store.Wal_always dir in
      List.iter (fun u -> ignore (Store.insert t u : int)) docs;
      Alcotest.(check bool) "delete 2" true (Store.delete t 2);
      Alcotest.(check bool) "delete 7" true (Store.delete t 7);
      let live =
        List.filteri (fun i _ -> i <> 2 && i <> 7) docs
        |> List.mapi (fun _ u -> u)
      in
      ignore live;
      let expected =
        reference_hits
          (List.mapi (fun i u -> (i, u)) docs
          |> List.filter (fun (i, _) -> i <> 2 && i <> 7))
          pats
      in
      let fresh = Store.open_dir ~wal_sync:Store.Wal_always dir in
      let st = Store.stats fresh in
      Alcotest.(check int) "memtable minus deletes" (List.length docs - 2)
        st.Store.st_memtable_docs;
      List.iteri
        (fun i hits ->
          Alcotest.check hits_testable
            (Printf.sprintf "answer %d" i)
            (List.nth expected i) hits)
        (store_answers fresh pats))

let test_recovery_seal_rotates () =
  let docs = docs_of_seed 501 in
  with_tmpdir (fun dir ->
      let t = Store.create ~config:manual_config ~wal_sync:Store.Wal_always dir in
      List.iter (fun u -> ignore (Store.insert t u : int)) docs;
      let before = (Store.stats t).Store.st_wal_records in
      Alcotest.(check bool) "records pending before seal" true (before > 0);
      Alcotest.(check bool) "seal" true (Store.seal t);
      let st = Store.stats t in
      Alcotest.(check int) "log retired after seal" 0 st.Store.st_wal_records;
      Alcotest.(check int) "wal bytes reset" 0 st.Store.st_wal_bytes;
      (match wal_files dir with
      | [ f ] ->
          Alcotest.(check int) "fresh log is empty" 0
            (file_size (Filename.concat dir f))
      | fs ->
          Alcotest.failf "expected exactly one wal file, got %d" (List.length fs));
      (* replay after the rotation is bounded by one (empty) memtable *)
      let fresh = Store.open_dir ~wal_sync:Store.Wal_always dir in
      let st' = Store.stats fresh in
      Alcotest.(check int) "nothing to replay" 0 st'.Store.st_wal_records;
      Alcotest.(check int) "all docs sealed" (List.length docs)
        st'.Store.st_live_docs)

let test_recovery_torn_tail_truncated () =
  let docs = docs_of_seed 601 in
  let pats = fixed_pats 611 in
  with_tmpdir (fun dir ->
      let t = Store.create ~config:manual_config ~wal_sync:Store.Wal_always dir in
      List.iter (fun u -> ignore (Store.insert t u : int)) docs;
      let expected =
        reference_hits (List.mapi (fun i u -> (i, u)) docs) pats
      in
      let wal = Filename.concat dir (List.hd (wal_files dir)) in
      let clean = file_size wal in
      (* a torn append: half a header plus junk, as a crash mid-write
         would leave *)
      append_garbage wal "\x40\x00\x00\x00\x00\x00\x00\x00\xde\xad";
      let fresh = Store.open_dir ~wal_sync:Store.Wal_always dir in
      Alcotest.(check int) "torn tail truncated on writable open" clean
        (file_size wal);
      Alcotest.(check int) "every acked insert recovered" (List.length docs)
        (Store.stats fresh).Store.st_memtable_docs;
      List.iteri
        (fun i hits ->
          Alcotest.check hits_testable
            (Printf.sprintf "answer %d" i)
            (List.nth expected i) hits)
        (store_answers fresh pats))

let test_recovery_ambiguous_middle_refused () =
  let docs = docs_of_seed 701 ~n:4 in
  with_tmpdir (fun dir ->
      let t = Store.create ~config:manual_config ~wal_sync:Store.Wal_always dir in
      List.iter (fun u -> ignore (Store.insert t u : int)) docs;
      let wal = Filename.concat dir (List.hd (wal_files dir)) in
      flip_bytes wal (S.Wal.header_bytes + 2) 1;
      match Store.open_dir ~wal_sync:Store.Wal_always dir with
      | exception S.Corrupt { section; _ } ->
          Alcotest.(check string) "wal named" "wal" section
      | _ -> Alcotest.fail "ambiguous mid-log corruption must refuse to open")

let test_recovery_idempotent_replay () =
  (* a retired log resurfacing after its seal (a crash between the
     manifest commit and the unlink) must not duplicate documents:
     replay skips inserts the manifest already covers *)
  let docs = docs_of_seed 801 in
  let pats = fixed_pats 811 in
  with_tmpdir (fun dir ->
      let t = Store.create ~config:manual_config ~wal_sync:Store.Wal_always dir in
      List.iter (fun u -> ignore (Store.insert t u : int)) docs;
      let wal = Filename.concat dir (List.hd (wal_files dir)) in
      let saved = Filename.concat dir "saved.bytes" in
      let copy src dst =
        let ic = open_in_bin src in
        let data =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let oc = open_out_bin dst in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc data)
      in
      copy wal saved;
      Alcotest.(check bool) "seal" true (Store.seal t);
      let expected =
        reference_hits (List.mapi (fun i u -> (i, u)) docs) pats
      in
      (* resurrect the pre-seal log beside the fresh one *)
      copy saved wal;
      Sys.remove saved;
      Alcotest.(check bool) "two logs on disk" true
        (List.length (wal_files dir) = 2);
      let fresh = Store.open_dir ~wal_sync:Store.Wal_always dir in
      let st = Store.stats fresh in
      Alcotest.(check int) "no duplicates" (List.length docs)
        st.Store.st_live_docs;
      Alcotest.(check int) "memtable empty" 0 st.Store.st_memtable_docs;
      Alcotest.(check bool) "stale logs consolidated" true
        (List.length (wal_files dir) = 1);
      List.iteri
        (fun i hits ->
          Alcotest.check hits_testable
            (Printf.sprintf "answer %d" i)
            (List.nth expected i) hits)
        (store_answers fresh pats))

let test_recovery_failed_append_burns_nothing () =
  (* log-first discipline: when the WAL append raises, the insert must
     report the failure, mutate nothing and not consume the doc id *)
  let docs = docs_of_seed 901 ~n:3 in
  with_tmpdir (fun dir ->
      let t = Store.create ~config:manual_config ~wal_sync:Store.Wal_always dir in
      List.iter (fun u -> ignore (Store.insert t u : int)) docs;
      let st0 = Store.stats t in
      with_faults (fun () ->
          F.arm "wal.append" (F.Raise Unix.ENOSPC) (F.Nth 1);
          (match Store.insert t (List.hd docs) with
          | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ()
          | _ -> Alcotest.fail "append fault must surface"));
      let st1 = Store.stats t in
      Alcotest.(check int) "memtable unchanged" st0.Store.st_memtable_docs
        st1.Store.st_memtable_docs;
      Alcotest.(check int) "wal records unchanged" st0.Store.st_wal_records
        st1.Store.st_wal_records;
      Alcotest.(check int) "id not burned" st0.Store.st_next_doc_id
        (Store.insert t (List.hd docs)))

(* ------------------------------------------------------------------ *)
(* Crash churn: the recovery property under kill -9                    *)

let child_env = "PTI_TEST_WAL_CHILD"

(* The seeded schedule, shared verbatim by the child (executing) and
   the parent (simulating): step [j] with [inserted] prior inserts. *)
let churn_op seed j inserted =
  if j mod 7 = 6 then `Seal
  else if j mod 11 = 10 then `Compact
  else if j mod 5 = 3 && inserted > 0 then `Delete (j * 13 mod inserted)
  else
    `Insert
      (H.random_ustring (H.rng_of_seed (seed + (j * 31))) (8 + (j mod 12)) 4 3)

let churn_seed = 20_240

(* Parent-side model: (id, doc) assoc of live documents. *)
let simulate nops =
  let live = ref [] and inserted = ref 0 in
  for j = 0 to nops - 1 do
    match churn_op churn_seed j !inserted with
    | `Seal | `Compact -> ()
    | `Insert u ->
        live := (!inserted, u) :: !live;
        incr inserted
    | `Delete id -> live := List.filter (fun (i, _) -> i <> id) !live
  done;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !live

let hits_close a b =
  List.length a = List.length b
  && List.for_all2
       (fun (d1, p1) (d2, p2) -> d1 = d2 && Float.abs (p1 -. p2) <= 1e-9)
       a b

let answers_close a b =
  List.length a = List.length b && List.for_all2 hits_close a b

let sweep_tmp dir =
  let has_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Array.iter
    (fun n -> if has_sub n ".tmp." then Sys.remove (Filename.concat dir n))
    (Sys.readdir dir)

let spawn_child dir spec nops =
  let r, w = Unix.pipe () in
  let env =
    Array.append (Unix.environment ())
      [| Printf.sprintf "%s=%s|%s|%d" child_env dir spec nops |]
  in
  let exe = Sys.executable_name in
  let pid = Unix.create_process_env exe [| exe |] env Unix.stdin w Unix.stderr in
  Unix.close w;
  (pid, r)

let wait_child pid =
  let rec go () =
    try Unix.waitpid [] pid
    with Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  snd (go ())

let drain_acks r =
  let b = Bytes.create 256 in
  let rec go acc =
    match Unix.read r b 0 256 with
    | 0 -> acc
    | n -> go (acc + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go acc
  in
  Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> go 0)

(* After the child died with [k] acknowledged operations, the reopened
   store must answer exactly like the model after k ops or after k+1
   (the in-flight op may or may not have fully persisted) — any other
   state is a durability violation. *)
let check_recovery dir label k =
  sweep_tmp dir;
  let pats = fixed_pats 2025 in
  let fresh = Store.open_dir ~wal_sync:Store.Wal_always dir in
  let got = store_answers fresh pats in
  let st = Store.stats fresh in
  let total = st.Store.st_live_docs + st.Store.st_memtable_docs in
  let matches n =
    let live = simulate n in
    total = List.length live && answers_close got (reference_hits live pats)
  in
  if not (matches k || matches (k + 1)) then
    Alcotest.failf
      "%s: recovered state matches neither %d nor %d acked ops (%d docs live)"
      label k (k + 1) total

let abort_specs =
  [
    (* the append write itself, early and deep into the schedule *)
    "wal.append:abort@5";
    "wal.append:abort@17";
    (* the durability fsync after a mutation already applied *)
    "wal.fsync:abort@3";
    (* mid-seal: segment or manifest rename *)
    "storage.rename:abort@2";
    (* a container/directory fsync inside a seal *)
    "storage.fsync:abort@4";
  ]

let test_churn_abort () =
  List.iter
    (fun spec ->
      with_tmpdir (fun dir ->
          ignore
            (Store.create ~config:manual_config ~wal_sync:Store.Wal_always dir
              : Store.t);
          let pid, r = spawn_child dir spec 60 in
          (match wait_child pid with
          | Unix.WEXITED 70 -> ()
          | Unix.WEXITED c ->
              Alcotest.failf "%s: child should abort (70), exited %d" spec c
          | _ -> Alcotest.failf "%s: child should abort (70)" spec);
          let k = drain_acks r in
          Alcotest.(check bool)
            (Printf.sprintf "%s: made progress before dying" spec)
            true (k > 0);
          check_recovery dir spec k))
    abort_specs

let test_churn_sigkill () =
  List.iter
    (fun delay ->
      with_tmpdir (fun dir ->
          ignore
            (Store.create ~config:manual_config ~wal_sync:Store.Wal_always dir
              : Store.t);
          let pid, r = spawn_child dir "none" 100_000 in
          Unix.sleepf delay;
          Unix.kill pid Sys.sigkill;
          (match wait_child pid with
          | Unix.WSIGNALED s when s = Sys.sigkill -> ()
          | Unix.WEXITED c ->
              Alcotest.failf "kill@%.3f: child exited %d before the kill" delay c
          | _ -> Alcotest.failf "kill@%.3f: unexpected child status" delay);
          let k = drain_acks r in
          check_recovery dir (Printf.sprintf "kill@%.3f" delay) k))
    [ 0.01; 0.05; 0.15 ]

let test_churn_replay_abort () =
  (* a crash DURING recovery itself: replay is read-only until the
     consolidation commit, so dying mid-replay loses nothing *)
  let docs = docs_of_seed 111 ~n:6 in
  let pats = fixed_pats 121 in
  with_tmpdir (fun dir ->
      let t = Store.create ~config:manual_config ~wal_sync:Store.Wal_always dir in
      List.iter (fun u -> ignore (Store.insert t u : int)) docs;
      let expected =
        reference_hits (List.mapi (fun i u -> (i, u)) docs) pats
      in
      let pid, r = spawn_child dir "wal.replay:abort@2" 0 in
      (match wait_child pid with
      | Unix.WEXITED 70 -> ()
      | _ -> Alcotest.fail "child should abort inside replay");
      ignore (drain_acks r : int);
      let fresh = Store.open_dir ~wal_sync:Store.Wal_always dir in
      Alcotest.(check int) "nothing lost to the aborted replay"
        (List.length docs)
        (Store.stats fresh).Store.st_memtable_docs;
      List.iteri
        (fun i hits ->
          Alcotest.check hits_testable
            (Printf.sprintf "answer %d" i)
            (List.nth expected i) hits)
        (store_answers fresh pats))

(* The child half: runs before Alcotest when the env marker is set. *)
let () =
  match Sys.getenv_opt child_env with
  | None -> ()
  | Some payload -> (
      match String.split_on_char '|' payload with
      | [ dir; spec; nops ] ->
          let nops = int_of_string nops in
          if spec <> "none" then F.arm_spec spec;
          let t = Store.open_dir ~wal_sync:Store.Wal_always dir in
          let ack = Bytes.make 1 '.' in
          let inserted = ref 0 in
          (try
             for j = 0 to nops - 1 do
               (match churn_op churn_seed j !inserted with
               | `Seal -> ignore (Store.seal t : bool)
               | `Compact -> ignore (Store.compact ~force:true t : bool)
               | `Insert u ->
                   ignore (Store.insert t u : int);
                   incr inserted
               | `Delete id -> ignore (Store.delete t id : bool));
               ignore (Unix.write Unix.stdout ack 0 1 : int)
             done
           with _ -> exit 9);
          exit 0
      | _ -> exit 8)

(* ------------------------------------------------------------------ *)
(* Scrub and quarantine                                                *)

let store_with_cuts dir docs ~cuts =
  let t = Store.create ~config:manual_config dir in
  let n = List.length docs in
  let per = if cuts = 0 then n + 1 else (n + cuts - 1) / cuts in
  List.iteri
    (fun i d ->
      ignore (Store.insert t d : int);
      if cuts > 0 && (i + 1) mod per = 0 then ignore (Store.seal t : bool))
    docs;
  if cuts > 0 then ignore (Store.seal t : bool);
  t

let damage_first_segment dir =
  let seg = List.hd (seg_files dir) in
  let path = Filename.concat dir seg in
  flip_bytes path (file_size path / 2) 16;
  seg

let test_scrub_quarantines () =
  let docs = docs_of_seed 131 ~n:20 in
  let pats = fixed_pats 141 in
  with_tmpdir (fun dir ->
      ignore (store_with_cuts dir docs ~cuts:4 : Store.t);
      let seg = damage_first_segment dir in
      let t = Store.open_dir ~verify:false dir in
      let gen0 = Store.generation t in
      let before = store_answers t pats in
      ignore before;
      let rep = Store.scrub t in
      Alcotest.(check int) "every segment walked" 4 rep.Store.sc_scanned;
      (match rep.Store.sc_corrupt with
      | [ (name, section) ] ->
          Alcotest.(check string) "damaged segment named" seg name;
          Alcotest.(check bool) "damaged section named" true (section <> "")
      | l -> Alcotest.failf "expected 1 corrupt segment, got %d" (List.length l));
      Alcotest.(check int) "quarantined" 1 rep.Store.sc_quarantined;
      Alcotest.(check int) "no io errors" 0 rep.Store.sc_io_errors;
      let st = Store.stats t in
      Alcotest.(check int) "typed degradation visible" 1
        st.Store.st_degraded_segments;
      Alcotest.(check int) "three segments keep serving" 3 st.Store.st_segments;
      Alcotest.(check bool) "eviction was a manifest commit" true
        (Store.generation t > gen0);
      let qdir = Filename.concat dir Store.quarantine_dir_name in
      Alcotest.(check (list string)) "segment moved into quarantine/" [ seg ]
        (files_matching qdir (fun _ -> true));
      (* queries degrade (a quarter of the corpus is gone) but never
         crash, and every surviving hit is one the full corpus had *)
      let after = store_answers t pats in
      List.iter2
        (fun b a ->
          List.iter
            (fun (d, _) ->
              Alcotest.(check bool) "no fabricated hits" true
                (List.mem_assoc d b))
            a)
        (reference_hits (List.mapi (fun i u -> (i, u)) docs) pats)
        after;
      (* a reopened handle sees the quarantine too *)
      let fresh = Store.open_dir ~verify:true dir in
      Alcotest.(check int) "reopen sees degradation" 1
        (Store.stats fresh).Store.st_degraded_segments;
      (* read-repair: compaction rewrites the survivors and clears the
         degradation marker; the corpus verifies clean again *)
      Alcotest.(check bool) "repair compaction" true (Store.compact ~force:true t);
      Alcotest.(check int) "degradation cleared" 0
        (Store.stats t).Store.st_degraded_segments;
      let clean = Store.open_dir ~verify:true dir in
      Alcotest.(check int) "clean corpus verifies" 0
        (Store.stats clean).Store.st_degraded_segments;
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "answers stable across repair" true
            (hits_close a b))
        after (store_answers clean pats))

let test_verify_open_refuses_damage () =
  (* satellite: open_dir ~verify:true over a bit-flipped segment must
     raise a Corrupt naming the damaged section — the store refuses to
     serve rather than returning wrong probabilities *)
  let docs = docs_of_seed 151 ~n:20 in
  with_tmpdir (fun dir ->
      ignore (store_with_cuts dir docs ~cuts:4 : Store.t);
      ignore (damage_first_segment dir : string);
      match Store.open_dir ~verify:true dir with
      | exception S.Corrupt { section; _ } ->
          Alcotest.(check bool) "damaged section named" true (section <> "")
      | _ -> Alcotest.fail "verify:true must refuse a damaged corpus")

let test_scrub_read_only_reports () =
  let docs = docs_of_seed 161 ~n:20 in
  with_tmpdir (fun dir ->
      ignore (store_with_cuts dir docs ~cuts:4 : Store.t);
      ignore (damage_first_segment dir : string);
      let t = Store.open_dir ~read_only:true ~verify:false dir in
      let rep = Store.scrub t in
      Alcotest.(check int) "corruption reported"
        1 (List.length rep.Store.sc_corrupt);
      Alcotest.(check int) "nothing quarantined read-only" 0
        rep.Store.sc_quarantined;
      Alcotest.(check int) "no degradation committed" 0
        (Store.stats t).Store.st_degraded_segments)

let test_scrub_io_error_counted () =
  let docs = docs_of_seed 171 ~n:20 in
  with_tmpdir (fun dir ->
      ignore (store_with_cuts dir docs ~cuts:4 : Store.t);
      let t = Store.open_dir ~verify:false dir in
      with_faults (fun () ->
          F.arm "scrub.read" (F.Raise Unix.EIO) (F.Nth 2);
          let rep = Store.scrub t in
          Alcotest.(check int) "io error counted, not fatal" 1
            rep.Store.sc_io_errors;
          Alcotest.(check int) "nothing quarantined for an io error" 0
            rep.Store.sc_quarantined;
          Alcotest.(check int) "clean corpus stays clean" 0
            (List.length rep.Store.sc_corrupt)))

(* A segment rewritten as a Fischer–Heun container (RMQ kind tag 2,
   valid checksums) is a retired format, not damage: scrub leaves it in
   place and a fresh open refuses it with a hint to rebuild. *)
let test_scrub_spares_retired_segment () =
  let docs = docs_of_seed 181 ~n:20 in
  with_tmpdir (fun dir ->
      let t = store_with_cuts dir docs ~cuts:2 in
      let path = Filename.concat dir (List.hd (seg_files dir)) in
      H.rewrite_container ~src:path ~dst:path (H.fischer_heun_kind path);
      let rep = Store.scrub t in
      Alcotest.(check int) "both segments walked" 2 rep.Store.sc_scanned;
      Alcotest.(check int) "checksums valid" 0 (List.length rep.Store.sc_corrupt);
      Alcotest.(check int) "nothing quarantined" 0 rep.Store.sc_quarantined;
      match Store.open_dir ~read_only:true dir with
      | exception S.Corrupt { section; reason } ->
          Alcotest.(check string) "kind section named" "rmq.level.1.kind" section;
          Alcotest.(check bool) ("says to rebuild: " ^ reason) true
            (let n = String.length "rebuild" in
             let rec go i =
               i + n <= String.length reason
               && (String.sub reason i n = "rebuild" || go (i + 1))
             in
             go 0)
      | _ -> Alcotest.fail "a Fischer-Heun segment was opened")

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Decoder fuzzing: every payload a reader can meet once checksums
   pass — valid, bit-flipped, truncated or random — must decode to a
   value or raise a typed Corrupt, never another exception. *)

let fuzz_cases = 10_000

let fuzz_doc rng =
  let u = H.random_ustring rng (1 + Random.State.int rng 12) 4 3 in
  if Random.State.bool rng then u
  else Pti_workload.Dataset.add_random_correlations rng u ~count:2

(* Run [decode] on [fuzz_cases] payloads; count values and refusals. *)
let fuzz name rng ~payload ~decode =
  let ok = ref 0 and refused = ref 0 in
  for i = 1 to fuzz_cases do
    match decode (payload rng) with
    | () -> incr ok
    | exception S.Corrupt _ -> incr refused
    | exception e ->
        Alcotest.failf "%s case %d: %s escaped the decoder" name i
          (Printexc.to_string e)
  done;
  Alcotest.(check bool) (name ^ ": some payloads decode") true (!ok > 0);
  Alcotest.(check bool) (name ^ ": some payloads are refused") true (!refused > 0)

let test_fuzz_wal_records () =
  let rng = H.rng_of_seed 91 in
  let op rng =
    match Random.State.int rng 3 with
    | 0 -> Store.W_insert (Random.State.int rng 100_000, fuzz_doc rng)
    | 1 -> Store.W_delete (Random.State.int rng 100_000)
    | _ -> Store.W_seal (Random.State.int rng 1_000)
  in
  fuzz "wal" rng
    ~payload:(fun rng -> H.mangle rng (Store.wal_encode (op rng)))
    ~decode:(fun s ->
      let op = Store.wal_decode s in
      if Store.wal_decode (Store.wal_encode op) <> op then
        Alcotest.fail "wal: a decoded record does not round-trip")

(* A random replacement for one manifest section: plausible or hostile
   values, the wrong kind, or no section at all. *)
let fuzz_section rng = function
  | H.Ints a ->
      let v () =
        match Random.State.int rng 6 with
        | 0 -> -1
        | 1 -> max_int
        | 2 -> min_int
        | 3 when Array.length a > 0 -> a.(Random.State.int rng (Array.length a)) + 1
        | _ -> Random.State.int rng 8
      in
      (match Random.State.int rng 4 with
      | 0 -> H.Ints (Array.init (Random.State.int rng 6) (fun _ -> v ()))
      | 1 when Array.length a > 0 ->
          let a = Array.copy a in
          a.(Random.State.int rng (Array.length a)) <- v ();
          H.Ints a
      | 2 -> H.Ints (Array.sub a 0 (Random.State.int rng (Array.length a + 1)))
      | _ -> if Random.State.bool rng then H.Drop else H.Bytes "\001\002")
  | H.Floats _ ->
      let vals = [| Float.nan; infinity; 0.0; 1.0; -0.5; 0.25; 1e-300 |] in
      if Random.State.int rng 5 = 0 then H.Drop
      else H.Floats (Array.init (Random.State.int rng 3) (fun _ -> vals.(Random.State.int rng 7)))
  | H.Bytes b ->
      if Random.State.int rng 5 = 0 then H.Ints [| 1 |] else H.Bytes (H.mangle rng b)
  | H.Drop -> H.Ints [| Random.State.int rng 3 |]

let test_fuzz_manifest () =
  with_tmpdir (fun dir ->
      let t = Store.create ~config:manual_config dir in
      let rng = H.rng_of_seed 92 in
      for i = 1 to 6 do
        ignore (Store.insert t (fuzz_doc rng) : int);
        if i mod 3 = 0 then ignore (Store.seal t : bool)
      done;
      ignore (Store.delete t 1 : bool);
      let m = Filename.concat dir Store.manifest_name in
      let pristine = Filename.concat dir "pristine" in
      H.rewrite_container ~src:m ~dst:pristine (fun _ -> None);
      let r = S.Reader.open_file pristine in
      let sections =
        ("corpus.quarantine", H.Drop)
        :: List.map
             (fun i ->
               let n = i.S.Reader.si_name in
               ( n,
                 match i.S.Reader.si_kind with
                 | "ints" -> H.Ints (S.Ints.to_array (S.Reader.ints r n))
                 | "floats" -> H.Floats (S.Floats.to_array (S.Reader.floats r n))
                 | _ -> H.Bytes (S.Reader.blob r n) ))
             (S.Reader.table r)
        |> Array.of_list
      in
      fuzz "manifest" rng
        ~payload:(fun rng ->
          let name, cur = sections.(Random.State.int rng (Array.length sections)) in
          (name, fuzz_section rng cur))
        ~decode:(fun (name, repl) ->
          H.rewrite_container ~extra:[ name ] ~src:pristine ~dst:m (fun n ->
              if n = name then Some repl else None);
          ignore (Store.open_dir ~read_only:true ~verify:false dir : Store.t)))

let () =
  Alcotest.run "pti_wal"
    [
      ( "framing",
        [
          Alcotest.test_case "append/scan roundtrip" `Quick test_framing_roundtrip;
          Alcotest.test_case "torn tail detected and truncated" `Quick
            test_framing_torn_tail;
          Alcotest.test_case "corrupt last record is a torn tail" `Quick
            test_framing_corrupt_last;
          Alcotest.test_case "corrupt middle refused" `Quick
            test_framing_corrupt_middle;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "unsealed inserts survive reopen" `Quick
            test_recovery_inserts_survive;
          Alcotest.test_case "memtable deletes replayed" `Quick
            test_recovery_deletes_replayed;
          Alcotest.test_case "seal retires the log" `Quick
            test_recovery_seal_rotates;
          Alcotest.test_case "torn tail truncated on open" `Quick
            test_recovery_torn_tail_truncated;
          Alcotest.test_case "ambiguous middle refused" `Quick
            test_recovery_ambiguous_middle_refused;
          Alcotest.test_case "idempotent replay after seal" `Quick
            test_recovery_idempotent_replay;
          Alcotest.test_case "failed append burns no id" `Quick
            test_recovery_failed_append_burns_nothing;
        ] );
      ( "crash-churn",
        [
          Alcotest.test_case "abort failpoints at arbitrary points" `Slow
            test_churn_abort;
          Alcotest.test_case "real SIGKILL mid-churn" `Slow test_churn_sigkill;
          Alcotest.test_case "abort during replay" `Quick
            test_churn_replay_abort;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "bit-flip detected and quarantined" `Quick
            test_scrub_quarantines;
          Alcotest.test_case "verify:true refuses damage" `Quick
            test_verify_open_refuses_damage;
          Alcotest.test_case "read-only scrub only reports" `Quick
            test_scrub_read_only_reports;
          Alcotest.test_case "scrub io error counted" `Quick
            test_scrub_io_error_counted;
          Alcotest.test_case "retired segment refused, not quarantined" `Quick
            test_scrub_spares_retired_segment;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "WAL record decoder" `Quick test_fuzz_wal_records;
          Alcotest.test_case "manifest reader" `Quick test_fuzz_manifest;
        ] );
    ]
