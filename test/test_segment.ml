(* Tests for the LSM segment store (Pti_segment.Segment_store):

   - scatter-gather answers byte-equal to a monolithic Listing_index
     over the same documents, however the corpus is cut into segments
     (1/2/4/8), with the memtable both empty and live;
   - inserts, memtable deletes, sealed-segment tombstones and top-k;
   - size-tiered compaction: survivors preserved, tombstones retired,
     inputs unlinked, concurrent deletes never resurrected;
   - reload picking up externally committed generations;
   - the crash-safety fault matrix: every write/fsync/rename of a
     seal, delete-commit and compaction either completes or leaves the
     previous generation byte-identical — errno faults in-process,
     aborts via child re-exec (kill -9 moral equivalent). *)

module U = Pti_ustring.Ustring
module L = Pti_core.Listing_index
module Engine = Pti_core.Engine
module Logp = Pti_prob.Logp
module Store = Pti_segment.Segment_store
module F = Pti_fault
module H = Pti_test_helpers

let tau_min = 0.1

let with_tmpdir = H.with_tmpdir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let manual_config =
  { (Store.default_config ~tau_min) with Store.memtable_max_docs = 0 }

let docs_of_seed ?(n = 40) seed =
  List.init n (fun i ->
      H.random_ustring (H.rng_of_seed (seed + i)) (8 + ((seed + i) mod 20)) 4 3)

let patterns_of_seed ?(count = 12) seed docs =
  let rng = H.rng_of_seed (seed * 1000) in
  let arr = Array.of_list docs in
  List.init count (fun i ->
      let u = arr.(i mod Array.length arr) in
      let pat =
        if i mod 4 = 3 then H.random_letters rng 4 3
        else H.random_pattern rng u 5
      in
      (pat, 0.1 +. Random.State.float rng 0.6))

let hits_testable =
  Alcotest.(list (pair int (float 1e-9)))

let floats hits = List.map (fun (d, p) -> (d, Logp.to_log p)) hits

(* Reference answer from a monolithic index: canonical order is
   descending relevance, ascending doc id among equals. *)
let reference docs ~pattern ~tau =
  let l = L.build ~tau_min docs in
  L.query l ~pattern ~tau
  |> List.sort (fun (d1, p1) (d2, p2) ->
         let c = Logp.compare p2 p1 in
         if c <> 0 then c else Int.compare d1 d2)

(* Build a store over [docs] cut into [cuts] roughly-equal segments
   (0 cuts: everything stays in the memtable). *)
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

(* ------------------------------------------------------------------ *)

let test_equivalence_cuts () =
  let docs = docs_of_seed 11 in
  let pats = patterns_of_seed 11 docs in
  List.iter
    (fun cuts ->
      with_tmpdir (fun dir ->
          let t = store_with_cuts dir docs ~cuts in
          let st = Store.stats t in
          if cuts > 1 then
            Alcotest.(check bool)
              (Printf.sprintf "%d cuts yield >1 segment" cuts)
              true
              (st.Store.st_segments > 1);
          List.iteri
            (fun i (pattern, tau) ->
              Alcotest.check hits_testable
                (Printf.sprintf "cuts=%d pattern %d" cuts i)
                (floats (reference docs ~pattern ~tau))
                (floats (Store.query t ~pattern ~tau));
              let full = Store.query t ~pattern ~tau in
              let k = 1 + (i mod 5) in
              Alcotest.check hits_testable
                (Printf.sprintf "cuts=%d pattern %d top-%d" cuts i k)
                (floats
                   (List.filteri (fun j _ -> j < k) full))
                (floats (Store.query_top_k t ~pattern ~tau ~k)))
            pats))
    [ 0; 1; 2; 4; 8 ]

let test_memtable_and_segments_mix () =
  let docs = docs_of_seed 23 ~n:30 in
  let pats = patterns_of_seed 23 docs in
  with_tmpdir (fun dir ->
      let t = Store.create ~config:manual_config dir in
      (* first 20 sealed across two segments, last 10 left unsealed *)
      List.iteri
        (fun i d ->
          ignore (Store.insert t d : int);
          if i = 9 || i = 19 then ignore (Store.seal t : bool))
        docs;
      let st = Store.stats t in
      Alcotest.(check int) "segments" 2 st.Store.st_segments;
      Alcotest.(check int) "memtable docs" 10 st.Store.st_memtable_docs;
      Alcotest.(check bool)
        "memtable bytes gauge positive" true
        (st.Store.st_memtable_bytes > 0);
      List.iteri
        (fun i (pattern, tau) ->
          Alcotest.check hits_testable
            (Printf.sprintf "mixed pattern %d" i)
            (floats (reference docs ~pattern ~tau))
            (floats (Store.query t ~pattern ~tau)))
        pats)

let test_insert_ids_and_auto_seal () =
  with_tmpdir (fun dir ->
      let config =
        { (Store.default_config ~tau_min) with Store.memtable_max_docs = 5 }
      in
      let t = Store.create ~config dir in
      let docs = docs_of_seed 31 ~n:12 in
      let ids = List.map (fun d -> Store.insert t d) docs in
      Alcotest.(check (list int)) "ids are sequential" (List.init 12 Fun.id) ids;
      let st = Store.stats t in
      Alcotest.(check int) "auto-sealed twice" 2 st.Store.st_segments;
      Alcotest.(check int) "remainder in memtable" 2 st.Store.st_memtable_docs;
      Alcotest.(check int) "next id" 12 st.Store.st_next_doc_id;
      (* ids survive a seal: never reused, never shifted *)
      ignore (Store.seal t : bool);
      let extra = Store.insert t (List.hd docs) in
      Alcotest.(check int) "id after reopen of memtable" 12 extra)

let test_deletes_and_tombstones () =
  let docs = docs_of_seed 47 ~n:24 in
  let pats = patterns_of_seed 47 docs in
  with_tmpdir (fun dir ->
      let t = store_with_cuts dir (List.filteri (fun i _ -> i < 16) docs) ~cuts:2 in
      (* 8 more stay in the memtable *)
      List.iteri
        (fun i d -> if i >= 16 then ignore (Store.insert t d : int))
        docs;
      let gen0 = Store.generation t in
      (* memtable delete: no manifest commit *)
      Alcotest.(check bool) "memtable delete" true (Store.delete t 20);
      Alcotest.(check int) "memtable delete is volatile" gen0 (Store.generation t);
      (* sealed deletes: tombstones, each a committed generation *)
      Alcotest.(check bool) "sealed delete" true (Store.delete t 3);
      Alcotest.(check bool) "sealed delete 2" true (Store.delete t 11);
      Alcotest.(check bool) "double delete" false (Store.delete t 3);
      Alcotest.(check bool) "unknown id" false (Store.delete t 999);
      Alcotest.(check int) "two commits" (gen0 + 2) (Store.generation t);
      let st = Store.stats t in
      Alcotest.(check int) "tombstones counted" 2 st.Store.st_tombstones;
      Alcotest.(check bool)
        "ratio" true
        (abs_float (Store.tombstone_ratio st -. (2. /. 16.)) < 1e-9);
      let live =
        List.filteri (fun i _ -> i <> 3 && i <> 11 && i <> 20) docs
      in
      let live_ids =
        List.filteri (fun i _ -> i <> 3 && i <> 11 && i <> 20) (List.init 24 Fun.id)
      in
      let renumber hits =
        (* reference indexes live docs 0..; map back to corpus ids *)
        List.map (fun (d, p) -> (List.nth live_ids d, p)) hits
      in
      List.iteri
        (fun i (pattern, tau) ->
          Alcotest.check hits_testable
            (Printf.sprintf "post-delete pattern %d" i)
            (floats
               (renumber (reference live ~pattern ~tau)
               |> List.sort (fun (d1, p1) (d2, p2) ->
                      let c = Logp.compare p2 p1 in
                      if c <> 0 then c else Int.compare d1 d2)))
            (floats (Store.query t ~pattern ~tau)))
        pats)

let test_compaction () =
  let docs = docs_of_seed 59 ~n:32 in
  let pats = patterns_of_seed 59 docs in
  with_tmpdir (fun dir ->
      let t = store_with_cuts dir docs ~cuts:4 in
      Alcotest.(check bool)
        "four equal segments trigger the tier policy" true
        (Store.needs_compaction t);
      ignore (Store.delete t 5 : bool);
      ignore (Store.delete t 17 : bool);
      let before =
        List.map (fun (p, tau) -> floats (Store.query t ~pattern:p ~tau)) pats
      in
      Alcotest.(check bool) "compacts" true (Store.compact t);
      let st = Store.stats t in
      Alcotest.(check int) "one segment remains" 1 st.Store.st_segments;
      Alcotest.(check int) "tombstones retired" 0 st.Store.st_tombstones;
      Alcotest.(check int) "live docs" 30 st.Store.st_live_docs;
      Alcotest.(check bool)
        "old segment files unlinked" true
        (Array.length
           (Array.of_list
              (List.filter
                 (fun n -> Filename.check_suffix n ".pti")
                 (Array.to_list (Sys.readdir dir))))
        = 1);
      List.iteri
        (fun i (pattern, tau) ->
          Alcotest.check hits_testable
            (Printf.sprintf "answers unchanged by compaction %d" i)
            (List.nth before i)
            (floats (Store.query t ~pattern ~tau)))
        pats;
      Alcotest.(check bool)
        "nothing left to compact" false
        (Store.compact t))

let test_compaction_policy () =
  with_tmpdir (fun dir ->
      let t = store_with_cuts dir (docs_of_seed 61 ~n:9) ~cuts:3 in
      Alcotest.(check bool)
        "three segments below the tier threshold" false
        (Store.needs_compaction t);
      (* push the tombstone ratio above 30% *)
      List.iter (fun i -> ignore (Store.delete t i : bool)) [ 0; 1; 2; 4 ];
      Alcotest.(check bool)
        "high tombstone ratio triggers" true
        (Store.needs_compaction t);
      Alcotest.(check bool) "force merges anyway" true (Store.compact ~force:true t);
      Alcotest.(check int)
        "survivors" 5
        (Store.stats t).Store.st_live_docs)

let test_compact_to_empty () =
  with_tmpdir (fun dir ->
      let t = store_with_cuts dir (docs_of_seed 67 ~n:4) ~cuts:2 in
      List.iter (fun i -> ignore (Store.delete t i : bool)) [ 0; 1; 2; 3 ];
      Alcotest.(check bool) "compacts" true (Store.compact ~force:true t);
      let st = Store.stats t in
      Alcotest.(check int) "no segments" 0 st.Store.st_segments;
      Alcotest.(check int) "no docs" 0 st.Store.st_live_docs;
      Alcotest.(check int)
        "ids never reused" 4
        st.Store.st_next_doc_id;
      (* an empty corpus still answers (with nothing) *)
      Alcotest.(check int)
        "empty corpus count" 0
        (Store.count t ~pattern:[| Char.code 'A' |] ~tau:0.3))

(* Files that only look like segment or log files: int_of_string would
   read a sequence number out of each, so a lax match let compaction's
   orphan sweep unlink them (and replay read the wal-* ones as logs). *)
let test_lookalike_files_untouched () =
  with_tmpdir (fun dir ->
      let t = store_with_cuts dir (docs_of_seed 68 ~n:8) ~cuts:4 in
      let planted =
        [
          "seg-0x1.pti";
          "seg--1.pti";
          "seg-1_0.pti";
          "seg-+3.pti";
          "seg-1.pti";
          "wal-0x0.log";
          "wal--1.log";
          "notes.txt";
        ]
      in
      List.iter
        (fun n ->
          let oc = open_out_bin (Filename.concat dir n) in
          output_string oc ("user data: " ^ n);
          close_out oc)
        planted;
      Alcotest.(check bool) "compacts" true (Store.compact ~force:true t);
      let t' = Store.open_dir dir in
      Alcotest.(check int) "reopened with every document" 8
        (Store.stats t').Store.st_live_docs;
      List.iter
        (fun n ->
          Alcotest.(check string) (n ^ " untouched") ("user data: " ^ n)
            (read_file (Filename.concat dir n)))
        planted)

let test_reopen_and_reload () =
  let docs = docs_of_seed 71 ~n:20 in
  let pats = patterns_of_seed 71 docs in
  with_tmpdir (fun dir ->
      let t = store_with_cuts dir docs ~cuts:4 in
      ignore (Store.delete t 7 : bool);
      let answers =
        List.map (fun (p, tau) -> floats (Store.query t ~pattern:p ~tau)) pats
      in
      (* cold open in another handle: same answers *)
      let ro = Store.open_dir ~read_only:true dir in
      List.iteri
        (fun i (pattern, tau) ->
          Alcotest.check hits_testable
            (Printf.sprintf "cold open pattern %d" i)
            (List.nth answers i)
            (floats (Store.query ro ~pattern ~tau)))
        pats;
      Alcotest.(check bool)
        "read-only refuses mutation" true
        (try
           ignore (Store.insert ro (List.hd docs) : int);
           false
         with Invalid_argument _ -> true);
      (* external compaction, then reload: generation picked up,
         answers unchanged *)
      let v0 = Store.version ro in
      Alcotest.(check bool) "no-op reload" false (Store.reload ro);
      Alcotest.(check bool) "compact in writer" true (Store.compact ~force:true t);
      Alcotest.(check bool) "reload sees new generation" true (Store.reload ro);
      Alcotest.(check int)
        "generations agree" (Store.generation t) (Store.generation ro);
      Alcotest.(check bool)
        "version bumped for cache invalidation" true
        (Store.version ro > v0);
      List.iteri
        (fun i (pattern, tau) ->
          Alcotest.check hits_testable
            (Printf.sprintf "post-reload pattern %d" i)
            (List.nth answers i)
            (floats (Store.query ro ~pattern ~tau)))
        pats)

let test_succinct_backend () =
  let docs = docs_of_seed 83 ~n:16 in
  let pats = patterns_of_seed 83 docs in
  with_tmpdir (fun dir ->
      let config =
        {
          (Store.default_config ~tau_min) with
          Store.backend = Engine.Succinct;
          memtable_max_docs = 0;
        }
      in
      let t = Store.create ~config dir in
      List.iteri
        (fun i d ->
          ignore (Store.insert t d : int);
          if i mod 6 = 5 then ignore (Store.seal t : bool))
        docs;
      ignore (Store.seal t : bool);
      List.iteri
        (fun i (pattern, tau) ->
          Alcotest.check hits_testable
            (Printf.sprintf "succinct pattern %d" i)
            (floats (reference docs ~pattern ~tau))
            (floats (Store.query t ~pattern ~tau)))
        pats)

(* ------------------------------------------------------------------ *)
(* Concurrent-writer safety: a second writable handle racing the first
   must fail its commit with Conflict (never clobber the manifest), and
   reload must refuse to adopt a generation regression. *)

let test_conflict_and_reload_regression () =
  let docs = docs_of_seed 139 ~n:12 in
  with_tmpdir (fun dir ->
      let t1 = store_with_cuts dir docs ~cuts:2 in
      let t2 = Store.open_dir dir in
      (* both handles start at the same generation; t1 commits first *)
      Alcotest.(check bool) "t1 deletes" true (Store.delete t1 0);
      (match Store.delete t2 1 with
      | _ -> Alcotest.fail "stale writer must not clobber the manifest"
      | exception Store.Conflict { disk_gen; mem_gen; _ } ->
          Alcotest.(check bool) "disk ahead of memory" true (disk_gen > mem_gen));
      (* the losing commit was not applied anywhere *)
      let fresh = Store.open_dir ~read_only:true dir in
      Alcotest.(check int)
        "only t1's commit landed"
        (Store.generation t1) (Store.generation fresh);
      Alcotest.(check int)
        "one tombstone" 1
        (Store.stats fresh).Store.st_tombstones;
      (* reload adopts the winner; the retried delete then commits *)
      Alcotest.(check bool) "reload adopts t1's commit" true (Store.reload t2);
      Alcotest.(check bool) "retry succeeds" true (Store.delete t2 1);
      Alcotest.(check bool) "t1 adopts t2's commit" true (Store.reload t1);
      Alcotest.(check int)
        "handles agree" (Store.generation t1) (Store.generation t2);
      (* a stale manifest restored behind the store's back must never
         roll the live store back to an older segment set *)
      let stale = read_file (Filename.concat dir Store.manifest_name) in
      Alcotest.(check bool) "t1 deletes again" true (Store.delete t1 2);
      let gen = Store.generation t1 in
      let oc = open_out_bin (Filename.concat dir Store.manifest_name) in
      output_string oc stale;
      close_out oc;
      Alcotest.(check bool) "regression refused" false (Store.reload t1);
      Alcotest.(check int) "generation kept" gen (Store.generation t1);
      Alcotest.(check int)
        "tombstones kept" 3
        (Store.stats t1).Store.st_tombstones)

(* The orphan sweep must reclaim files no manifest can reference again
   (sequence below the committed watermark) while sparing anything at
   or above it — that range belongs to writers whose rename may land
   before their manifest commit. *)
let test_sweep_watermark () =
  let docs = docs_of_seed 149 ~n:16 in
  with_tmpdir (fun dir ->
      let t = store_with_cuts dir docs ~cuts:2 in
      (* a compaction failing at the manifest rename leaves its output
         (seg-000002) behind as a genuine low-sequence orphan *)
      Fun.protect ~finally:F.disarm_all (fun () ->
          F.arm_spec "storage.rename:eio@2";
          match Store.compact ~force:true t with
          | _ -> Alcotest.fail "compact under manifest-rename fault must raise"
          | exception Unix.Unix_error _ -> ());
      Alcotest.(check bool)
        "orphan output left behind" true
        (Sys.file_exists (Filename.concat dir "seg-000002.pti"));
      (* and a file numbered far above the watermark stands in for a
         concurrent external writer's pending output *)
      let pending = Filename.concat dir "seg-000777.pti" in
      let oc = open_out_bin pending in
      output_string oc "pending segment of another writer";
      close_out oc;
      ignore (Store.delete t 0 : bool);
      Alcotest.(check bool)
        "second compact succeeds" true
        (Store.compact ~force:true t);
      Alcotest.(check bool)
        "orphan below watermark swept" false
        (Sys.file_exists (Filename.concat dir "seg-000002.pti"));
      Alcotest.(check bool)
        "pending file at/above watermark spared" true
        (Sys.file_exists pending);
      Sys.remove pending)

(* Mutations, background compaction and queries racing across domains:
   nothing may raise or deadlock, and once the dust settles the corpus
   must answer exactly like a monolithic index over the survivors. *)
let test_concurrent_churn () =
  let n = 48 in
  let docs = docs_of_seed 151 ~n in
  let pats = patterns_of_seed 151 docs ~count:6 in
  with_tmpdir (fun dir ->
      let config =
        { (Store.default_config ~tau_min) with Store.memtable_max_docs = 8 }
      in
      let t = Store.create ~config dir in
      let stop = Atomic.make false in
      let reader =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              List.iter
                (fun (pattern, tau) ->
                  ignore (Store.query t ~pattern ~tau : (int * Logp.t) list))
                pats
            done)
      in
      let compactor =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              ignore (Store.compact t : bool)
            done)
      in
      let ids = List.map (fun d -> Store.insert t d) docs in
      List.iteri
        (fun i id -> if i mod 5 = 0 then ignore (Store.delete t id : bool))
        ids;
      Atomic.set stop true;
      Domain.join reader;
      Domain.join compactor;
      ignore (Store.seal t : bool);
      ignore (Store.compact ~force:true t : bool);
      let live = List.filteri (fun i _ -> i mod 5 <> 0) docs in
      let live_ids = List.filteri (fun i _ -> i mod 5 <> 0) (List.init n Fun.id) in
      let renumber hits =
        List.map (fun (d, p) -> (List.nth live_ids d, p)) hits
        |> List.sort (fun (d1, p1) (d2, p2) ->
               let c = Logp.compare p2 p1 in
               if c <> 0 then c else Int.compare d1 d2)
      in
      List.iteri
        (fun i (pattern, tau) ->
          Alcotest.check hits_testable
            (Printf.sprintf "after concurrent churn %d" i)
            (floats (renumber (reference live ~pattern ~tau)))
            (floats (Store.query t ~pattern ~tau)))
        pats)

(* ------------------------------------------------------------------ *)
(* Crash-safety fault matrix, errno half: every write/fsync/rename of
   seal, delete-commit and compact either completes or raises with the
   previous generation intact — in memory AND on disk. *)

let with_faults f =
  Fun.protect ~finally:F.disarm_all f

let check_frozen ~msg dir t pats answers manifest_bytes =
  Alcotest.(check bool)
    (msg ^ ": manifest byte-identical")
    true
    (read_file (Filename.concat dir Store.manifest_name) = manifest_bytes);
  List.iteri
    (fun i (pattern, tau) ->
      Alcotest.check hits_testable
        (Printf.sprintf "%s: live handle answer %d" msg i)
        (List.nth answers i)
        (floats (Store.query t ~pattern ~tau)))
    pats;
  let fresh = Store.open_dir ~read_only:true dir in
  Alcotest.(check int)
    (msg ^ ": reopened generation")
    (Store.generation t) (Store.generation fresh);
  List.iteri
    (fun i (pattern, tau) ->
      Alcotest.check hits_testable
        (Printf.sprintf "%s: reopened answer %d" msg i)
        (List.nth answers i)
        (floats (Store.query fresh ~pattern ~tau)))
    pats

(* Hit arithmetic per Pti_storage.Writer.close: small containers flush
   in one write, then fsync the file, fsync the directory, and rename —
   so a seal/compact (segment writer then manifest writer) sees rename
   hits 1 (segment) and 2 (manifest), fsync hits 1-2 (segment) and 3-4
   (manifest), and a delete-commit (manifest only) sees one of each. *)
let fault_specs =
  [
    ("write enospc", "storage.write:enospc@1");
    ("fsync eio", "storage.fsync:eio@1");
    ("rename eio", "storage.rename:eio@1");
    ("manifest fsync eio", "storage.fsync:eio@3");
    ("manifest rename eio", "storage.rename:eio@2");
  ]

let test_fault_matrix_errno () =
  let docs = docs_of_seed 97 ~n:16 in
  let pats = patterns_of_seed 97 docs ~count:6 in
  let ops =
    [
      ( "seal",
        fun t ->
          ignore (Store.insert t (List.hd docs) : int);
          ignore (Store.seal t : bool) );
      ("delete", fun t -> ignore (Store.delete t 2 : bool));
      ("compact", fun t -> ignore (Store.compact ~force:true t : bool));
    ]
  in
  List.iter
    (fun (op_name, op) ->
      List.iter
        (fun (fault_name, spec) ->
          (* the delete path writes no segment file: its only rename
             and fsync pair are the manifest's *)
          if
            op_name = "delete"
            && (fault_name = "manifest rename eio"
               || fault_name = "manifest fsync eio"
               || fault_name = "write enospc")
          then ()
          else
            with_tmpdir (fun dir ->
                let t = store_with_cuts dir docs ~cuts:4 in
                let answers =
                  List.map
                    (fun (p, tau) -> floats (Store.query t ~pattern:p ~tau))
                    pats
                in
                let manifest_bytes =
                  read_file (Filename.concat dir Store.manifest_name)
                in
                let gen0 = Store.generation t in
                with_faults (fun () ->
                    F.arm_spec spec;
                    match op t with
                    | _ ->
                        Alcotest.failf "%s under %s should fail" op_name
                          fault_name
                    | exception Unix.Unix_error _ -> ());
                Alcotest.(check int)
                  (Printf.sprintf "%s under %s: generation unchanged" op_name
                     fault_name)
                  gen0 (Store.generation t);
                (* a failed seal leaves the inserted doc live in the
                   volatile memtable (by design); drop it so the
                   durable-state comparison below is like for like *)
                if op_name = "seal" then
                  Alcotest.(check bool)
                    (Printf.sprintf
                       "%s under %s: unsealed doc survives in memtable"
                       op_name fault_name)
                    true
                    (Store.delete t 16);
                check_frozen
                  ~msg:(Printf.sprintf "%s under %s" op_name fault_name)
                  dir t pats answers manifest_bytes;
                (* and the same transition succeeds once the fault clears *)
                (match op_name with
                | "delete" -> ignore (Store.delete t 2 : bool)
                | _ -> op t);
                Alcotest.(check bool)
                  (Printf.sprintf "%s under %s: recovers" op_name fault_name)
                  true
                  (Store.generation t > gen0)))
        fault_specs)
    ops

(* ------------------------------------------------------------------ *)
(* Crash-safety, abort half: re-exec this binary as a child that arms
   an abort failpoint and dies inside the transition via Unix._exit 70
   — no unwinding, no flushing. The parent proves the directory still
   serves the old generation byte-identically. *)

let abort_child_env = "PTI_TEST_SEGMENT_ABORT"

let abort_cases =
  [
    (* child action, failpoint spec; rename hit 1 = new segment file,
       hit 2 = manifest swap (see the hit arithmetic note above) *)
    ("seal", "storage.write:abort@1");
    ("seal", "storage.rename:abort@1");
    ("seal", "storage.rename:abort@2");
    ("compact", "storage.write:abort@1");
    ("compact", "storage.rename:abort@2");
    ("delete", "storage.rename:abort@1");
  ]

let run_abort_child dir action spec =
  let env =
    Array.append (Unix.environment ())
      [| Printf.sprintf "%s=%s|%s|%s" abort_child_env dir action spec |]
  in
  let exe = Sys.executable_name in
  let child =
    Unix.create_process_env exe [| exe |] env Unix.stdin Unix.stdout Unix.stderr
  in
  let rec wait () =
    try Unix.waitpid [] child
    with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  match wait () with
  | _, Unix.WEXITED 70 -> ()
  | _, status ->
      let s =
        match status with
        | Unix.WEXITED c -> Printf.sprintf "exit %d" c
        | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
        | Unix.WSTOPPED s -> Printf.sprintf "stop %d" s
      in
      Alcotest.failf "abort child (%s, %s) should _exit 70, got %s" action spec s

let test_fault_matrix_abort () =
  let docs = docs_of_seed 103 ~n:16 in
  let pats = patterns_of_seed 103 docs ~count:6 in
  (* the document the "seal" child inserts (and gets acknowledged)
     before its seal aborts: the write-ahead log must recover it, so
     the expected answers for that action come from a reference corpus
     that contains it *)
  let sealed_extra = H.random_ustring (H.rng_of_seed 7) 10 4 3 in
  let answers_with_extra =
    with_tmpdir (fun rdir ->
        let r = store_with_cuts rdir (docs @ [ sealed_extra ]) ~cuts:4 in
        List.map (fun (p, tau) -> floats (Store.query r ~pattern:p ~tau)) pats)
  in
  List.iter
    (fun (action, spec) ->
      with_tmpdir (fun dir ->
          let t = store_with_cuts dir docs ~cuts:4 in
          let answers =
            if action = "seal" then answers_with_extra
            else
              List.map
                (fun (p, tau) -> floats (Store.query t ~pattern:p ~tau))
                pats
          in
          let manifest_bytes =
            read_file (Filename.concat dir Store.manifest_name)
          in
          run_abort_child dir action spec;
          (* sweep the crashed child's temp files, as recovery would *)
          let has_sub hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
            in
            go 0
          in
          Array.iter
            (fun n ->
              if has_sub n ".tmp." then Sys.remove (Filename.concat dir n))
            (Sys.readdir dir);
          let fresh = Store.open_dir ~read_only:true dir in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s: manifest byte-identical" action spec)
            true
            (read_file (Filename.concat dir Store.manifest_name) = manifest_bytes);
          Alcotest.(check int)
            (Printf.sprintf "%s under %s: generation" action spec)
            (Store.generation t) (Store.generation fresh);
          List.iteri
            (fun i (pattern, tau) ->
              Alcotest.check hits_testable
                (Printf.sprintf "%s under %s: answer %d" action spec i)
                (List.nth answers i)
                (floats (Store.query fresh ~pattern ~tau)))
            pats))
    abort_cases

(* The child half: runs before Alcotest when the env marker is set. *)
let () =
  match Sys.getenv_opt abort_child_env with
  | None -> ()
  | Some payload ->
      (match String.split_on_char '|' payload with
      | [ dir; action; spec ] ->
          let t = Store.open_dir dir in
          F.arm_spec spec;
          (try
             match action with
             | "seal" ->
                 ignore
                   (Store.insert t
                      (H.random_ustring (H.rng_of_seed 7) 10 4 3)
                     : int);
                 ignore (Store.seal t : bool)
             | "compact" -> ignore (Store.compact ~force:true t : bool)
             | "delete" -> ignore (Store.delete t 1 : bool)
             | _ -> ()
           with _ -> ());
          exit 9 (* only reached if the failpoint did not abort *)
      | _ -> exit 8)

let () =
  Alcotest.run "pti_segment"
    [
      ( "scatter-gather",
        [
          Alcotest.test_case "equivalent to monolithic across cuts" `Quick
            test_equivalence_cuts;
          Alcotest.test_case "memtable + segments mix" `Quick
            test_memtable_and_segments_mix;
          Alcotest.test_case "succinct backend" `Quick test_succinct_backend;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "insert ids and auto-seal" `Quick
            test_insert_ids_and_auto_seal;
          Alcotest.test_case "deletes and tombstones" `Quick
            test_deletes_and_tombstones;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "merge retires tombstones" `Quick test_compaction;
          Alcotest.test_case "tier and ratio policy" `Quick
            test_compaction_policy;
          Alcotest.test_case "compact to empty" `Quick test_compact_to_empty;
          Alcotest.test_case "look-alike file names untouched" `Quick
            test_lookalike_files_untouched;
        ] );
      ( "durability",
        [
          Alcotest.test_case "reopen and reload" `Quick test_reopen_and_reload;
          Alcotest.test_case "errno fault matrix" `Quick
            test_fault_matrix_errno;
          Alcotest.test_case "abort fault matrix" `Quick
            test_fault_matrix_abort;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "writer conflict and reload regression" `Quick
            test_conflict_and_reload_regression;
          Alcotest.test_case "sweep watermark" `Quick test_sweep_watermark;
          Alcotest.test_case "concurrent churn" `Quick test_concurrent_churn;
        ] );
    ]
