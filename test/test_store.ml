(* The persistent measurement store and its serialization layer.

   Covers the storage contract (atomic publish, header validation,
   fingerprint invalidation, LRU gc), the measurement codec round-trip
   (property-based, including every Events counter and the full allocator
   configuration space the ablations sweep), the Context wiring
   (memory hit → disk hit → simulate, seed in the identity, in-flight
   dedup under a racing pool, for measurements and blobs) and the store
   key (a golden digest of every planned key, and keys equal exactly
   when configs are). *)

module Store = Mm_store.Store
module Ctx = Mm_experiments.Context
module Engine = Mm_runtime.Engine
module Version = Mm_runtime.Version
module Factory = Mm_runtime.Alloc_factory
module Machine = Mm_cachesim.Machine
module Events = Mm_cachesim.Events
module Perf = Mm_cachesim.Perf_model
module Spec = Mm_workload.Spec
module Access = Mm_memsim.Access
module Pool = Mm_sched.Pool
module Fault = Mm_fault.Fault

let temp_dir () = Filename.temp_dir "mmstudy-test-store" ""

(* The whole suite must pass with deterministic fault injection enabled
   (check.sh runs it under MM_FAULT_SEED).  Value-equality assertions
   hold regardless — that is the resilience invariant — but exact hit
   and entry counts assume I/O lands on the first try, so they are
   guarded by [strict].  Evaluated per call: a test that reconfigures
   the plan does not perturb its neighbors. *)
let strict () = not (Fault.enabled ())

let check_int_strict name expect got =
  if strict () then Alcotest.(check int) name expect got

(* Publish an entry and confirm it landed intact: under injection a
   store can be torn (published truncated on purpose), which reads back
   as a miss — rewriting is exactly the heal the production layers
   perform. *)
let store_intact ?kind s ~key ~data =
  let rec go attempts =
    if attempts = 0 then Alcotest.failf "entry %S never landed intact" key;
    (try Store.store s ?kind ~key ~data () with _ -> ());
    if Store.find s ~key <> Some data then go (attempts - 1)
  in
  go 8

(* Restore the ambient fault plan (the MM_FAULT_SEED the suite was
   launched with, or none) after a test that reconfigures it. *)
let with_fault_plan ?rates ~seed f =
  Fun.protect
    ~finally:(fun () ->
      match Sys.getenv_opt "MM_FAULT_SEED" with
      | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some env_seed -> Fault.configure ~seed:env_seed ()
        | None -> Fault.disable ())
      | None -> Fault.disable ())
    (fun () ->
      Fault.configure ?rates ~seed ();
      f ())

let fp = "test-fingerprint-v1"

let spec = Spec.mediawiki_ro

(* A store-backed context; tiny scale, 1 core keeps each simulate fast. *)
let mk_ctx ?store ?refresh ?(seed = 42) () =
  Ctx.create ~scale:0.02 ~seed ?store ?refresh ()

let force_one ctx =
  Ctx.run_php ctx ~machine:Machine.xeon ~cores:1 ~kind:Factory.Php_default
    ~spec ()

(* --- the raw store --------------------------------------------------- *)

let test_store_roundtrip () =
  let dir = temp_dir () in
  let s = Store.open_ ~dir ~fingerprint:fp () in
  Alcotest.(check (option string)) "miss on empty" None (Store.find s ~key:"k");
  store_intact s ~key:"k" ~data:"payload\nwith lines";
  Alcotest.(check (option string))
    "hit" (Some "payload\nwith lines") (Store.find s ~key:"k");
  store_intact s ~key:"k" ~data:"v2";
  Alcotest.(check (option string))
    "overwrite" (Some "v2") (Store.find s ~key:"k");
  let st = Store.stats ~dir in
  Alcotest.(check int) "one entry" 1 st.Store.entries;
  Alcotest.(check bool) "entry file exists" true
    (Sys.file_exists (Store.entry_path s ~key:"k"))

let test_store_distinct_keys_and_fingerprints () =
  let dir = temp_dir () in
  let a = Store.open_ ~dir ~fingerprint:"A" () in
  let b = Store.open_ ~dir ~fingerprint:"B" () in
  store_intact a ~key:"k" ~data:"from-a";
  Alcotest.(check bool) "digests differ across fingerprints" true
    (Store.digest_hex a ~key:"k" <> Store.digest_hex b ~key:"k");
  Alcotest.(check (option string))
    "fingerprint B cannot see A's entry" None (Store.find b ~key:"k");
  (* A wrong-fingerprint *file* (A's bytes sitting at B's path) must read
     as a miss too: the header check, not just the digest, protects us. *)
  let copy src dst =
    let ic = open_in_bin src in
    let n = in_channel_length ic in
    let data = really_input_string ic n in
    close_in ic;
    let oc = open_out_bin dst in
    output_string oc data;
    close_out oc
  in
  copy (Store.entry_path a ~key:"k") (Store.entry_path b ~key:"k");
  Alcotest.(check (option string))
    "header fingerprint mismatch is a miss" None (Store.find b ~key:"k");
  Alcotest.(check (option string))
    "A still hits" (Some "from-a") (Store.find a ~key:"k")

let corrupt_file path f =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let data = f data in
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let test_store_rejects_corruption () =
  let dir = temp_dir () in
  let s = Store.open_ ~dir ~fingerprint:fp () in
  store_intact s ~key:"k" ~data:"0123456789abcdef";
  let path = Store.entry_path s ~key:"k" in
  (* Truncation. *)
  corrupt_file path (fun d -> String.sub d 0 (String.length d - 5));
  Alcotest.(check (option string)) "truncated is a miss" None
    (Store.find s ~key:"k");
  (* In-place payload flip, length preserved: caught by the payload MD5. *)
  store_intact s ~key:"k" ~data:"0123456789abcdef";
  corrupt_file path (fun d ->
      let b = Bytes.of_string d in
      Bytes.set b (Bytes.length b - 1) 'X';
      Bytes.to_string b);
  Alcotest.(check (option string)) "bit-flipped is a miss" None
    (Store.find s ~key:"k");
  (* Garbage from offset 0. *)
  store_intact s ~key:"k" ~data:"0123456789abcdef";
  corrupt_file path (fun _ -> "not a store entry at all");
  Alcotest.(check (option string)) "garbage is a miss" None
    (Store.find s ~key:"k")

let test_store_stats_clear_gc () =
  let dir = temp_dir () in
  let s = Store.open_ ~dir ~fingerprint:fp () in
  store_intact s ~key:"a" ~data:(String.make 100 'a');
  Unix.sleepf 0.02;
  (* Distinct mtimes so LRU order is deterministic. *)
  store_intact s ~key:"b" ~data:(String.make 100 'b');
  Unix.sleepf 0.02;
  store_intact s ~key:"c" ~data:(String.make 100 'c');
  let st = Store.stats ~dir in
  Alcotest.(check int) "three entries" 3 st.Store.entries;
  Alcotest.(check bool) "bytes counted" true (st.Store.bytes > 300);
  (* Touch "a" so it becomes the most recently used. *)
  Alcotest.(check bool) "a hits" true (Store.find s ~key:"a" <> None);
  let entry_bytes = st.Store.bytes / 3 in
  let removed = Store.gc ~dir ~max_bytes:(2 * entry_bytes) in
  Alcotest.(check int) "gc evicted one" 1 removed;
  Alcotest.(check (option string))
    "LRU victim was b" None (Store.find s ~key:"b");
  Alcotest.(check bool) "a survived (recently used)" true
    (Store.find s ~key:"a" <> None);
  Alcotest.(check int) "clear removes the rest" 2 (Store.clear ~dir);
  Alcotest.(check int) "empty after clear" 0 (Store.stats ~dir).Store.entries;
  Alcotest.(check int) "clear on missing dir" 0
    (Store.clear ~dir:(Filename.concat dir "nonexistent"))

let test_store_kind_tags () =
  let dir = temp_dir () in
  let s = Store.open_ ~dir ~fingerprint:fp () in
  (* Default kind is "measurement"; "serve" entries are tagged but live
     in the same namespace and digest scheme. *)
  store_intact s ~key:"m1" ~data:"measurement-payload";
  store_intact s ~key:"m2" ~data:"another" ~kind:Store.default_kind;
  store_intact s ~key:"s1" ~data:"sweep-payload" ~kind:"serve";
  Alcotest.(check (option string))
    "serve entry readable" (Some "sweep-payload") (Store.find s ~key:"s1");
  Alcotest.(check (option string))
    "measurement entry readable" (Some "measurement-payload")
    (Store.find s ~key:"m1");
  let st = Store.stats ~dir in
  Alcotest.(check int) "three entries total" 3 st.Store.entries;
  let count kind =
    match List.find_opt (fun (k, _, _) -> k = kind) st.Store.by_kind with
    | Some (_, n, _) -> n
    | None -> 0
  in
  Alcotest.(check int) "two measurement entries" 2
    (count Store.default_kind);
  Alcotest.(check int) "one serve entry" 1 (count "serve");
  let bytes_sum =
    List.fold_left (fun acc (_, _, b) -> acc + b) 0 st.Store.by_kind
  in
  Alcotest.(check int) "by_kind bytes sum to total" st.Store.bytes bytes_sum;
  (* The kind is diagnostic only: rewriting the same key under a new
     kind re-tags the same address. *)
  store_intact s ~key:"s1" ~data:"sweep-payload" ~kind:Store.default_kind;
  let st = Store.stats ~dir in
  Alcotest.(check int) "still three entries" 3 st.Store.entries;
  let count kind =
    match List.find_opt (fun (k, _, _) -> k = kind) st.Store.by_kind with
    | Some (_, n, _) -> n
    | None -> 0
  in
  Alcotest.(check int) "re-tagged to measurement" 3 (count Store.default_kind)

let test_truncation_at_every_boundary () =
  (* Crash consistency: a write interrupted at ANY byte boundary must
     read as a miss — never raise, never serve partial bytes — and the
     next force must self-heal the entry on disk. *)
  let dir = temp_dir () in
  let s = Store.open_ ~dir ~fingerprint:fp () in
  let data = "line one\nline two\x00binary\xff bytes\nand a tail" in
  store_intact s ~key:"k" ~data;
  let path = Store.entry_path s ~key:"k" in
  let ic = open_in_bin path in
  let full = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let n = String.length full in
  for cut = 0 to n - 1 do
    let oc = open_out_bin path in
    output_string oc (String.sub full 0 cut);
    close_out oc;
    match Store.find s ~key:"k" with
    | None -> ()
    | Some d ->
      if d <> data then
        Alcotest.failf "prefix of %d/%d bytes served wrong data" cut n
      else Alcotest.failf "prefix of %d/%d bytes read as a hit" cut n
    | exception e ->
      Alcotest.failf "prefix of %d/%d bytes raised %s" cut n
        (Printexc.to_string e)
  done;
  (* Self-heal: the production path is miss -> recompute -> rewrite. *)
  store_intact s ~key:"k" ~data;
  Alcotest.(check (option string)) "healed" (Some data) (Store.find s ~key:"k")

let test_measurement_entry_truncation_heals () =
  (* The same sweep on a real measurement entry, through the Context
     layer: every prefix is a miss, force recomputes the same bytes and
     heals the store. *)
  let dir = temp_dir () in
  let store = Store.open_ ~dir ~fingerprint:fp () in
  let cold = mk_ctx ~store () in
  let m_cold = force_one cold in
  let key =
    Ctx.store_key
      (Ctx.php_key cold ~machine:Machine.xeon ~cores:1
         ~kind:Factory.Php_default ~spec ())
  in
  let path = Store.entry_path store ~key in
  if not (Sys.file_exists path) then
    ignore (force_one (mk_ctx ~store ()) : Engine.measurement);
  let ic = open_in_bin path in
  let full = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let n = String.length full in
  (* Every byte boundary through the raw store; a stride through the
     expensive Context recompute path. *)
  for cut = 0 to n - 1 do
    let oc = open_out_bin path in
    output_string oc (String.sub full 0 cut);
    close_out oc;
    match Store.find store ~key with
    | None -> ()
    | Some _ -> Alcotest.failf "prefix of %d/%d bytes read as a hit" cut n
    | exception e ->
      Alcotest.failf "prefix of %d/%d bytes raised %s" cut n
        (Printexc.to_string e)
  done;
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (n / 2));
  close_out oc;
  let warm = mk_ctx ~store () in
  let m = force_one warm in
  Alcotest.(check bool) "identical bytes after heal" true
    (Engine.measurement_to_string m = Engine.measurement_to_string m_cold);
  let reread = mk_ctx ~store () in
  ignore (force_one reread : Engine.measurement);
  check_int_strict "healed on disk" 1 (Ctx.disk_hits reread)

let test_store_survives_injection () =
  (* Aggressive rates: the store's own retry/backoff plus the test-level
     heal loop must keep every read either faithful or a miss. *)
  with_fault_plan ~seed:9
    ~rates:
      [
        (Fault.Store_read, 0.3);
        (Fault.Store_write, 0.3);
        (Fault.Store_torn, 0.25);
      ]
    (fun () ->
      let dir = temp_dir () in
      let s = Store.open_ ~dir ~fingerprint:fp () in
      for i = 0 to 49 do
        let key = Printf.sprintf "k%d" i in
        let data = Printf.sprintf "payload-%d-%s" i (String.make i 'y') in
        store_intact s ~key ~data;
        match Store.find s ~key with
        | Some d when d = data -> ()
        | Some _ -> Alcotest.failf "entry %s served wrong bytes" key
        | None -> ()
      done;
      Alcotest.(check bool) "injection actually fired" true
        (Fault.total_injected () > 0);
      let h = Store.health s in
      Alcotest.(check bool) "retries were recorded" true
        (h.Store.read_retries + h.Store.write_retries > 0))

let gen_float =
  QCheck.Gen.map
    (fun (a, b) ->
      let bits =
        Int64.logxor (Int64.of_int a) (Int64.shift_left (Int64.of_int b) 31)
      in
      let f = Int64.float_of_bits bits in
      if Float.is_nan f then float_of_int a else f)
    QCheck.Gen.(pair int int)

let gen_scheme =
  QCheck.Gen.oneofl
    [
      Core.Size_class.paper ~max_size:16384;
      Core.Size_class.power_of_two ~max_size:16384;
      Core.Size_class.fine ~max_size:8192;
      Core.Size_class.of_sizes ~name:"custom" [| 8; 64; 4096 |];
    ]

let gen_kind =
  let open QCheck.Gen in
  oneof
    [
      oneofl
        [
          Factory.Dd None;
          Factory.Region;
          Factory.Obstack;
          Factory.Php_default;
          Factory.Glibc;
          Factory.Hoard;
          Factory.Tcmalloc;
          Factory.Reaps;
        ];
      map
        (fun (scheme, (seg, (pid_off, (lp, reuse)))) ->
          Factory.Dd
            (Some
               {
                 Core.Ddmalloc.segment_size = seg;
                 arena_size = 256 * 1024 * 1024;
                 scheme;
                 pid_metadata_offset = pid_off;
                 large_pages = lp;
                 reuse;
               }))
        (pair gen_scheme
           (pair (oneofl [ 8192; 32768; 131072 ])
              (pair bool
                 (pair bool
                    (oneofl
                       [
                         Core.Ddmalloc.Lifo;
                         Core.Ddmalloc.Fifo;
                         Core.Ddmalloc.Addr_ordered;
                       ])))));
    ]

let gen_events =
  let open QCheck.Gen in
  map
    (fun vals ->
      let ev = Events.create () in
      List.iteri
        (fun i v ->
          let ctx = List.nth [ Access.Mgmt; Access.App; Access.Kernel ] (i / Events.ncounters) in
          let counter = List.nth Events.all_counters (i mod Events.ncounters) in
          Events.add ev ctx counter v)
        vals;
      ev)
    (list_repeat (3 * Events.ncounters) (int_range 0 1_000_000_000))

let gen_summary =
  let open QCheck.Gen in
  map
    (fun xs ->
      let s = Mm_stats.Summary.create () in
      List.iter (Mm_stats.Summary.add s) xs;
      s)
    (list_size (int_range 0 8) (float_range (-1e9) 1e9))

let gen_measurement =
  let open QCheck.Gen in
  let gen_cfg =
    map
      (fun ((machine, cores), (kind, (spec, (seed, (restart, bulk))))) ->
        Engine.config ~machine ~active_cores:cores ~kind ~spec ~scale:0.125
          ~seed ~restart_period:restart ~use_bulk_free:bulk ())
      (pair
         (pair (oneofl [ Machine.xeon; Machine.niagara ]) (int_range 1 8))
         (pair gen_kind
            (pair
               (oneofl (Spec.php_apps @ [ Spec.rails ]))
               (pair (int_range 0 1000)
                  (pair (oneofl [ None; Some 10; Some 64 ]) bool)))))
  in
  map
    (fun ((cfg, events), ((txns, perf_floats), (consumption, rates))) ->
      let p1, p2, p3, p4, p5, p6, p7 =
        match perf_floats with
        | [ a; b; c; d; e; f; g ] -> (a, b, c, d, e, f, g)
        | _ -> assert false
      in
      let r1, r2, r3, r4, r5 =
        match rates with
        | [ a; b; c; d; e ] -> (a, b, c, d, e)
        | _ -> assert false
      in
      {
        Engine.cfg;
        events;
        txns;
        perf =
          {
            Perf.cycles_per_txn = p1;
            throughput = p2;
            breakdown =
              { Perf.mgmt_cycles = p3; app_cycles = p4; kernel_cycles = p5 };
            bus_utilization = p6;
            mem_latency_eff = p7;
          };
        throughput = r1;
        consumption;
        mallocs_per_txn = r2;
        frees_per_txn = r3;
        reallocs_per_txn = r4;
        mean_alloc_size = r5;
      })
    (pair (pair gen_cfg gen_events)
       (pair
          (pair (int_range 1 10_000) (list_repeat 7 gen_float))
          (pair gen_summary (list_repeat 5 gen_float))))

let codec_roundtrip_prop =
  QCheck.Test.make ~count:300
    ~name:"measurement codec: of_string (to_string m) = m"
    (QCheck.make gen_measurement)
    (fun m ->
      match Engine.measurement_of_string (Engine.measurement_to_string m) with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok m' ->
        (* Structural equality covers every Events counter, the full
           allocator config (scheme arrays included) and all floats; a
           second encode must also be byte-identical, which is what makes
           warm renders byte-identical. *)
        m' = m
        && Engine.measurement_to_string m' = Engine.measurement_to_string m)

let test_codec_rejects_garbage () =
  let is_error = function Error _ -> true | Ok _ -> false in
  let check name s =
    Alcotest.(check bool) name true (is_error (Engine.measurement_of_string s))
  in
  check "empty" "";
  check "junk" "this is not a measurement";
  let m = force_one (mk_ctx ()) in
  let good = Engine.measurement_to_string m in
  check "truncated" (String.sub good 0 (String.length good / 2));
  check "wrong schema"
    (Str.global_replace (Str.regexp "mmstudy.measurement 1")
       "mmstudy.measurement 999" good)

let test_codec_real_measurement () =
  let m = force_one (mk_ctx ()) in
  match Engine.measurement_of_string (Engine.measurement_to_string m) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok m' ->
    Alcotest.(check bool) "round-trips a real engine run" true (m' = m)

(* --- context wiring --------------------------------------------------- *)

let test_seed_in_key () =
  let k1 =
    Ctx.php_key (mk_ctx ~seed:1 ()) ~machine:Machine.xeon ~cores:1
      ~kind:Factory.Php_default ~spec ()
  in
  let k2 =
    Ctx.php_key (mk_ctx ~seed:2 ()) ~machine:Machine.xeon ~cores:1
      ~kind:Factory.Php_default ~spec ()
  in
  Alcotest.(check bool) "key_name distinguishes seeds" true
    (Ctx.key_name k1 <> Ctx.key_name k2);
  Alcotest.(check bool) "store_key distinguishes seeds" true
    (Ctx.store_key k1 <> Ctx.store_key k2)

let test_warm_context_serves_from_disk () =
  let dir = temp_dir () in
  let store = Store.open_ ~dir ~fingerprint:fp () in
  let cold = mk_ctx ~store () in
  let m_cold = force_one cold in
  Alcotest.(check int) "cold simulated" 1 (Ctx.simulated cold);
  Alcotest.(check int) "cold disk hits" 0 (Ctx.disk_hits cold);
  check_int_strict "one entry on disk" 1 (Store.stats ~dir).Store.entries;
  let warm = mk_ctx ~store () in
  let m_warm = force_one warm in
  check_int_strict "warm simulated" 0 (Ctx.simulated warm);
  check_int_strict "warm disk hits" 1 (Ctx.disk_hits warm);
  Alcotest.(check bool) "warm measurement structurally equal" true
    (m_warm = m_cold);
  (* refresh skips reads but still recomputes and rewrites. *)
  let refresh = mk_ctx ~store ~refresh:true () in
  let m_r = force_one refresh in
  Alcotest.(check int) "refresh simulated" 1 (Ctx.simulated refresh);
  Alcotest.(check bool) "refresh result equal" true (m_r = m_cold)

let test_corrupt_entry_falls_back_to_simulate () =
  let dir = temp_dir () in
  let store = Store.open_ ~dir ~fingerprint:fp () in
  let cold = mk_ctx ~store () in
  let m_cold = force_one cold in
  let key =
    Ctx.store_key
      (Ctx.php_key cold ~machine:Machine.xeon ~cores:1
         ~kind:Factory.Php_default ~spec ())
  in
  corrupt_file (Store.entry_path store ~key) (fun d ->
      String.sub d 0 (String.length d * 2 / 3));
  let warm = mk_ctx ~store () in
  let m = force_one warm in
  Alcotest.(check int) "recomputed, no error" 1 (Ctx.simulated warm);
  Alcotest.(check int) "no disk hit" 0 (Ctx.disk_hits warm);
  Alcotest.(check bool) "same result" true (m = m_cold);
  (* The write-behind healed the entry. *)
  let healed = mk_ctx ~store () in
  ignore (force_one healed : Engine.measurement);
  check_int_strict "healed entry hits" 1 (Ctx.disk_hits healed)

let test_fingerprint_flip_invalidates () =
  let dir = temp_dir () in
  let store_a = Store.open_ ~dir ~fingerprint:"sim-A" () in
  let ctx_a = mk_ctx ~store:store_a () in
  ignore (force_one ctx_a : Engine.measurement);
  check_int_strict "populated under A" 1 (Store.stats ~dir).Store.entries;
  (* Same directory, bumped fingerprint: every entry is unreachable. *)
  let store_b = Store.open_ ~dir ~fingerprint:"sim-B" () in
  let ctx_b = mk_ctx ~store:store_b () in
  ignore (force_one ctx_b : Engine.measurement);
  Alcotest.(check int) "B recomputed" 1 (Ctx.simulated ctx_b);
  Alcotest.(check int) "B had no disk hit" 0 (Ctx.disk_hits ctx_b);
  check_int_strict "both versions coexist" 2 (Store.stats ~dir).Store.entries

let test_racing_workers_simulate_once () =
  let dir = temp_dir () in
  let store = Store.open_ ~dir ~fingerprint:fp () in
  let ctx = mk_ctx ~store () in
  let key () =
    Ctx.php_key ctx ~machine:Machine.xeon ~cores:1 ~kind:Factory.Php_default
      ~spec ()
  in
  (* Two pool workers force the same digest concurrently: the in-flight
     rendezvous must collapse them to one simulate and one store write. *)
  let results =
    Pool.run ~jobs:2 [ (fun () -> Ctx.force ctx (key ())); (fun () -> Ctx.force ctx (key ())) ]
  in
  (match results with
  | [ a; b ] ->
    Alcotest.(check bool) "both workers share one measurement" true (a == b)
  | _ -> Alcotest.fail "expected two results");
  Alcotest.(check int) "exactly one simulate" 1 (Ctx.simulated ctx);
  check_int_strict "exactly one store entry" 1 (Store.stats ~dir).Store.entries

let test_blob_layer () =
  let dir = temp_dir () in
  let store = Store.open_ ~dir ~fingerprint:fp () in
  let valid s = String.length s > 0 && s.[0] = 'P' in
  let computes = ref 0 in
  let compute () =
    incr computes;
    "Payload"
  in
  let force ctx = Ctx.force_blob ctx ~kind:"serve" ~key:"blob-k" ~valid ~compute in
  let cold = mk_ctx ~store () in
  Alcotest.(check string) "computed" "Payload" (force cold);
  Alcotest.(check string) "memory hit" "Payload" (force cold);
  Alcotest.(check int) "one compute" 1 !computes;
  Alcotest.(check int) "ctx counted one" 1 (Ctx.blob_computed cold);
  Alcotest.(check int) "no disk hit yet" 0 (Ctx.blob_disk_hits cold);
  (* A fresh context finds the write-behind on disk. *)
  let warm = mk_ctx ~store () in
  Alcotest.(check string) "disk hit" "Payload" (force warm);
  check_int_strict "no recompute" 1 !computes;
  check_int_strict "warm disk hit counted" 1 (Ctx.blob_disk_hits warm);
  (* A stored payload failing [valid] is a miss: recompute and heal. *)
  let computes_before = !computes in
  store_intact store ~key:"blob-k" ~data:"corrupt" ~kind:"serve";
  let healed = mk_ctx ~store () in
  Alcotest.(check string) "invalid payload recomputed" "Payload" (force healed);
  Alcotest.(check int) "recompute happened" (computes_before + 1) !computes;
  let again = mk_ctx ~store () in
  Alcotest.(check string) "healed on disk" "Payload" (force again);
  check_int_strict "healed serves from disk" (computes_before + 1) !computes;
  (* refresh skips the read but rewrites. *)
  let computes_before = !computes in
  let refresh = mk_ctx ~store ~refresh:true () in
  Alcotest.(check string) "refresh recomputes" "Payload" (force refresh);
  Alcotest.(check int) "refresh computed" (computes_before + 1) !computes

(* Two pool workers force the same blob while its compute is slow: the
   in-flight rendezvous must run the compute once and hand both workers
   the same payload. *)
let test_blob_rendezvous () =
  let ctx = mk_ctx () in
  let computes = Atomic.make 0 in
  let compute () =
    Atomic.incr computes;
    Unix.sleepf 0.2;
    "Payload"
  in
  let force () =
    Ctx.force_blob ctx ~kind:"serve" ~key:"blob-race" ~valid:(fun _ -> true)
      ~compute
  in
  let results = Pool.run ~jobs:2 [ force; force ] in
  Alcotest.(check (list string)) "both workers get the payload"
    [ "Payload"; "Payload" ] results;
  Alcotest.(check int) "exactly one compute" 1 (Atomic.get computes);
  Alcotest.(check int) "ctx counted one" 1 (Ctx.blob_computed ctx)

(* --- the store key ----------------------------------------------------- *)

let planned ~scale ~seed =
  Mm_experiments.Registry.plan_all (Ctx.create ~scale ~seed ())

(* The md5 of every distinct store key the registry plans at scale 0.05,
   seed 42, sorted and newline-joined.  Store entries are addressed by
   these strings, so a change here orphans every stored measurement: it
   must ride a fingerprint bump. *)
let test_store_key_golden () =
  let keys =
    List.sort_uniq compare
      (List.map Ctx.store_key (planned ~scale:0.05 ~seed:42))
  in
  Alcotest.(check int) "distinct planned keys" 143 (List.length keys);
  Alcotest.(check string) "store-key digest" "7297181e2d52d8c2ed2c5f8cc2d2c79e"
    (Digest.to_hex (Digest.string (String.concat "\n" keys)))

(* The key names a configuration exactly: two planned keys have equal
   strings if and only if their configs are structurally equal.  The
   config fields the string leaves out must be determined by the ones it
   has. *)
let test_store_key_equivalence () =
  List.iter
    (fun (scale, seed) ->
      let by_name = Hashtbl.create 256 in
      List.iter
        (fun k ->
          let name = Ctx.store_key k in
          match Hashtbl.find_opt by_name name with
          | Some cfg ->
            if cfg <> Ctx.config k then
              Alcotest.failf "one key, two configs: %s" name
          | None -> Hashtbl.add by_name name (Ctx.config k))
        (planned ~scale ~seed);
      let distinct = List.of_seq (Hashtbl.to_seq by_name) in
      List.iteri
        (fun i (a, ca) ->
          List.iteri
            (fun j (b, cb) ->
              if i < j && ca = cb then
                Alcotest.failf "one config, two keys: %s and %s" a b)
            distinct)
        distinct)
    [ (0.05, 42); (0.01, 7919); (0.25, 42) ]

let test_version_fingerprint_shape () =
  Alcotest.(check bool) "fingerprint mentions every component" true
    (let fp = Version.sim_fingerprint in
     let has s =
       let re = Str.regexp_string s in
       try
         ignore (Str.search_forward re fp 0 : int);
         true
       with Not_found -> false
     in
     has "core-v" && has "cachesim-v" && has "engine-v" && has "schema-v"
     && has "serve-v")

let () =
  Alcotest.run "mm_store"
    [
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "keys and fingerprints isolate" `Quick
            test_store_distinct_keys_and_fingerprints;
          Alcotest.test_case "corruption read as miss" `Quick
            test_store_rejects_corruption;
          Alcotest.test_case "stats / clear / gc" `Quick
            test_store_stats_clear_gc;
          Alcotest.test_case "payload kind tags" `Quick test_store_kind_tags;
          Alcotest.test_case "truncation at every boundary" `Quick
            test_truncation_at_every_boundary;
          Alcotest.test_case "measurement entry truncation heals" `Quick
            test_measurement_entry_truncation_heals;
          Alcotest.test_case "survives fault injection" `Quick
            test_store_survives_injection;
        ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest codec_roundtrip_prop;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "round-trips a real run" `Quick
            test_codec_real_measurement;
        ] );
      ( "context",
        [
          Alcotest.test_case "seed is part of the key" `Quick test_seed_in_key;
          Alcotest.test_case "warm context serves from disk" `Quick
            test_warm_context_serves_from_disk;
          Alcotest.test_case "corrupt entry falls back to simulate" `Quick
            test_corrupt_entry_falls_back_to_simulate;
          Alcotest.test_case "fingerprint flip invalidates" `Quick
            test_fingerprint_flip_invalidates;
          Alcotest.test_case "racing workers simulate once" `Quick
            test_racing_workers_simulate_once;
          Alcotest.test_case "blob layer" `Quick test_blob_layer;
          Alcotest.test_case "blob rendezvous computes once" `Quick
            test_blob_rendezvous;
          Alcotest.test_case "store-key golden" `Quick test_store_key_golden;
          Alcotest.test_case "store key iff config" `Quick
            test_store_key_equivalence;
          Alcotest.test_case "fingerprint shape" `Quick
            test_version_fingerprint_shape;
        ] );
    ]
