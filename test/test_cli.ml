(* Error-path contract of the mmstudy CLI, checked end-to-end: bad input
   must exit non-zero with a one-line message naming the valid values —
   not succeed vacuously, not backtrace.  Shells the real binary (a dune
   dep of this test), so exit codes are the ones scripts will see. *)

let bin =
  match Sys.getenv_opt "MMSTUDY_BIN" with
  | Some b -> b
  | None -> Filename.concat ".." (Filename.concat "bin" "mmstudy.exe")

let run_mmstudy args =
  let cmd = Printf.sprintf "%s %s 2>&1" (Filename.quote bin) args in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
  in
  (code, Buffer.contents buf)

let contains hay needle =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0 : int);
    true
  with Not_found -> false

let expect_error args needles () =
  let code, out = run_mmstudy args in
  if code = 0 then
    Alcotest.failf "`mmstudy %s' exited 0; output:\n%s" args out;
  if contains out "backtrace" || contains out "internal error" then
    Alcotest.failf "`mmstudy %s' failed internally:\n%s" args out;
  List.iter
    (fun needle ->
      if not (contains out needle) then
        Alcotest.failf "`mmstudy %s' output misses %S:\n%s" args needle out)
    needles

let expect_ok args needles () =
  let code, out = run_mmstudy args in
  if code <> 0 then
    Alcotest.failf "`mmstudy %s' exited %d; output:\n%s" args code out;
  List.iter
    (fun needle ->
      if not (contains out needle) then
        Alcotest.failf "`mmstudy %s' output misses %S:\n%s" args needle out)
    needles

let err name args needles =
  Alcotest.test_case name `Quick (expect_error args needles)

let ok name args needles = Alcotest.test_case name `Quick (expect_ok args needles)

(* [cache gc] runs against a fresh temporary store holding one entry, so a
   regression cannot evict a real store.  [check] gets the gc command
   line, missing only its --max-mb value. *)
let with_temp_store check () =
  let dir = Filename.temp_dir "mmstudy_cli" "" in
  let rm () = ignore (Sys.command ("rm -rf " ^ Filename.quote dir) : int) in
  Fun.protect ~finally:rm (fun () ->
      let dir = Filename.quote dir in
      expect_ok
        (Printf.sprintf "sim --scale 0.01 --cores 1 --cache-dir %s" dir)
        [ "simulations: 1" ] ();
      check (Printf.sprintf "cache gc --dir %s --max-mb" dir))

let gc_err name max_mb =
  Alcotest.test_case name `Quick
    (with_temp_store (fun gc -> expect_error (gc ^ max_mb) [ "--max-mb" ] ()))

let gc_ok name max_mb needles =
  Alcotest.test_case name `Quick
    (with_temp_store (fun gc -> expect_ok (gc ^ max_mb) needles ()))

let () =
  Alcotest.run "mmstudy_cli"
    [
      ( "run",
        [
          err "unknown experiment lists ids" "run not-an-experiment"
            [ "unknown experiment"; "valid ids"; "fig1"; "resilience"; "all" ];
          err "no-cache vs refresh conflict" "run fig1 --no-cache --refresh"
            [ "--no-cache"; "--refresh" ];
          err "no-cache vs cache-dir conflict"
            "run fig1 --no-cache --cache-dir /tmp/x"
            [ "--no-cache"; "--cache-dir" ];
          err "bad jobs" "run fig1 --no-cache -j 0" [ "--jobs" ];
          err "bad scale" "run fig1 --scale 0 --no-cache" [ "--scale" ];
        ] );
      ( "sim",
        [
          err "unknown machine" "sim --machine vax --no-cache"
            [ "unknown machine"; "xeon"; "niagara" ];
          err "unknown allocator" "sim --alloc bogus --no-cache"
            [ "unknown allocator"; "ddmalloc"; "region" ];
          err "unknown workload" "sim --workload bogus --no-cache"
            [ "unknown workload"; "mediawiki-ro" ];
          err "bad cores" "sim --machine niagara --cores 99 --no-cache"
            [ "--cores"; "niagara" ];
          err "bad scale" "sim --scale 1.5 --no-cache" [ "--scale" ];
        ] );
      ( "serve",
        [
          err "unknown arrival" "serve --arrival weibull --no-cache"
            [ "unknown arrival"; "poisson"; "bursty" ];
          err "unknown dispatch" "serve --dispatch random --no-cache"
            [ "unknown dispatch"; "round-robin"; "least-loaded"; "affinity" ];
          err "bad admission" "serve --admission sometimes --no-cache"
            [ "admission" ];
          err "bad queue limit" "serve --admission queue:0 --no-cache"
            [ "queue" ];
          err "negative timeout" "serve --timeout=-1 --no-cache"
            [ "--timeout" ];
          err "negative retries" "serve --retries=-2 --no-cache"
            [ "--retries" ];
          err "bad rps" "serve --rps 10,zap --no-cache" [ "--rps" ];
          err "bad duration" "serve --duration 0 --no-cache" [ "--duration" ];
          err "infinite rps" "serve --rps inf --scale 0.01 --no-cache -j 1"
            [ "--rps" ];
          err "overflowing rps" "serve --rps 1e400 --scale 0.01 --no-cache -j 1"
            [ "--rps" ];
          err "infinite duration"
            "serve --duration inf --scale 0.01 --no-cache -j 1" [ "--duration" ];
          err "infinite timeout"
            "serve --timeout inf --scale 0.01 --no-cache -j 1" [ "--timeout" ];
        ] );
      ( "chaos", [ err "bad scale" "chaos --scale 0" [ "--scale" ] ] );
      ( "cache",
        [
          err "gc needs max-mb" "cache gc" [ "--max-mb" ];
          gc_err "gc max-mb nan" " nan";
          gc_err "gc max-mb inf" " inf";
          gc_err "gc max-mb negative" "=-1";
          gc_ok "gc max-mb 0 evicts everything" " 0"
            [ "evicted 1 entry(ies); 0 left" ];
          gc_ok "gc max-mb past int range keeps everything" " 1e300"
            [ "evicted 0 entry(ies); 1 left" ];
        ] );
      ( "ok paths",
        [
          ok "list exits zero" "list" [ "resilience"; "mediawiki-ro" ];
          ok "help exits zero" "--help=plain" [ "chaos" ];
          ok "huge duration caps the request count"
            "serve --duration 1e300 --rps 100 --scale 0.01 --no-cache -j 1"
            [ "50000 requests per point" ];
        ] );
    ]
