(* The deterministic fault injector: plan determinism per seed, decisions
   independent of probe order across keys and domains, rate obedience at
   the extremes and in the middle, per-site counters, and clean
   disable/reconfigure semantics. *)

module Fault = Mm_fault.Fault
module Pool = Mm_sched.Pool

(* Every test reconfigures the process-global plan, so each restores the
   ambient one (the MM_FAULT_SEED the suite was launched with, or none)
   on the way out. *)
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

let test_site_names_distinct () =
  let names = List.map Fault.site_name Fault.all_sites in
  Alcotest.(check int) "three sites" 3 (List.length names);
  Alcotest.(check int) "names distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun s -> Alcotest.(check bool) s false (String.contains s ' '))
    names

let test_disabled_never_fires () =
  Fun.protect
    ~finally:(fun () ->
      match Sys.getenv_opt "MM_FAULT_SEED" with
      | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some env_seed -> Fault.configure ~seed:env_seed ()
        | None -> Fault.disable ())
      | None -> Fault.disable ())
    (fun () ->
      Fault.disable ();
      Alcotest.(check bool) "disabled" false (Fault.enabled ());
      Alcotest.(check (option int)) "no seed" None (Fault.seed ());
      List.iter
        (fun site ->
          for i = 1 to 1000 do
            if Fault.probe site ~key:(string_of_int (i mod 7)) <> None then
              Alcotest.failf "%s fired while disabled" (Fault.site_name site)
          done)
        Fault.all_sites;
      Alcotest.(check int) "nothing counted" 0 (Fault.total_injected ()))

let test_configure_enables_and_seeds () =
  with_fault_plan ~seed:123 (fun () ->
      Alcotest.(check bool) "enabled" true (Fault.enabled ());
      Alcotest.(check (option int)) "seed readable" (Some 123) (Fault.seed ()))

(* One probe of each of [n] distinct keys. *)
let pattern site n =
  List.init n (fun i -> Fault.probe site ~key:(Printf.sprintf "k%d" i) <> None)

let test_plan_deterministic_per_seed () =
  let take seed =
    with_fault_plan ~seed (fun () ->
        List.map (fun site -> pattern site 2000) Fault.all_sites)
  in
  let a = take 5 in
  let b = take 5 in
  Alcotest.(check bool) "same seed, same plan" true (a = b);
  let c = take 6 in
  Alcotest.(check bool) "different seed, different plan" true (a <> c)

let test_decisions_order_independent () =
  (* A key's decisions depend on the seed and on how often that key was
     probed before — not on the order keys are visited in, nor on which
     domain probes them. *)
  let n = 500 and seed = 7 in
  let rates = List.map (fun site -> (site, 0.5)) Fault.all_sites in
  let decide i =
    let key = Printf.sprintf "k%d" i in
    List.concat_map
      (fun site -> List.init 2 (fun _ -> Fault.probe site ~key))
      Fault.all_sites
  in
  let forward =
    with_fault_plan ~rates ~seed (fun () -> Array.init n decide)
  in
  let reverse =
    with_fault_plan ~rates ~seed (fun () ->
        let a = Array.make n [] in
        for i = n - 1 downto 0 do
          a.(i) <- decide i
        done;
        a)
  in
  let pooled =
    with_fault_plan ~rates ~seed (fun () ->
        Array.of_list
          (Pool.run ~jobs:4 (List.init n (fun i () -> decide i))))
  in
  for i = 0 to n - 1 do
    if forward.(i) <> reverse.(i) then
      Alcotest.failf "k%d: decisions depend on key order" i;
    if forward.(i) <> pooled.(i) then
      Alcotest.failf "k%d: decisions depend on the probing domain" i
  done;
  let fired = Array.to_list forward |> List.concat |> List.filter Option.is_some in
  Alcotest.(check bool) "some probes fired, some did not" true
    (fired <> [] && List.length fired < n * 2 * List.length Fault.all_sites);
  (* Repeated probes of one key draw afresh, so a retry can succeed. *)
  let repeated =
    with_fault_plan ~rates ~seed (fun () ->
        List.init 64 (fun _ -> Fault.probe Fault.Store_read ~key:"k0" <> None))
  in
  Alcotest.(check bool) "repeated probes of one key disagree" true
    (List.mem true repeated && List.mem false repeated);
  List.iter
    (fun cut ->
      if cut < 0.0 || cut >= 1.0 then
        Alcotest.failf "draw %g outside [0, 1)" cut)
    (List.filter_map Fun.id fired)

let test_rates_obeyed () =
  let rates r =
    List.map (fun site -> (site, r)) Fault.all_sites
  in
  with_fault_plan ~seed:3 ~rates:(rates 0.0) (fun () ->
      List.iter
        (fun site ->
          if List.exists Fun.id (pattern site 2000) then
            Alcotest.failf "%s fired at rate 0" (Fault.site_name site))
        Fault.all_sites);
  with_fault_plan ~seed:3 ~rates:(rates 1.0) (fun () ->
      List.iter
        (fun site ->
          if not (List.for_all Fun.id (pattern site 2000)) then
            Alcotest.failf "%s skipped at rate 1" (Fault.site_name site))
        Fault.all_sites);
  with_fault_plan ~seed:3 ~rates:(rates 0.2) (fun () ->
      List.iter
        (fun site ->
          let n = 20_000 in
          let fired =
            List.length (List.filter Fun.id (pattern site n))
          in
          let frac = float_of_int fired /. float_of_int n in
          if Float.abs (frac -. 0.2) > 0.02 then
            Alcotest.failf "%s fired at %.3f, wanted ~0.2"
              (Fault.site_name site) frac)
        Fault.all_sites)

let test_counters_track_fires () =
  with_fault_plan ~seed:17 (fun () ->
      let fired =
        List.map
          (fun site ->
            (site, List.length (List.filter Fun.id (pattern site 3000))))
          Fault.all_sites
      in
      List.iter
        (fun (site, n) ->
          Alcotest.(check int) (Fault.site_name site) n (Fault.injected site))
        fired;
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 fired in
      Alcotest.(check int) "total is the sum" total (Fault.total_injected ());
      let counts = Fault.counts () in
      List.iter
        (fun (site, n) ->
          Alcotest.(check (option int))
            (Fault.site_name site)
            (Some n)
            (List.assoc_opt site counts))
        fired;
      Alcotest.(check bool) "defaults are nonzero for every site" true
        (List.for_all (fun s -> Fault.default_rate s > 0.0) Fault.all_sites))

let test_reconfigure_resets_counters () =
  with_fault_plan ~seed:21 (fun () ->
      ignore (pattern Fault.Store_read 1000 : bool list);
      Fault.configure ~seed:22 ();
      Alcotest.(check int) "counters reset on reconfigure" 0
        (Fault.total_injected ()))

let () =
  Alcotest.run "mm_fault"
    [
      ( "fault",
        [
          Alcotest.test_case "site names distinct" `Quick
            test_site_names_distinct;
          Alcotest.test_case "disabled never fires" `Quick
            test_disabled_never_fires;
          Alcotest.test_case "configure enables and seeds" `Quick
            test_configure_enables_and_seeds;
          Alcotest.test_case "plan deterministic per seed" `Quick
            test_plan_deterministic_per_seed;
          Alcotest.test_case "decisions are order-independent" `Quick
            test_decisions_order_independent;
          Alcotest.test_case "rates obeyed" `Quick test_rates_obeyed;
          Alcotest.test_case "counters track fires" `Quick
            test_counters_track_fires;
          Alcotest.test_case "reconfigure resets counters" `Quick
            test_reconfigure_resets_counters;
        ] );
    ]
