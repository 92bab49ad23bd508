(* Tests for lib/serve: arrival processes, dispatch policies, the
   discrete-event loop, the sweep codec, and the end-to-end claim the
   subsystem exists for — the region allocator hits the latency cliff at
   lower offered load than default on 8 Xeon cores. *)

module Rng = Mm_stats.Rng
module Arrival = Mm_serve.Arrival
module Dispatch = Mm_serve.Dispatch
module Contention = Mm_serve.Contention
module Sim = Mm_serve.Sim
module Sweep = Mm_serve.Sweep
module Ctx = Mm_experiments.Context
module Lat = Mm_experiments.Exp_latency
module Factory = Mm_runtime.Alloc_factory
module Machine = Mm_cachesim.Machine
module Spec = Mm_workload.Spec

(* --- Arrival --- *)

let test_arrival_nondecreasing () =
  List.iter
    (fun kind ->
      let t = Arrival.unit_times kind (Rng.create ~seed:7) 5000 in
      Alcotest.(check int) "length" 5000 (Array.length t);
      for i = 1 to Array.length t - 1 do
        if t.(i) < t.(i - 1) then
          Alcotest.failf "%s: decreasing at %d" (Arrival.name kind) i
      done;
      if t.(0) < 0.0 then Alcotest.fail "negative timestamp")
    Arrival.all

let test_arrival_unit_mean_rate () =
  (* n arrivals at unit mean rate span ~n time units — for the MMPP too,
     whose stationary rate is normalized to 1. *)
  List.iter
    (fun kind ->
      let n = 40_000 in
      let t = Arrival.unit_times kind (Rng.create ~seed:11) n in
      let rate = float_of_int n /. t.(n - 1) in
      if Float.abs (rate -. 1.0) > 0.08 then
        Alcotest.failf "%s: mean rate %.3f not ~1" (Arrival.name kind) rate)
    Arrival.all

let test_arrival_deterministic () =
  List.iter
    (fun kind ->
      let a = Arrival.unit_times kind (Rng.create ~seed:3) 1000 in
      let b = Arrival.unit_times kind (Rng.create ~seed:3) 1000 in
      Alcotest.(check bool) "same sequence" true (a = b))
    Arrival.all

let test_arrival_prefix_stable () =
  List.iter
    (fun kind ->
      let long = Arrival.unit_times kind (Rng.create ~seed:5) 1000 in
      let short = Arrival.unit_times kind (Rng.create ~seed:5) 100 in
      Alcotest.(check bool) "prefix" true
        (Array.sub long 0 100 = short))
    Arrival.all

let test_arrival_bursty_is_burstier () =
  (* Squared coefficient of variation of interarrival gaps: 1 for
     Poisson, above 1 for the MMPP. *)
  let scv kind =
    let n = 40_000 in
    let t = Arrival.unit_times kind (Rng.create ~seed:13) n in
    let s = Mm_stats.Summary.create () in
    for i = 1 to n - 1 do
      Mm_stats.Summary.add s (t.(i) -. t.(i - 1))
    done;
    let m = Mm_stats.Summary.mean s in
    Mm_stats.Summary.variance s /. (m *. m)
  in
  let poisson = scv Arrival.Poisson and bursty = scv Arrival.Bursty in
  Alcotest.(check bool)
    (Printf.sprintf "bursty scv %.2f > poisson scv %.2f +20%%" bursty poisson)
    true
    (bursty > poisson *. 1.2)

let test_arrival_names_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check bool) "roundtrip" true
        (Arrival.of_name (Arrival.name k) = Some k))
    Arrival.all;
  Alcotest.(check bool) "unknown" true (Arrival.of_name "weibull" = None)

(* --- Dispatch --- *)

let test_dispatch_round_robin_cycles () =
  let d = Dispatch.create Dispatch.Round_robin ~cores:3 in
  let picks =
    List.init 7 (fun _ -> Dispatch.pick d ~loads:[| 0; 0; 0 |] ~flow:0)
  in
  Alcotest.(check (list int)) "cycle" [ 0; 1; 2; 0; 1; 2; 0 ] picks

let test_dispatch_least_loaded () =
  let d = Dispatch.create Dispatch.Least_loaded ~cores:4 in
  let loads = [| 3; 1; 0; 2 |] in
  Alcotest.(check int) "min load" 2
    (Dispatch.pick d ~loads ~flow:0);
  (* Ties break to the lowest index. *)
  let flat = [| 1; 1; 1; 1 |] in
  Alcotest.(check int) "tie to lowest" 0
    (Dispatch.pick d ~loads:flat ~flow:0)

let test_dispatch_affinity () =
  let d = Dispatch.create Dispatch.Affinity ~cores:4 in
  List.iter
    (fun flow ->
      Alcotest.(check int)
        (Printf.sprintf "flow %d" flow)
        (flow mod 4)
        (Dispatch.pick d ~loads:[| 0; 0; 0; 0 |] ~flow))
    [ 0; 1; 5; 11 ]

(* [pick] reads [loads] unchecked, so a short array must be rejected up
   front, by every policy. *)
let test_dispatch_short_loads () =
  List.iter
    (fun policy ->
      let d = Dispatch.create policy ~cores:4 in
      Alcotest.check_raises (Dispatch.name policy)
        (Invalid_argument "Dispatch.pick: loads shorter than the core count")
        (fun () -> ignore (Dispatch.pick d ~loads:[| 0; 0; 0 |] ~flow:5 : int)))
    Dispatch.all;
  (* A longer array is fine: only the first [cores] entries are read. *)
  let d = Dispatch.create Dispatch.Least_loaded ~cores:2 in
  Alcotest.(check int) "longer loads" 1
    (Dispatch.pick d ~loads:[| 2; 1; 0 |] ~flow:0)

let test_dispatch_names_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "roundtrip" true
        (Dispatch.of_name (Dispatch.name p) = Some p))
    Dispatch.all

(* --- Sim --- *)

let flat_service cores s = Array.make cores s

let cfg ?(cores = 1) ?(arrival = Arrival.Poisson)
    ?(dispatch = Dispatch.Round_robin) ?(rate = 50.0) ?(requests = 2000)
    ?(warmup_frac = 0.1) ?(seed = 42) () =
  { Sim.cores; arrival; dispatch; rate; requests; warmup_frac; seed }

let test_sim_validation () =
  let raises c service =
    match Sim.run c ~service with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let service = flat_service 1 0.01 in
  Alcotest.(check bool) "rate 0" true (raises (cfg ~rate:0.0 ()) service);
  Alcotest.(check bool) "cores 0" true (raises (cfg ~cores:0 ()) service);
  Alcotest.(check bool) "requests 0" true
    (raises (cfg ~requests:0 ()) service);
  Alcotest.(check bool) "warmup 1.0" true
    (raises (cfg ~warmup_frac:1.0 ()) service);
  Alcotest.(check bool) "short table" true
    (raises (cfg ~cores:2 ()) service);
  Alcotest.(check bool) "negative service" true
    (raises (cfg ()) (flat_service 1 (-0.01)))

let test_sim_accounting () =
  let c = cfg ~requests:1000 ~warmup_frac:0.1 () in
  let o = Sim.run c ~service:(flat_service 1 0.01) in
  Alcotest.(check int) "measured excludes warmup" 900 o.Sim.measured;
  Alcotest.(check int) "histogram count" 900
    (Mm_stats.Histogram.count o.Sim.hist);
  Alcotest.(check bool) "achieved positive" true (o.Sim.achieved_rps > 0.0);
  Alcotest.(check bool) "utilization in (0, 1]" true
    (o.Sim.utilization > 0.0 && o.Sim.utilization <= 1.0 +. 1e-9);
  Alcotest.(check bool) "outstanding >= 1" true (o.Sim.max_outstanding >= 1)

let test_sim_deterministic () =
  let run () =
    Sweep.point_of_outcome
      (Sim.run
         (cfg ~cores:4 ~dispatch:Dispatch.Least_loaded ~rate:300.0 ())
         ~service:(flat_service 4 0.01))
  in
  Alcotest.(check bool) "identical points" true (run () = run ())

let test_sim_saturation_boundaries () =
  (* One core, 10 ms flat service: capacity is 100 req/s exactly. *)
  let service = flat_service 1 0.01 in
  let at rate =
    (Sim.run (cfg ~rate ~requests:4000 ()) ~service).Sim.saturated
  in
  Alcotest.(check bool) "well below capacity" false (at 50.0);
  Alcotest.(check bool) "well above capacity" true (at 200.0)

let test_sim_p99_monotone_in_load () =
  (* Single FIFO queue, flat service: compressing the same arrival
     sequence can only increase every sojourn, so p99 is nondecreasing
     in the offered rate. *)
  List.iter
    (fun arrival ->
      let service = flat_service 1 0.01 in
      let rates = [ 30.0; 50.0; 70.0; 85.0; 95.0 ] in
      let points =
        Sweep.run (cfg ~arrival ~requests:3000 ()) ~service ~rates
      in
      let p99s = List.map (fun p -> p.Sweep.p99) points in
      let rec check_mono = function
        | a :: (b :: _ as rest) ->
          if a > b +. 1e-12 then
            Alcotest.failf "%s: p99 fell from %g to %g"
              (Arrival.name arrival) a b;
          check_mono rest
        | _ -> ()
      in
      check_mono p99s)
    Arrival.all

let test_sim_contention_hurts () =
  (* A table that inflates with concurrency yields higher p99 at high
     load than a flat table with the same single-core service time. *)
  let flat = flat_service 4 0.01 in
  let inflating = [| 0.01; 0.012; 0.016; 0.024 |] in
  let run service rate =
    (Sweep.point_of_outcome
       (Sim.run
          (cfg ~cores:4 ~dispatch:Dispatch.Least_loaded ~rate ~requests:3000 ())
          ~service))
      .Sweep.p99
  in
  let rate = 300.0 in
  Alcotest.(check bool) "contention raises p99" true
    (run inflating rate > run flat rate)

(* --- Sweep codec --- *)

let gen_point =
  QCheck.Gen.(
    let pos = float_range 1e-9 1e6 in
    let* rate = pos in
    let* p50 = pos in
    let* p90 = pos in
    let* p99 = pos in
    let* p999 = pos in
    let* lat_max = pos in
    let* achieved_rps = pos in
    let* goodput_rps = pos in
    let* utilization = float_range 0.0 1.0 in
    let* measured = int_range 0 1_000_000 in
    let* saturated = bool in
    let* shed_rate = float_range 0.0 1.0 in
    let* timeout_rate = float_range 0.0 1.0 in
    let* amplification = float_range 1.0 100.0 in
    let* failed = int_range 0 1_000_000 in
    return
      {
        Sweep.rate;
        p50;
        p90;
        p99;
        p999;
        lat_max;
        achieved_rps;
        goodput_rps;
        utilization;
        measured;
        saturated;
        shed_rate;
        timeout_rate;
        amplification;
        failed;
      })

let prop_sweep_codec_roundtrip =
  QCheck.Test.make ~name:"sweep codec: decode (encode pts) = pts"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 20) gen_point))
    (fun points ->
      match Sweep.points_of_string (Sweep.points_to_string points) with
      | Ok decoded -> decoded = points
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let test_sweep_codec_rejects_garbage () =
  List.iter
    (fun s ->
      match Sweep.points_of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [
      "";
      "mmstudy.serve 999\npoints 0";
      "mmstudy.serve 1\npoints 2\npoint rate=0x1p0";
      "mmstudy.serve 1\npoints x";
      "not a sweep at all";
      (let good =
         Sweep.points_to_string
           [
             {
               Sweep.rate = 1.0;
               p50 = 1.0;
               p90 = 1.0;
               p99 = 1.0;
               p999 = 1.0;
               lat_max = 1.0;
               achieved_rps = 1.0;
               goodput_rps = 1.0;
               utilization = 0.5;
               measured = 10;
               saturated = false;
               shed_rate = 0.0;
               timeout_rate = 0.0;
               amplification = 1.0;
               failed = 0;
             };
           ]
       in
       String.sub good 0 (String.length good - 4));
    ]

let test_sweep_max_sustainable () =
  let mk rate saturated =
    {
      Sweep.rate;
      p50 = 0.0;
      p90 = 0.0;
      p99 = 0.0;
      p999 = 0.0;
      lat_max = 0.0;
      achieved_rps = rate;
      goodput_rps = rate;
      utilization = 0.5;
      measured = 1;
      saturated;
      shed_rate = 0.0;
      timeout_rate = 0.0;
      amplification = 1.0;
      failed = 0;
    }
  in
  Alcotest.(check (option (float 1e-9)))
    "highest unsaturated" (Some 80.0)
    (Sweep.max_sustainable [ mk 50.0 false; mk 80.0 false; mk 100.0 true ]);
  Alcotest.(check (option (float 1e-9)))
    "all saturated" None
    (Sweep.max_sustainable [ mk 50.0 true; mk 100.0 true ]);
  Alcotest.(check (option (float 1e-9))) "empty" None (Sweep.max_sustainable [])

(* --- Policy --- *)

module Policy = Mm_serve.Policy

let test_policy_none_is_degenerate () =
  (* Explicit Policy.none equals the default: same histogram, and every
     resilience counter sits at its vacuous value. *)
  let c = cfg ~requests:1500 () in
  let service = flat_service 1 0.01 in
  let a = Sim.run c ~service in
  let b = Sim.run ~policy:Policy.none c ~service in
  Alcotest.(check bool) "same points" true
    (Sweep.point_of_outcome a = Sweep.point_of_outcome b);
  Alcotest.(check int) "attempts = requests" c.Sim.requests b.Sim.attempts;
  Alcotest.(check int) "ok = completions" b.Sim.completions b.Sim.ok;
  Alcotest.(check int) "no timeouts" 0 b.Sim.timeouts;
  Alcotest.(check int) "no sheds" 0 b.Sim.sheds;
  Alcotest.(check int) "no give-ups" 0 b.Sim.give_ups;
  Alcotest.(check (float 1e-12)) "amplification 1" 1.0
    b.Sim.retry_amplification

let test_policy_validate () =
  let raises p =
    match Policy.validate p with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "none valid" false (raises Policy.none);
  Alcotest.(check bool) "negative deadline" true
    (raises { Policy.none with Policy.deadline = Some (-1.0) });
  Alcotest.(check bool) "negative retries" true
    (raises { Policy.none with Policy.max_retries = -1 });
  Alcotest.(check bool) "jitter > 1" true
    (raises { Policy.none with Policy.jitter = 1.5 });
  Alcotest.(check bool) "cap below base" true
    (raises { Policy.none with Policy.backoff_cap = 1e-9 });
  Alcotest.(check bool) "queue limit 0" true
    (raises { Policy.none with Policy.admission = Policy.Queue_limit 0 })

let test_admission_names_roundtrip () =
  List.iter
    (fun adm ->
      Alcotest.(check bool)
        (Policy.admission_name adm)
        true
        (Policy.admission_of_name (Policy.admission_name adm) = Ok adm))
    [ Policy.Always; Policy.Queue_limit 1; Policy.Queue_limit 64;
      Policy.Deadline_aware ];
  List.iter
    (fun s ->
      Alcotest.(check bool) s true
        (Result.is_error (Policy.admission_of_name s)))
    [ "sometimes"; "queue:"; "queue:0"; "queue:-3"; "queue:x"; "" ]

(* One slow core at twice its capacity: a tight deadline must produce
   timeouts, and with no retries every timeout is a lost original. *)
let overload_cfg = cfg ~rate:200.0 ~requests:1500 ()

let overload_service = flat_service 1 0.01

let test_timeouts_and_give_ups () =
  let policy = Policy.make ~deadline:0.05 () in
  let o = Sim.run ~policy overload_cfg ~service:overload_service in
  Alcotest.(check bool) "timeouts happened" true (o.Sim.timeouts > 0);
  Alcotest.(check bool) "give-ups happened" true (o.Sim.give_ups > 0);
  Alcotest.(check int) "every original accounted" overload_cfg.Sim.requests
    (o.Sim.ok + o.Sim.give_ups);
  Alcotest.(check bool) "goodput below raw throughput" true
    (o.Sim.goodput_rps < o.Sim.achieved_rps);
  Alcotest.(check (float 1e-12)) "no retries: amplification 1" 1.0
    o.Sim.retry_amplification

let test_retries_amplify () =
  let no_retry = Policy.make ~deadline:0.05 () in
  let retry = Policy.make ~deadline:0.05 ~max_retries:3 () in
  let a = Sim.run ~policy:no_retry overload_cfg ~service:overload_service in
  let b = Sim.run ~policy:retry overload_cfg ~service:overload_service in
  Alcotest.(check bool) "retries add attempts" true
    (b.Sim.attempts > overload_cfg.Sim.requests);
  Alcotest.(check bool) "amplification > 1" true
    (b.Sim.retry_amplification > 1.0);
  Alcotest.(check bool) "retry storm lowers goodput" true
    (b.Sim.goodput_rps < a.Sim.goodput_rps *. 1.05);
  Alcotest.(check int) "every original accounted" overload_cfg.Sim.requests
    (b.Sim.ok + b.Sim.give_ups)

let test_queue_limit_sheds_and_bounds () =
  let policy =
    Policy.make ~deadline:0.05 ~max_retries:1
      ~admission:(Policy.Queue_limit 2) ()
  in
  let o = Sim.run ~policy overload_cfg ~service:overload_service in
  Alcotest.(check bool) "sheds happened" true (o.Sim.sheds > 0);
  Alcotest.(check bool)
    (Printf.sprintf "outstanding bounded by limit (got %d)"
       o.Sim.max_outstanding)
    true
    (o.Sim.max_outstanding <= 2);
  Alcotest.(check int) "every original accounted" overload_cfg.Sim.requests
    (o.Sim.ok + o.Sim.give_ups)

let test_deadline_admission_sheds_doomed_work () =
  let tight d adm =
    Sim.run
      ~policy:(Policy.make ~deadline:d ~admission:adm ())
      overload_cfg ~service:overload_service
  in
  let shed = tight 0.05 Policy.Deadline_aware in
  let blind = tight 0.05 Policy.Always in
  Alcotest.(check bool) "deadline admission sheds" true (shed.Sim.sheds > 0);
  (* Shedding doomed arrivals cannot reduce timely completions. *)
  Alcotest.(check bool) "goodput no worse than admit-all" true
    (shed.Sim.goodput_rps >= blind.Sim.goodput_rps *. 0.95)

let test_policy_deterministic () =
  let policy = Policy.make ~deadline:0.05 ~max_retries:3 ~jitter:0.5 () in
  let run () =
    Sweep.point_of_outcome
      (Sim.run ~policy overload_cfg ~service:overload_service)
  in
  Alcotest.(check bool) "identical points" true (run () = run ())

let test_collapse_helpers () =
  let mk rate goodput =
    {
      Sweep.rate;
      p50 = 0.0;
      p90 = 0.0;
      p99 = 0.0;
      p999 = 0.0;
      lat_max = 0.0;
      achieved_rps = rate;
      goodput_rps = goodput;
      utilization = 0.5;
      measured = 1;
      saturated = false;
      shed_rate = 0.0;
      timeout_rate = 0.0;
      amplification = 1.0;
      failed = 0;
    }
  in
  Alcotest.(check bool) "keeping up" false (Sweep.collapsed (mk 100.0 99.0));
  Alcotest.(check bool) "collapsed" true (Sweep.collapsed (mk 100.0 49.0));
  Alcotest.(check (option (float 1e-9)))
    "onset is the lowest collapsed rate" (Some 80.0)
    (Sweep.collapse_rate [ mk 50.0 49.0; mk 80.0 20.0; mk 100.0 30.0 ]);
  Alcotest.(check (option (float 1e-9)))
    "no collapse" None
    (Sweep.collapse_rate [ mk 50.0 49.0; mk 100.0 90.0 ]);
  Alcotest.(check (option (float 1e-9))) "empty" None (Sweep.collapse_rate [])

(* --- Reference model ---

   The simulator's event loop as it stood before originals, timeouts and
   retries got their own event sources: every event, all [requests]
   originals included, goes through one binary heap on (time, push
   sequence).  Slow but obviously ordered; [Sim.run] must agree with it
   on every outcome field. *)

module Reference = struct
  module Histogram = Mm_stats.Histogram

  type req_state = Queued | Serving | Done | Abandoned

  type attempt = {
    a_orig : int;  (** index of the original request *)
    a_try : int;  (** 0 = original, k = k-th retry *)
    a_arrival : float;
    mutable a_state : req_state;
    mutable a_timed_out : bool;
  }

  type event = Arrive of attempt | Timeout of attempt

  (* Binary min-heap on (time, push sequence): equal-time events pop in
     push order, which keeps the event order — and therefore the run — a
     pure function of the configuration. *)
  module Heap = struct
    type t = {
      mutable times : float array;
      mutable seqs : int array;
      mutable evs : event array;
      mutable len : int;
    }

    let dummy = Arrive { a_orig = -1; a_try = 0; a_arrival = 0.0; a_state = Done; a_timed_out = false }

    let create cap =
      let cap = Stdlib.max 16 cap in
      { times = Array.make cap 0.0; seqs = Array.make cap 0; evs = Array.make cap dummy; len = 0 }

    let before h i j =
      h.times.(i) < h.times.(j)
      || (h.times.(i) = h.times.(j) && h.seqs.(i) < h.seqs.(j))

    let swap h i j =
      let t = h.times.(i) in h.times.(i) <- h.times.(j); h.times.(j) <- t;
      let s = h.seqs.(i) in h.seqs.(i) <- h.seqs.(j); h.seqs.(j) <- s;
      let e = h.evs.(i) in h.evs.(i) <- h.evs.(j); h.evs.(j) <- e

    let push h time seq ev =
      if h.len = Array.length h.times then begin
        let grow a fill = Array.append a (Array.make (Array.length a) fill) in
        h.times <- grow h.times 0.0;
        h.seqs <- grow h.seqs 0;
        h.evs <- grow h.evs dummy
      end;
      let i = ref h.len in
      h.times.(!i) <- time;
      h.seqs.(!i) <- seq;
      h.evs.(!i) <- ev;
      h.len <- h.len + 1;
      while !i > 0 && before h !i ((!i - 1) / 2) do
        swap h !i ((!i - 1) / 2);
        i := (!i - 1) / 2
      done

    let min_time h = if h.len = 0 then None else Some h.times.(0)

    let pop h =
      assert (h.len > 0);
      let ev = h.evs.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.times.(0) <- h.times.(h.len);
        h.seqs.(0) <- h.seqs.(h.len);
        h.evs.(0) <- h.evs.(h.len);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < h.len && before h l !smallest then smallest := l;
          if r < h.len && before h r !smallest then smallest := r;
          if !smallest <> !i then begin
            swap h !i !smallest;
            i := !smallest
          end
          else continue := false
        done
      end;
      ev
  end

  let run ?(policy = Policy.none) (cfg : Sim.config) ~service =
    let n = cfg.Sim.requests in
    let cores = cfg.Sim.cores in
    (* All randomness up front, one split stream per purpose, so the event
       loop below is pure bookkeeping and a sweep's streams do not
       interleave differently as the rate changes.  The retry stream is
       split last: with [Policy.none] it is never drawn and the first three
       streams are bit-identical to the pre-policy simulator's. *)
    let root = Rng.create ~seed:cfg.Sim.seed in
    let arr_rng = Rng.split root in
    let svc_rng = Rng.split root in
    let flow_rng = Rng.split root in
    let retry_rng = Rng.split root in
    let unit = Arrival.unit_times cfg.Sim.arrival arr_rng n in
    let arrivals = Array.map (fun t -> t /. cfg.Sim.rate) unit in
    let mult = Array.init n (fun _ -> Rng.exponential svc_rng ~mean:1.0) in
    let flow = Array.init n (fun _ -> Rng.int flow_rng ~bound:(8 * cores)) in
    let warmup = int_of_float (cfg.Sim.warmup_frac *. float_of_int n) in

    let queues : attempt Queue.t array = Array.init cores (fun _ -> Queue.create ()) in
    let busy : attempt option array = Array.make cores None in
    let busy_done = Array.make cores infinity in
    let busy_count = ref 0 in
    let busy_seconds = ref 0.0 in
    let dispatcher = Dispatch.create cfg.Sim.dispatch ~cores in
    let load c =
      Queue.length queues.(c) + (match busy.(c) with Some _ -> 1 | None -> 0)
    in

    let hist = Histogram.create () in
    let measured = ref 0 in
    let outstanding = ref 0 in
    let max_outstanding = ref 0 in
    let attempts = ref 0 in
    let completions = ref 0 in
    let ok = ref 0 in
    let timeouts = ref 0 in
    let sheds = ref 0 in
    let give_ups = ref 0 in
    let last_completion = ref 0.0 in

    (* An original is resolved by its first successful completion or by
       exhausting its retries; the run ends when every original is resolved
       and the servers have drained the leftover (zombie) work. *)
    let resolved = ref 0 in
    let orig_done = Array.make n false in
    let resolve_orig i =
      if not orig_done.(i) then begin
        orig_done.(i) <- true;
        incr resolved
      end
    in

    let heap = Heap.create (2 * n) in
    let seq = ref 0 in
    let push time ev =
      Heap.push heap time !seq ev;
      incr seq
    in
    Array.iteri
      (fun i t ->
        push t
          (Arrive { a_orig = i; a_try = 0; a_arrival = t; a_state = Queued; a_timed_out = false }))
      arrivals;

    let backoff k =
      (* Capped exponential: base, 2*base, 4*base, ... up to cap, scaled by
         a deterministic jitter draw from [1 - jitter, 1]. *)
      let b =
        Float.min policy.Policy.backoff_cap
          (policy.Policy.backoff_base *. (2.0 ** float_of_int (k - 1)))
      in
      let j = policy.Policy.jitter in
      if j <= 0.0 then b else b *. (1.0 -. j +. (j *. Rng.float retry_rng))
    in
    let retry_or_give_up (a : attempt) ~now =
      if a.a_try < policy.Policy.max_retries then begin
        let t = now +. backoff (a.a_try + 1) in
        push t
          (Arrive
             { a_orig = a.a_orig; a_try = a.a_try + 1; a_arrival = t;
               a_state = Queued; a_timed_out = false })
      end
      else begin
        incr give_ups;
        resolve_orig a.a_orig
      end
    in

    let start_service core (a : attempt) now =
      incr busy_count;
      let k = Stdlib.min !busy_count (Array.length service) in
      let dur = service.(k - 1) *. mult.(a.a_orig) in
      a.a_state <- Serving;
      busy.(core) <- Some a;
      busy_done.(core) <- now +. dur;
      busy_seconds := !busy_seconds +. dur
    in
    (* Dequeue the next live attempt, discarding ones abandoned by their
       timeout while they waited. *)
    let rec next_live core =
      match Queue.take_opt queues.(core) with
      | None -> None
      | Some a ->
        if a.a_state = Abandoned then begin
          decr outstanding;
          next_live core
        end
        else Some a
    in

    let handle_arrival (a : attempt) now =
      incr attempts;
      let core =
        Dispatch.pick dispatcher ~loads:(Array.init cores load) ~flow:flow.(a.a_orig)
      in
      let admitted =
        match policy.Policy.admission with
        | Policy.Always -> true
        | Policy.Queue_limit l -> load core < l
        | Policy.Deadline_aware -> (
          match policy.Policy.deadline with
          | None -> true
          | Some d ->
            (* Predicted wait from the chosen core's backlog at current
               contention; pessimistic admission sheds work that would
               only time out in the queue. *)
            let k = Stdlib.min (!busy_count + 1) (Array.length service) in
            float_of_int (load core) *. service.(k - 1) <= d)
      in
      if not admitted then begin
        incr sheds;
        retry_or_give_up a ~now
      end
      else begin
        incr outstanding;
        if !outstanding > !max_outstanding then max_outstanding := !outstanding;
        (match policy.Policy.deadline with
        | Some d -> push (now +. d) (Timeout a)
        | None -> ());
        match busy.(core) with
        | None -> start_service core a now
        | Some _ -> Queue.push a queues.(core)
      end
    in

    let handle_timeout (a : attempt) now =
      match a.a_state with
      | Done | Abandoned -> ()
      | Queued ->
        (* Client walks away; the slot is discarded when the core reaches
           it, so the abandoned request wastes queue space but no CPU. *)
        a.a_state <- Abandoned;
        a.a_timed_out <- true;
        incr timeouts;
        retry_or_give_up a ~now
      | Serving ->
        (* Too late to shed: the server finishes the request anyway and
           the work is wasted — the essence of metastable overload. *)
        a.a_timed_out <- true;
        incr timeouts;
        retry_or_give_up a ~now
    in

    let handle_departure core dep_t =
      let a = match busy.(core) with Some a -> a | None -> assert false in
      a.a_state <- Done;
      incr completions;
      decr outstanding;
      last_completion := dep_t;
      busy.(core) <- None;
      busy_done.(core) <- infinity;
      decr busy_count;
      if not a.a_timed_out then begin
        incr ok;
        resolve_orig a.a_orig;
        if a.a_orig >= warmup then begin
          Histogram.add hist (Float.max 0.0 (dep_t -. a.a_arrival));
          incr measured
        end
      end;
      match next_live core with
      | Some b -> start_service core b dep_t
      | None -> ()
    in

    while !resolved < n || !busy_count > 0 do
      (* Next departure: linear scan — at most [cores] candidates, ties to
         the lowest core index so event order is deterministic. *)
      let dep_core = ref (-1) in
      for c = 0 to cores - 1 do
        if
          busy.(c) <> None
          && (!dep_core < 0 || busy_done.(c) < busy_done.(!dep_core))
        then dep_core := c
      done;
      let dep_t = if !dep_core >= 0 then busy_done.(!dep_core) else infinity in
      let ev_t = match Heap.min_time heap with Some t -> t | None -> infinity in
      if dep_t <= ev_t then
        (* Departure first on a tie: the freed core is visible to the
           arrival dispatched at the same instant. *)
        handle_departure !dep_core dep_t
      else
        match Heap.pop heap with
        | Arrive a -> handle_arrival a ev_t
        | Timeout a -> handle_timeout a ev_t
    done;
    let horizon = arrivals.(n - 1) in
    let makespan = Float.max !last_completion epsilon_float in
    (* Saturation = the backlog outlived the arrivals by more than drain
       slack: 5% of the horizon, but never less than a handful of all-busy
       service times, so short sweeps are not flagged for the ordinary
       tail-draining every finite run ends with. *)
    let slack = Float.max (0.05 *. horizon) (10.0 *. service.(cores - 1)) in
    {
      Sim.o_config = cfg;
      o_policy = policy;
      hist;
      measured = !measured;
      achieved_rps = float_of_int !completions /. makespan;
      utilization = !busy_seconds /. (float_of_int cores *. makespan);
      saturated = makespan > horizon +. slack;
      max_outstanding = !max_outstanding;
      attempts = !attempts;
      completions = !completions;
      ok = !ok;
      timeouts = !timeouts;
      sheds = !sheds;
      give_ups = !give_ups;
      goodput_rps = float_of_int !ok /. makespan;
      retry_amplification = float_of_int !attempts /. float_of_int n;
    }
end

module Hist = Mm_stats.Histogram

(* Outcome fields that differ between [a] and [b], by name; [hist] is
   compared by count, min, max and the reported quantiles. *)
let outcome_diffs (a : Sim.outcome) (b : Sim.outcome) =
  let int_f name f = if f a <> f b then [ Printf.sprintf "%s %d <> %d" name (f a) (f b) ] else [] in
  let float_f name f =
    if Float.equal (f a) (f b) then []
    else [ Printf.sprintf "%s %h <> %h" name (f a) (f b) ]
  in
  let q p (o : Sim.outcome) = Hist.quantile o.Sim.hist p in
  List.concat
    [
      int_f "measured" (fun o -> o.Sim.measured);
      float_f "achieved_rps" (fun o -> o.Sim.achieved_rps);
      float_f "utilization" (fun o -> o.Sim.utilization);
      (if a.Sim.saturated <> b.Sim.saturated then [ "saturated" ] else []);
      int_f "max_outstanding" (fun o -> o.Sim.max_outstanding);
      int_f "attempts" (fun o -> o.Sim.attempts);
      int_f "completions" (fun o -> o.Sim.completions);
      int_f "ok" (fun o -> o.Sim.ok);
      int_f "timeouts" (fun o -> o.Sim.timeouts);
      int_f "sheds" (fun o -> o.Sim.sheds);
      int_f "give_ups" (fun o -> o.Sim.give_ups);
      float_f "goodput_rps" (fun o -> o.Sim.goodput_rps);
      float_f "retry_amplification" (fun o -> o.Sim.retry_amplification);
      int_f "hist count" (fun o -> Hist.count o.Sim.hist);
      float_f "hist min" (fun o -> Hist.min_recorded o.Sim.hist);
      float_f "hist max" (fun o -> Hist.max_recorded o.Sim.hist);
      float_f "p50" (q 0.5);
      float_f "p90" (q 0.9);
      float_f "p99" (q 0.99);
      float_f "p999" (q 0.999);
      (if a.Sim.o_config <> b.Sim.o_config || a.Sim.o_policy <> b.Sim.o_policy
       then [ "config or policy" ]
       else []);
    ]

(* 10 ms per request at one busy core, inflating with concurrency. *)
let inflating_service cores =
  Array.init cores (fun k -> 0.01 *. (1.0 +. (0.15 *. float_of_int k)))

(* Configurations over every knob the event loop branches on.
   [backoff_base] equals the deadline, so with zero jitter the retry of an
   attempt shed at some instant falls due with the timeout of one admitted
   at that instant, once requests share instants (below).

   Every event time is an offset from its chain's original arrival, and
   the originals arrive at distinct times, so equal-time events need
   offsets below the float resolution of the clock.  Most rates run from
   a third of capacity to three times it; the rest sit at either end of
   that resolution:
   - far below capacity (1e-16..1e-14), where service times and
     deadlines vanish next to the arrival times, so an attempt's
     departure, timeout and retries fall due at its arrival instant;
   - far above it (1e14..1e16), where all requests arrive within a few
     ulps of the deadline, so timeouts and retries of different
     requests land on the same instants. *)
let gen_sim_case =
  QCheck.Gen.(
    let* cores = int_range 1 8 in
    let* dispatch = oneofl Dispatch.all in
    let* arrival = oneofl Arrival.all in
    let* requests = int_range 1 400 in
    let* load =
      frequency
        [ (2, float_range 0.3 3.0);
          (1, map (fun x -> x *. 1e-16) (float_range 1.0 100.0));
          (1, map (fun x -> x *. 1e14) (float_range 1.0 100.0)) ]
    in
    let* seed = int_range 0 10_000 in
    let* deadline_ms = int_range 5 60 in
    let* max_retries = int_range 0 3 in
    let* jitter = oneofl [ 0.0; 0.5 ] in
    let* plain = frequencyl [ (1, true); (3, false) ] in
    let* admission =
      oneofl
        [ Policy.Always; Policy.Queue_limit 1; Policy.Queue_limit 3;
          Policy.Deadline_aware ]
    in
    let service = inflating_service cores in
    let capacity = float_of_int cores /. service.(cores - 1) in
    let deadline = float_of_int deadline_ms /. 1000.0 in
    let policy =
      if plain then Policy.none
      else
        Policy.make ~deadline ~max_retries ~backoff_base:deadline ~jitter ~admission ()
    in
    return
      ( { Sim.cores; arrival; dispatch; rate = load *. capacity; requests;
          warmup_frac = 0.1; seed },
        policy,
        service ))

let print_sim_case ((c : Sim.config), policy, _) =
  Printf.sprintf "cores=%d %s %s rate=%g requests=%d seed=%d policy=%s" c.Sim.cores
    (Arrival.name c.Sim.arrival) (Dispatch.name c.Sim.dispatch) c.Sim.rate
    c.Sim.requests c.Sim.seed (Policy.to_key policy)

let prop_sim_matches_reference =
  QCheck.Test.make ~count:2000 ~name:"Sim.run = heap-everything reference model"
    (QCheck.make ~print:print_sim_case gen_sim_case)
    (fun (c, policy, service) ->
      match outcome_diffs (Sim.run ~policy c ~service) (Reference.run ~policy c ~service) with
      | [] -> true
      | diffs -> QCheck.Test.fail_reportf "%s" (String.concat "; " diffs))

(* [Sweep.run] draws a sweep's arrivals, multipliers and flows once and
   replays them at every rate.  Each rate must still see exactly what a
   lone [Sim.run] sees, its own retry stream included: the reference
   model above runs one rate at a time and cannot tell. *)
let gen_sweep_case =
  QCheck.Gen.(
    let* cores = int_range 1 8 in
    let* dispatch = oneofl Dispatch.all in
    let* arrival = oneofl Arrival.all in
    let* requests = int_range 1 300 in
    let* seed = int_range 0 10_000 in
    let* plain = bool in
    let* loads = list_size (int_range 0 7) (float_range 0.3 3.0) in
    let service = inflating_service cores in
    let capacity = float_of_int cores /. service.(cores - 1) in
    let policy =
      if plain then Policy.none
      else
        Policy.make ~deadline:0.03 ~max_retries:2 ~jitter:0.5
          ~admission:(Policy.Queue_limit 3) ()
    in
    return
      ( { Sim.cores; arrival; dispatch; rate = 1.0; requests; warmup_frac = 0.1; seed },
        policy,
        service,
        List.map (fun l -> l *. capacity) loads ))

let print_sweep_case ((c : Sim.config), policy, service, rates) =
  Printf.sprintf "%s rates=[%s]"
    (print_sim_case (c, policy, service))
    (String.concat "; " (List.map (Printf.sprintf "%g") rates))

let prop_sweep_matches_sim =
  QCheck.Test.make ~count:300 ~name:"Sweep.run = Sim.run per rate"
    (QCheck.make ~print:print_sweep_case gen_sweep_case)
    (fun (c, policy, service, rates) ->
      let swept = Sweep.points_to_string (Sweep.run ~policy c ~service ~rates) in
      let one_by_one =
        Sweep.points_to_string
          (List.map
             (fun rate -> Sweep.point_of_outcome (Sim.run ~policy { c with Sim.rate } ~service))
             rates)
      in
      swept = one_by_one
      || QCheck.Test.fail_reportf "sweep:\n%s\nper rate:\n%s" swept one_by_one)

(* Minor words per attempt of one [Sim.run], after a warm-up run. *)
let words_per_attempt ?policy c ~service =
  ignore (Sim.run ?policy c ~service : Sim.outcome);
  let before = Gc.minor_words () in
  let o = Sim.run ?policy c ~service in
  (Gc.minor_words () -. before) /. float_of_int o.Sim.attempts

(* Minor words per attempt, dev profile: 8 least-loaded cores with
   [inflating_service], plain below capacity and
   resilient at 1.8x capacity, where it sheds, times out and retries.
   Each bound is 1.25x the measured value (5.92 and 3.07).  The event
   loop allocates only the boxed latency each measured completion hands
   to [Histogram.add]; the rest is the boxed deviates of the traffic
   draw.  An attempt record and a [Queue] cell per attempt took 18.48
   and 16.96, the heap-everything loop 31.25 and 29.61.  The next
   departure or next arrival time kept in a [float ref] that a closure
   captures boxes on every write: 8.25 and 7.92 plain. *)
let plain_words_bound = 7.39

let resilient_words_bound = 3.84

let test_sim_allocation () =
  let service = inflating_service 8 in
  let at rate = cfg ~cores:8 ~dispatch:Dispatch.Least_loaded ~rate ~requests:5000 () in
  let check label bound w =
    if w > bound then
      Alcotest.failf "%s: %.2f minor words per attempt, bound %.2f" label w bound
  in
  check "plain" plain_words_bound (words_per_attempt (at 300.0) ~service);
  check "resilient" resilient_words_bound
    (words_per_attempt
       ~policy:
         (Policy.make ~deadline:0.05 ~max_retries:3 ~jitter:0.5
            ~admission:(Policy.Queue_limit 16) ())
       (at 700.0) ~service)

(* --- Contention + end-to-end (engine-backed, small scale) --- *)

(* Scale 0.08, like test_experiments' paper-claim tests: the region
   penalty (and hence its capacity gap) needs the working set to
   overflow the shared caches, which a tiny scale suppresses — the same
   sensitivity fig9's render warns about. *)
let ctx = Ctx.create ~scale:0.08 ()

let machine = Machine.xeon

let spec = Spec.mediawiki_ro

let measurement kind = Ctx.run_php ctx ~machine ~cores:8 ~kind ~spec ()

let test_contention_table_shape () =
  let service =
    Contention.service_seconds ~machine
      ~measurement:(measurement Factory.Php_default)
  in
  Alcotest.(check int) "one entry per core" machine.Machine.cores
    (Array.length service);
  Array.iter
    (fun s ->
      Alcotest.(check bool) "positive finite" true
        (s > 0.0 && Float.is_finite s))
    service;
  for k = 1 to Array.length service - 1 do
    if service.(k) < service.(k - 1) *. 0.999 then
      Alcotest.failf "service time fell at k=%d: %g -> %g" (k + 1)
        service.(k - 1) service.(k)
  done

let test_region_capacity_lower () =
  (* The headline: the region allocator's bus traffic inflates all-busy
     service time, so its saturation throughput is measurably below
     default's and DDmalloc's on 8 Xeon cores. *)
  let cap kind =
    Contention.capacity ~cores:8
      (Contention.service_seconds ~machine ~measurement:(measurement kind))
  in
  let d = cap Factory.Php_default in
  let r = cap Factory.Region in
  let m = cap (Factory.Dd None) in
  Alcotest.(check bool)
    (Printf.sprintf "region capacity (%.0f) < 0.9 x default (%.0f)" r d)
    true
    (r < d *. 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "dd capacity (%.0f) >= default (%.0f) x0.95" m d)
    true
    (m >= d *. 0.95)

let test_region_saturates_first () =
  (* Sweep both allocators on default's rate grid: at 0.9 x default's
     capacity the region allocator is saturated, default is not. *)
  let sweep kind rates =
    Lat.sweep_points ctx ~machine ~spec ~kind ~cores:8
      ~arrival:Arrival.Poisson ~dispatch:Dispatch.Least_loaded ~requests:2000
      ~warmup_frac:0.1 ~rates
  in
  let cap_d =
    Lat.capacity_of ctx ~machine ~spec ~kind:Factory.Php_default ~cores:8
  in
  let rates = [ 0.5 *. cap_d; 0.9 *. cap_d ] in
  let max_rps kind = Sweep.max_sustainable (sweep kind rates) in
  let d = max_rps Factory.Php_default in
  let r = max_rps Factory.Region in
  Alcotest.(check (option (float 1e-6)))
    "default sustains 0.9 x its capacity" (Some (0.9 *. cap_d)) d;
  Alcotest.(check bool) "region saturated by then" true
    (match r with
    | None -> true
    | Some rps -> rps < 0.9 *. cap_d -. 1e-6)

let test_sweep_blob_memoized () =
  (* Same parameters twice: the second call must be served from the
     in-memory blob cache, not recomputed. *)
  let call () =
    Lat.sweep_points ctx ~machine ~spec ~kind:Factory.Php_default ~cores:8
      ~arrival:Arrival.Bursty ~dispatch:Dispatch.Round_robin ~requests:500
      ~warmup_frac:0.1
      ~rates:[ 10.0; 20.0 ]
  in
  let a = call () in
  let computed = Ctx.blob_computed ctx in
  let b = call () in
  Alcotest.(check int) "no recompute" computed (Ctx.blob_computed ctx);
  Alcotest.(check bool) "identical points" true (a = b)

let test_region_collapses_first () =
  (* The resilience experiment's headline, as an assertion: under the
     shared deadline+retry policy, the region allocator's retry-storm
     collapse onset sits strictly below default's and DDmalloc's on the
     shared load grid (8 Xeon cores, MediaWiki read-only). *)
  let module Res = Mm_experiments.Exp_resilience in
  let onset kind =
    Sweep.collapse_rate (Res.sweep ctx ~machine ~kind)
  in
  let r = onset Factory.Region in
  let d = onset Factory.Php_default in
  let m = onset (Factory.Dd None) in
  let region_onset =
    match r with
    | Some r -> r
    | None -> Alcotest.fail "region never collapsed inside the grid"
  in
  let below label = function
    | None -> ()
    | Some other ->
      Alcotest.(check bool)
        (Printf.sprintf "region onset %.0f < %s onset %.0f" region_onset
           label other)
        true
        (region_onset < other -. 1e-9)
  in
  below "default" d;
  below "ddmalloc" m;
  (* At 1.0x default capacity the region allocator is already deep in
     retry amplification while default is not. *)
  let amp_at_cap kind =
    let points = Res.sweep ctx ~machine ~kind in
    let i =
      match List.find_index (fun f -> f = 1.0) Res.fractions with
      | Some i -> i
      | None -> Alcotest.fail "1.0 not in the fraction grid"
    in
    (List.nth points i).Sweep.amplification
  in
  Alcotest.(check bool) "region amplifies at default's capacity" true
    (amp_at_cap Factory.Region > amp_at_cap Factory.Php_default)

let () =
  Alcotest.run "mm_serve"
    [
      ( "arrival",
        [
          Alcotest.test_case "nondecreasing" `Quick test_arrival_nondecreasing;
          Alcotest.test_case "unit mean rate" `Quick
            test_arrival_unit_mean_rate;
          Alcotest.test_case "deterministic" `Quick test_arrival_deterministic;
          Alcotest.test_case "prefix stable" `Quick test_arrival_prefix_stable;
          Alcotest.test_case "bursty is burstier" `Quick
            test_arrival_bursty_is_burstier;
          Alcotest.test_case "names roundtrip" `Quick
            test_arrival_names_roundtrip;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "round robin cycles" `Quick
            test_dispatch_round_robin_cycles;
          Alcotest.test_case "least loaded" `Quick test_dispatch_least_loaded;
          Alcotest.test_case "affinity" `Quick test_dispatch_affinity;
          Alcotest.test_case "names roundtrip" `Quick
            test_dispatch_names_roundtrip;
          Alcotest.test_case "short loads rejected" `Quick
            test_dispatch_short_loads;
        ] );
      ( "sim",
        [
          Alcotest.test_case "validation" `Quick test_sim_validation;
          Alcotest.test_case "accounting" `Quick test_sim_accounting;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
          Alcotest.test_case "saturation boundaries" `Quick
            test_sim_saturation_boundaries;
          Alcotest.test_case "p99 monotone in load" `Quick
            test_sim_p99_monotone_in_load;
          Alcotest.test_case "contention hurts" `Quick
            test_sim_contention_hurts;
        ] );
      ( "sweep",
        [
          QCheck_alcotest.to_alcotest prop_sweep_codec_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_sweep_codec_rejects_garbage;
          Alcotest.test_case "max sustainable" `Quick
            test_sweep_max_sustainable;
        ] );
      ( "policy",
        [
          Alcotest.test_case "none is degenerate" `Quick
            test_policy_none_is_degenerate;
          Alcotest.test_case "validate" `Quick test_policy_validate;
          Alcotest.test_case "admission names roundtrip" `Quick
            test_admission_names_roundtrip;
          Alcotest.test_case "timeouts and give-ups" `Quick
            test_timeouts_and_give_ups;
          Alcotest.test_case "retries amplify" `Quick test_retries_amplify;
          Alcotest.test_case "queue limit sheds and bounds" `Quick
            test_queue_limit_sheds_and_bounds;
          Alcotest.test_case "deadline admission sheds doomed work" `Quick
            test_deadline_admission_sheds_doomed_work;
          Alcotest.test_case "deterministic" `Quick test_policy_deterministic;
          Alcotest.test_case "collapse helpers" `Quick test_collapse_helpers;
        ] );
      ( "reference",
        [
          QCheck_alcotest.to_alcotest prop_sim_matches_reference;
          QCheck_alcotest.to_alcotest prop_sweep_matches_sim;
          Alcotest.test_case "allocation per attempt" `Quick test_sim_allocation;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "contention table shape" `Slow
            test_contention_table_shape;
          Alcotest.test_case "region capacity lower" `Slow
            test_region_capacity_lower;
          Alcotest.test_case "region saturates first" `Slow
            test_region_saturates_first;
          Alcotest.test_case "sweep blob memoized" `Slow
            test_sweep_blob_memoized;
          Alcotest.test_case "region collapses first" `Slow
            test_region_collapses_first;
        ] );
    ]
