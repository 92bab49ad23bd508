module Histogram = Mm_stats.Histogram

type point = {
  rate : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  lat_max : float;
  achieved_rps : float;
  goodput_rps : float;
  utilization : float;
  measured : int;
  saturated : bool;
  shed_rate : float;
  timeout_rate : float;
  amplification : float;
  failed : int;
}

(* v2: resilience metrics (goodput, shed/timeout rates, retry
   amplification, failed originals) joined the point.  v1 payloads read
   as misses and are recomputed. *)
let schema_version = 2

let point_of_outcome (o : Sim.outcome) =
  let q p = Histogram.quantile o.Sim.hist p in
  let per_attempt n = if o.Sim.attempts > 0 then float_of_int n /. float_of_int o.Sim.attempts else 0.0 in
  {
    rate = o.Sim.o_config.Sim.rate;
    p50 = q 0.5;
    p90 = q 0.9;
    p99 = q 0.99;
    p999 = q 0.999;
    lat_max = Histogram.max_recorded o.Sim.hist;
    achieved_rps = o.Sim.achieved_rps;
    goodput_rps = o.Sim.goodput_rps;
    utilization = o.Sim.utilization;
    measured = o.Sim.measured;
    saturated = o.Sim.saturated;
    shed_rate = per_attempt o.Sim.sheds;
    timeout_rate = per_attempt o.Sim.timeouts;
    amplification = o.Sim.retry_amplification;
    failed = o.Sim.give_ups;
  }

let run ?policy cfg ~service ~rates =
  List.map point_of_outcome (Sim.run_rates ?policy cfg ~service ~rates)

let max_sustainable points =
  List.fold_left
    (fun acc p ->
      if p.saturated then acc
      else
        match acc with
        | Some best when best >= p.rate -> acc
        | Some _ | None -> Some p.rate)
    None points

(* A point has collapsed when the system delivers less than half the
   offered load as goodput: past that knee, extra offered load only buys
   retries and wasted work.  The collapse rate is the lowest such offered
   rate — the onset of metastable overload. *)
let collapsed p = p.goodput_rps < 0.5 *. p.rate

let collapse_rate points =
  List.fold_left
    (fun acc p ->
      if collapsed p then
        match acc with
        | Some best when best <= p.rate -> acc
        | Some _ | None -> Some p.rate
      else acc)
    None points

(* --- codec ----------------------------------------------------------- *)

let header = Printf.sprintf "mmstudy.serve %d" schema_version

let point_to_line p =
  Printf.sprintf
    "point rate=%h p50=%h p90=%h p99=%h p999=%h max=%h rps=%h good=%h \
     util=%h measured=%d saturated=%b shed=%h timeout=%h amp=%h failed=%d"
    p.rate p.p50 p.p90 p.p99 p.p999 p.lat_max p.achieved_rps p.goodput_rps
    p.utilization p.measured p.saturated p.shed_rate p.timeout_rate
    p.amplification p.failed

let points_to_string points =
  let b = Buffer.create 256 in
  Buffer.add_string b header;
  Buffer.add_char b '\n';
  Printf.bprintf b "points %d\n" (List.length points);
  List.iter
    (fun p ->
      Buffer.add_string b (point_to_line p);
      Buffer.add_char b '\n')
    points;
  Buffer.contents b

let field fields name of_string =
  match List.assoc_opt name fields with
  | None -> Error (Printf.sprintf "missing field %s" name)
  | Some v -> (
    match of_string v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "bad value for %s: %s" name v))

let ( let* ) r f = Result.bind r f

let point_of_line line =
  match String.split_on_char ' ' line with
  | "point" :: rest ->
    let fields =
      List.filter_map
        (fun part ->
          match String.index_opt part '=' with
          | None -> None
          | Some i ->
            Some
              ( String.sub part 0 i,
                String.sub part (i + 1) (String.length part - i - 1) ))
        rest
    in
    let f name = field fields name float_of_string_opt in
    let* rate = f "rate" in
    let* p50 = f "p50" in
    let* p90 = f "p90" in
    let* p99 = f "p99" in
    let* p999 = f "p999" in
    let* lat_max = f "max" in
    let* achieved_rps = f "rps" in
    let* goodput_rps = f "good" in
    let* utilization = f "util" in
    let* measured = field fields "measured" int_of_string_opt in
    let* saturated = field fields "saturated" bool_of_string_opt in
    let* shed_rate = f "shed" in
    let* timeout_rate = f "timeout" in
    let* amplification = f "amp" in
    let* failed = field fields "failed" int_of_string_opt in
    Ok
      {
        rate;
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
      }
  | _ -> Error (Printf.sprintf "expected a point line, got %S" line)

let points_of_string s =
  match String.split_on_char '\n' s with
  | hd :: rest when hd = header -> (
    let rest = List.filter (fun l -> l <> "") rest in
    match rest with
    | count_line :: point_lines -> (
      match String.split_on_char ' ' count_line with
      | [ "points"; n ] -> (
        match int_of_string_opt n with
        | Some n when n = List.length point_lines ->
          List.fold_left
            (fun acc line ->
              let* acc = acc in
              let* p = point_of_line line in
              Ok (p :: acc))
            (Ok []) point_lines
          |> Result.map List.rev
        | Some _ | None -> Error "point count mismatch")
      | _ -> Error "missing points count")
    | [] -> Error "truncated sweep payload")
  | hd :: _ -> Error (Printf.sprintf "unsupported sweep version: %S" hd)
  | [] -> Error "empty sweep payload"
