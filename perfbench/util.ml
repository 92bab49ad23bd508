(* Measurement plumbing shared by the workloads and the layer probes:
   clocks, order statistics, the metric record, captured stdout, and the
   hand-written JSON that perfbench/run.py parses. *)

(* Monotonic nanoseconds: gettimeofday's microsecond steps are visible in
   the per-key times of a warm pass. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Percentile of an unsorted sample by linear interpolation between the
   two nearest ranks, so a value moves smoothly with the data even where
   the operations of a pass fall into separate clusters; 0 on an empty
   sample. *)
let percentile p xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    Array.sort Float.compare a;
    let h = p /. 100.0 *. float_of_int (n - 1) in
    let i = truncate h in
    let j = Stdlib.min (n - 1) (i + 1) in
    a.(i) +. ((h -. float_of_int i) *. (a.(j) -. a.(i)))
  end

let median xs = percentile 50.0 xs

let sum xs = List.fold_left ( +. ) 0.0 xs

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The highest percentile of the ladder that leaves at least ten samples
   beyond it, for a run that is guaranteed [n] samples.  Deriving it from
   the guaranteed count rather than the actual one keeps the reported
   percentile fixed across runs of one workload. *)
let tail_percentile n =
  let ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ] in
  match
    List.find_opt
      (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
      ladder
  with
  | Some p -> p
  | None -> 50.0

(* --- metrics --------------------------------------------------------- *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;  (** how many observations the value summarises *)
  note : string;
}

let metric ?(samples = 1) ?(note = "") name unit_ value =
  { name; value; unit_; samples; note }

(* A layer's (name, unit) pairs with its values in the same order. *)
let named layer values = List.map2 (fun (n, u) v -> metric n u v) layer values

let zeros layer = named layer (List.map (fun _ -> 0.0) layer)

let print_metric prefix m =
  Printf.printf "%s %-44s %16.6g %-6s n=%d%s\n" prefix m.name m.value m.unit_
    m.samples
    (if m.note = "" then "" else "  (" ^ m.note ^ ")")

(* --- process-level gauges -------------------------------------------- *)

(* VmHWM: the resident-set high-water mark of this process, in MB.  Falls
   back to the OCaml major heap's high-water mark where /proc is absent. *)
let peak_rss_mb () =
  let from_proc =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> None
    | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
          match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
          | kb -> Some (float_of_int kb /. 1024.0)
          | exception _ -> scan ())
      in
      let v = scan () in
      close_in ic;
      v
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. (1024.0 *. 1024.0)

(* --- captured stdout ------------------------------------------------- *)

(* Run [f] with file descriptor 1 redirected to [path] and return its
   value; the experiment renders print straight to stdout, and the
   benchmark digests what a user would have seen. *)
let capture_stdout path f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect f ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)

let md5_file path = Digest.to_hex (Digest.file path)

let md5_string s = Digest.to_hex (Digest.string s)

(* --- scratch directories --------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* --- JSON output ----------------------------------------------------- *)

type json =
  | Str of string
  | Num of float
  | Int of int
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_json b = function
  | Str s -> Printf.bprintf b "\"%s\"" (escape s)
  | Num f when Float.is_finite f -> Printf.bprintf b "%.17g" f
  | Num _ -> Buffer.add_string b "null"
  | Int i -> Printf.bprintf b "%d" i
  | Bool v -> Printf.bprintf b "%b" v
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        to_json b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Printf.bprintf b "\"%s\":" (escape k);
        to_json b v)
      kvs;
    Buffer.add_char b '}'

let json_string j =
  let b = Buffer.create 4096 in
  to_json b j;
  Buffer.contents b

let metrics_json ms =
  Obj
    (List.map
       (fun m ->
         ( m.name,
           Obj [ ("value", Num m.value); ("unit", Str m.unit_); ("samples", Int m.samples) ] ))
       ms)
