(* Fixed-size domain pool: a mutex/condition work queue drained by worker
   domains.  Results come back through per-task promises, so callers get
   submission-order collection for free by awaiting in submission order. *)

type 'a state =
  | Pending
  | Resolved of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a promise = {
  p_mutex : Mutex.t;
  p_cond : Condition.t;
  mutable p_state : 'a state;
}

type t = {
  n_jobs : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closing : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.n_jobs

(* Tasks never raise: [submit] wraps each one to resolve its promise. *)
let worker_loop t =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.closing do
      Condition.wait t.work_available t.mutex
    done;
    match Queue.take_opt t.queue with
    | Some task ->
      Mutex.unlock t.mutex;
      task ();
      loop ()
    | None ->
      (* closing and drained *)
      Mutex.unlock t.mutex
  in
  loop ()

let create ~jobs =
  let n_jobs = Stdlib.max 1 jobs in
  let t =
    {
      n_jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      closing = false;
      workers = [];
    }
  in
  t.workers <- List.init n_jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let resolve p state =
  Mutex.lock p.p_mutex;
  p.p_state <- state;
  Condition.broadcast p.p_cond;
  Mutex.unlock p.p_mutex

let submit t f =
  let p = { p_mutex = Mutex.create (); p_cond = Condition.create (); p_state = Pending } in
  let task () =
    match f () with
    | v -> resolve p (Resolved v)
    | exception e -> resolve p (Failed (e, Printexc.get_raw_backtrace ()))
  in
  Mutex.lock t.mutex;
  if t.closing then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.add task t.queue;
  Condition.signal t.work_available;
  Mutex.unlock t.mutex;
  p

let shutdown t =
  Mutex.lock t.mutex;
  t.closing <- true;
  Condition.broadcast t.work_available;
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

(* Await as results so one failure cannot skip the barrier: every task is
   awaited (hence finished) before any exception is re-raised. *)
let await_result p =
  Mutex.lock p.p_mutex;
  while p.p_state = Pending do
    Condition.wait p.p_cond p.p_mutex
  done;
  let state = p.p_state in
  Mutex.unlock p.p_mutex;
  match state with
  | Resolved v -> Ok v
  | Failed (e, bt) -> Error (e, bt)
  | Pending -> assert false

let get = function
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let await p = get (await_result p)

let sequential_map f xs =
  (* Same barrier semantics as the pooled path: finish every task, then
     re-raise the earliest failure. *)
  List.map (fun x -> try Ok (f x) with e -> Error (e, Printexc.get_raw_backtrace ())) xs
  |> List.map get

let map ~jobs f xs =
  let n = List.length xs in
  let jobs = Stdlib.max 1 (Stdlib.min jobs n) in
  if jobs <= 1 then sequential_map f xs
  else begin
    let pool = create ~jobs in
    let promises = List.map (fun x -> submit pool (fun () -> f x)) xs in
    let results = List.map await_result promises in
    shutdown pool;
    List.map get results
  end

let run ~jobs thunks = map ~jobs (fun f -> f ()) thunks

let default_jobs () =
  Stdlib.max 1 (Stdlib.min 16 (Domain.recommended_domain_count ()))
