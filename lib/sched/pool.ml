(* Parallel map on stdlib domains: [jobs] workers claim inputs by index
   from one atomic cursor and write each outcome into that input's slot;
   the caller joins them and reads the slots in input order. *)

(* Outcomes are captured, never raised in a worker, so one failure cannot
   skip the barrier. *)
let attempt f x =
  match f x with
  | v -> Ok v
  | exception e -> Error (e, Printexc.get_raw_backtrace ())

let get = function
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let map ~jobs f xs =
  let inputs = Array.of_list xs in
  let n = Array.length inputs in
  let jobs = Stdlib.min jobs n in
  if jobs <= 1 then List.map get (List.map (attempt f) xs)
  else begin
    let outcomes = Array.make n None in
    let cursor = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        outcomes.(i) <- Some (attempt f inputs.(i));
        work ()
      end
    in
    (* Joining publishes every slot the workers wrote. *)
    List.iter Domain.join (List.init jobs (fun _ -> Domain.spawn work));
    List.map (fun o -> get (Option.get o)) (Array.to_list outcomes)
  end

let run ~jobs thunks = map ~jobs (fun f -> f ()) thunks

let default_jobs () =
  Stdlib.max 1 (Stdlib.min 16 (Domain.recommended_domain_count ()))
