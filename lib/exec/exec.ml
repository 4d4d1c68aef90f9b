(* One executor: a task queue drained by [jobs - 1] workers running
   [worker_loop], the caller of [map_batch] being the jobs-th. Workers
   are threads in the pools [create] makes and domains in the one
   process-wide pool behind [map_domains]. *)
type pool = {
  jobs : int;
  mu : Mutex.t;
  cond : Condition.t;  (* signaled when the queue gains a task or on shutdown *)
  queue : (unit -> unit) Queue.t;
  mutable joins : (unit -> unit) list;  (* one per worker *)
  mutable stopped : bool;
}

let default_jobs () = max 2 (Domain.recommended_domain_count ())

let worker_loop pool =
  let rec loop () =
    Mutex.lock pool.mu;
    while Queue.is_empty pool.queue && not pool.stopped do
      Condition.wait pool.cond pool.mu
    done;
    if Queue.is_empty pool.queue then Mutex.unlock pool.mu (* stopped *)
    else begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.mu;
      (* batch tasks carry their outcome in the batch's result cells;
         nothing can escape here *)
      (try task () with _ -> ());
      loop ()
    end
  in
  loop ()

(* [start work] runs [work] on a fresh worker and returns its join *)
let make ~jobs start =
  let pool =
    {
      jobs;
      mu = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      joins = [];
      stopped = false;
    }
  in
  pool.joins <- List.init (jobs - 1) (fun _ -> start (fun () -> worker_loop pool));
  pool

let create ?jobs () =
  let jobs = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  make ~jobs (fun work ->
      let t = Thread.create work () in
      fun () -> Thread.join t)

let jobs pool = pool.jobs

let shutdown pool =
  Mutex.lock pool.mu;
  pool.stopped <- true;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.mu;
  List.iter (fun join -> join ()) pool.joins;
  pool.joins <- []

(* Started by the first fan-out, never at module initialisation: OCaml 5's
   [Unix.fork] fails once a domain has been spawned. *)
let domain_pool =
  let mu = Mutex.create () in
  let pool = ref None in
  fun () ->
    Mutex.protect mu (fun () ->
        match !pool with
        | Some p -> p
        | None ->
          let p =
            make ~jobs:(Domain.recommended_domain_count ()) (fun work ->
                let d = Domain.spawn work in
                fun () -> Domain.join d)
          in
          at_exit (fun () -> shutdown p);
          pool := Some p;
          p)

let async pool task =
  Mutex.lock pool.mu;
  if pool.stopped || pool.jobs <= 1 then begin
    Mutex.unlock pool.mu;
    (try task () with _ -> ())
  end
  else begin
    Queue.push (fun () -> try task () with _ -> ()) pool.queue;
    Condition.signal pool.cond;
    Mutex.unlock pool.mu
  end

let map_batch pool f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when pool.jobs <= 1 || pool.stopped -> List.map f xs
  | xs ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results = Array.make n None in
    let bmu = Mutex.create () in
    let bcond = Condition.create () in
    let next = ref 0 in
    let completed = ref 0 in
    let take () =
      Mutex.lock bmu;
      let i = !next in
      if i < n then incr next;
      Mutex.unlock bmu;
      if i < n then Some i else None
    in
    let run_one i =
      let r = try Ok (f arr.(i)) with e -> Error e in
      Mutex.lock bmu;
      results.(i) <- Some r;
      incr completed;
      if !completed = n then Condition.broadcast bcond;
      Mutex.unlock bmu
    in
    (* claim-and-run until the batch is drained; also what the helper
       tasks enqueued on the pool execute. A helper that a worker picks
       up only after the batch finished finds [take] empty and returns
       immediately. *)
    let rec drain () =
      match take () with
      | Some i ->
        run_one i;
        drain ()
      | None -> ()
    in
    let helpers = min (n - 1) (pool.jobs - 1) in
    Mutex.lock pool.mu;
    for _ = 1 to helpers do
      Queue.push drain pool.queue
    done;
    Condition.broadcast pool.cond;
    Mutex.unlock pool.mu;
    (* the caller participates: guarantees progress even when every
       worker is busy with other (possibly nested) batches *)
    drain ();
    Mutex.lock bmu;
    while !completed < n do
      Condition.wait bcond bmu
    done;
    Mutex.unlock bmu;
    let first_error = ref None in
    for i = n - 1 downto 0 do
      match results.(i) with
      | Some (Error e) -> first_error := Some e
      | _ -> ()
    done;
    (match !first_error with Some e -> raise e | None -> ());
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | _ -> assert false (* completed = n and no Error *))
         results)

(* empty and singleton batches never start the domain pool *)
let map_domains f xs =
  match xs with [] | [ _ ] -> List.map f xs | xs -> map_batch (domain_pool ()) f xs
