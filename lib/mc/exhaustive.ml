type report = {
  counterexample : Harness.counterexample option;
  schedules : int;
  pruned : int;
  steps : int;
  complete : bool;
}

(* ---- domain pool ----------------------------------------------------- *)

(* [size - 1] worker domains plus the calling one.  [map] publishes a job
   (a closure draining a shared index counter) under a new generation;
   every worker that wakes runs whatever job is current, so a late waker
   only finds the counter exhausted. *)
type pool = {
  size : int;
  mutex : Mutex.t;
  wake : Condition.t;
  finished : Condition.t;
  mutable job : unit -> unit;
  mutable generation : int;
  mutable stop : bool;
}

let make_pool size =
  {
    size;
    mutex = Mutex.create ();
    wake = Condition.create ();
    finished = Condition.create ();
    job = ignore;
    generation = 0;
    stop = false;
  }

let sequential = make_pool 1

(* Runs per chunk: one on one domain (run-and-prune, nothing speculative),
   otherwise enough per domain to amortise a wake-up round trip. *)
let chunk pool = if pool.size = 1 then 1 else 16 * pool.size

let worker pool () =
  let seen = ref 0 in
  Mutex.lock pool.mutex;
  while not pool.stop do
    if pool.generation = !seen then Condition.wait pool.wake pool.mutex
    else begin
      seen := pool.generation;
      let job = pool.job in
      Mutex.unlock pool.mutex;
      job ();
      Mutex.lock pool.mutex
    end
  done;
  Mutex.unlock pool.mutex

let with_pool ~domains f =
  (* More domains than cores only adds context switches. *)
  let size =
    max 1 (min (min domains 64) (Domain.recommended_domain_count ()))
  in
  if size = 1 then f sequential
  else begin
    let pool = make_pool size in
    let workers = Array.init (size - 1) (fun _ -> Domain.spawn (worker pool)) in
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock pool.mutex;
        pool.stop <- true;
        Condition.broadcast pool.wake;
        Mutex.unlock pool.mutex;
        Array.iter Domain.join workers)
      (fun () -> f pool)
  end

let map pool k f =
  let results = Array.make k None in
  let next = Atomic.make 0 and completed = Atomic.make 0 in
  let rec job () =
    let i = Atomic.fetch_and_add next 1 in
    if i < k then begin
      results.(i) <- Some (try Ok (f i) with e -> Error e);
      if Atomic.fetch_and_add completed 1 = k - 1 && pool.size > 1 then begin
        Mutex.lock pool.mutex;
        Condition.broadcast pool.finished;
        Mutex.unlock pool.mutex
      end;
      job ()
    end
  in
  if pool.size = 1 || k <= 1 then job ()
  else begin
    Mutex.lock pool.mutex;
    pool.job <- job;
    pool.generation <- pool.generation + 1;
    Condition.broadcast pool.wake;
    Mutex.unlock pool.mutex;
    job ();
    Mutex.lock pool.mutex;
    while Atomic.get completed < k do
      Condition.wait pool.finished pool.mutex
    done;
    Mutex.unlock pool.mutex
  end;
  Array.map
    (function
      | Some (Ok x) -> x | Some (Error e) -> raise e | None -> assert false)
    results

(* ---- the frontier loop ----------------------------------------------- *)

(* One run of a prefix: its choices, the arity of every choice point, one
   (key, choices consumed, steps) triple per round hook past the prefix
   (unless the run was alone in its chunk), where it cut itself, and how
   it ended. *)
type trajectory = {
  choices : int list;
  arities : int array;
  hooks : (int * int * int) list;
  cut : (int * int) option;
  violation : string option;
  run_steps : int;
}

let dfs ?(pool = sequential) ~budget ~prune ~key ~counterexample run =
  let seen = Hashtbl.create 4096 in
  (* A queued prefix is built when it is popped, from the choice array
     its siblings share: a FIFO frontier is wide and long-lived, and every
     list held in it would be promoted to the major heap.  (Not [Lazy]:
     forcing an old thunk would promote the list it stores.) *)
  let frontier = Queue.create () in
  Queue.push (fun () -> []) frontier;
  let schedules = ref 0 in
  let pruned = ref 0 in
  let steps = ref 0 in
  let found = ref None in
  let out_of_budget = ref false in
  let discarded = ref false in
  (* A run alone in its chunk claims its keys in [seen] as it goes, and
     its own cut is the exact one.  Otherwise [seen] is read-only while
     the chunk is in flight: a run cuts on a key seen before the chunk or
     earlier in itself, and records its hooks for [adjudicate]. *)
  let explore ~alone prefix =
    let depth = List.length prefix in
    (* Follow [prefix], then always take alternative 0; record every
       choice's arity so the sibling branches can be enqueued. *)
    let arities = ref [] in
    let consumed = ref 0 in
    let base = Sim.Scheduler.replay prefix ~rest:Sim.Scheduler.first in
    let sched =
      {
        Sim.Scheduler.choose =
          (fun c ->
            arities := Sim.Scheduler.arity c :: !arities;
            incr consumed;
            base.Sim.Scheduler.choose c);
      }
    in
    let own = if alone then seen else Hashtbl.create 16 in
    let hooks = ref [] in
    let cut = ref None in
    let hook ~clock ~digest ~steps =
      if (not prune) || !consumed < depth then true
      else begin
        let k = key ~clock (Lazy.force digest) in
        if not alone then hooks := (k, !consumed, steps) :: !hooks;
        if Hashtbl.mem own k || ((not alone) && Hashtbl.mem seen k) then begin
          cut := Some (!consumed, steps);
          false
        end
        else begin
          Hashtbl.add own k ();
          true
        end
      end
    in
    let choices, run_steps, violation = run sched ~hook in
    {
      choices;
      arities = Array.of_list (List.rev !arities);
      hooks = List.rev !hooks;
      cut = !cut;
      violation;
      run_steps;
    }
  in
  (* Enqueue the unexplored siblings of every choice point taken beyond
     the prefix, up to [upto] (the prefix's own siblings were enqueued by
     the run that discovered it). *)
  let expand ~depth t ~upto =
    let seq = Array.of_list t.choices in
    for i = depth to upto - 1 do
      for alt = 1 to t.arities.(i) - 1 do
        Queue.push (fun () -> Schedule.take_prefix seq i @ [ alt ]) frontier
      done
    done
  in
  (* The sequential decision for one run, against the exact seen-set.
     Earlier runs of the chunk can only have added keys, so the exact cut
     is never later than the run's own: it lies among the recorded hooks,
     and the run up to it is the run a one-domain search makes. *)
  let adjudicate ~alone prefix t =
    incr schedules;
    let depth = List.length prefix in
    let rec exact = function
      | [] -> None
      | (k, consumed, steps) :: rest ->
        if Hashtbl.mem seen k then Some (consumed, steps)
        else begin
          Hashtbl.add seen k ();
          exact rest
        end
    in
    match if alone then t.cut else exact t.hooks with
    | Some (consumed, cut_steps) ->
      incr pruned;
      steps := !steps + cut_steps;
      expand ~depth t ~upto:consumed
    | None -> (
      steps := !steps + t.run_steps;
      match t.violation with
      | Some reason -> found := Some (reason, t.choices)
      | None -> expand ~depth t ~upto:(Array.length t.arities))
  in
  (* FIFO: children go behind every queued prefix, so a chunk is exactly
     the next prefixes a one-domain search would run, in its order. *)
  while
    !found = None && (not (Queue.is_empty frontier)) && not !out_of_budget
  do
    let k =
      min (chunk pool) (min (budget - !schedules) (Queue.length frontier))
    in
    if k <= 0 then out_of_budget := true
    else begin
      let prefixes = Array.init k (fun _ -> Queue.pop frontier ()) in
      let alone = k = 1 in
      let runs = map pool k (fun i -> explore ~alone prefixes.(i)) in
      Array.iteri
        (fun i t ->
          if !found = None then adjudicate ~alone prefixes.(i) t
          else discarded := true)
        runs
    end
  done;
  {
    counterexample =
      Option.map
        (fun (reason, choices) -> counterexample ~reason choices)
        !found;
    schedules = !schedules;
    pruned = !pruned;
    steps = !steps;
    complete =
      (not !out_of_budget) && Queue.is_empty frontier && not !discarded;
  }

let search ?pool ?(budget = 10_000) ?(prune = true) ?prune_mod_time
    ?(shrink = true) ?(shrink_budget = 400) ?(seed = 1) target ~fp =
  let prune_mod_time =
    Option.value prune_mod_time ~default:target.Harness.time_invariant_fd
  in
  let n = Sim.Failure_pattern.n fp in
  dfs ?pool ~budget ~prune
    ~key:
      (if prune_mod_time then fun ~clock:_ digest -> digest
       else fun ~clock digest -> Hashtbl.hash (digest, clock))
    ~counterexample:(fun ~reason choices ->
      Harness.counterexample ~shrink ~shrink_budget
        ~violates:(Harness.violates ~seed target ~n)
        ~target:target.Harness.name ~n ~seed ~reason
        (Schedule.of_fp fp choices))
    (fun sched ~hook ->
      let r =
        Harness.run ~seed target ~fp
          ~round_hook:(fun ~now ~digest ~steps ->
            hook ~clock:now ~digest ~steps)
          sched
      in
      (r.Harness.choices, r.Harness.steps, r.Harness.violation))
