(* The crash-adversary search: failure patterns in order, each explored
   by the inner explorer on one domain pool.  Exhaustive patterns go
   through the chunked frontier loop ([Exhaustive.dfs]); sampled
   explorers run chunks of run indices whose streams depend only on
   (seed, pattern, index); DPOR runs on the calling domain.  Every
   decision is taken in order on the calling domain, so the report does
   not depend on the pool size. *)

let sampled ~pool ~(o : Harness.opts) ~pat ~budget target ~fp ~n =
  let d = Option.value o.d ~default:3 in
  let run i =
    let rng = Sim.Rng.make (Hashtbl.hash (o.seed, pat, i, "mc.parallel")) in
    let sched =
      match o.explorer with
      | `Pct ->
        Pct.scheduler ~d ~horizon:(max 1 target.Harness.max_steps) rng ~n
      | `Random | `Exhaustive | `Dpor -> Sim.Scheduler.random rng
    in
    Harness.run ~seed:o.seed target ~fp sched
  in
  let schedules = ref 0 in
  let steps = ref 0 in
  let found = ref None in
  while !found = None && !schedules < budget do
    let start = !schedules in
    let k = min (Exhaustive.chunk pool) (budget - start) in
    Array.iter
      (fun (r : Harness.run_report) ->
        if !found = None then begin
          incr schedules;
          steps := !steps + r.steps;
          Option.iter
            (fun reason -> found := Some (reason, r.choices))
            r.violation
        end)
      (Exhaustive.map pool k (fun i -> run (start + i)))
  done;
  {
    Exhaustive.counterexample =
      Option.map
        (fun (reason, choices) ->
          Harness.counterexample ~shrink:o.shrink
            ~violates:(Harness.violates ~seed:o.seed target ~n)
            ~target:target.Harness.name ~n ~seed:o.seed ~reason
            (Schedule.of_fp fp choices))
        !found;
    schedules = !schedules;
    pruned = 0;
    steps = !steps;
    complete = false;
  }

let search ~(opts : Harness.opts) ?fps target ~n =
  let o = opts in
  let fps =
    match fps with
    | Some l -> l
    | None ->
      Crash_adversary.patterns ~n ~max_crashes:o.max_crashes ~horizon:o.horizon
        ~stride:o.stride
  in
  Exhaustive.with_pool ~domains:o.domains (fun pool ->
      let patterns = ref 0 in
      let schedules = ref 0 in
      let steps = ref 0 in
      let found = ref None in
      let complete = ref true in
      List.iteri
        (fun pat fp ->
          let remaining = o.budget - !schedules in
          if !found = None && remaining > 0 then begin
            incr patterns;
            let budget = min o.inner_budget remaining in
            let r =
              match o.explorer with
              | `Exhaustive ->
                Exhaustive.search ~pool ~budget ~shrink:o.shrink ~seed:o.seed
                  target ~fp
              | `Dpor ->
                Dpor.search ~budget ~shrink:o.shrink ~seed:o.seed target ~fp
              | `Pct | `Random -> sampled ~pool ~o ~pat ~budget target ~fp ~n
            in
            schedules := !schedules + r.Exhaustive.schedules;
            steps := !steps + r.Exhaustive.steps;
            if not r.Exhaustive.complete then complete := false;
            found := r.Exhaustive.counterexample
          end
          else if !found = None then complete := false)
        fps;
      {
        Crash_adversary.counterexample = !found;
        patterns = !patterns;
        schedules = !schedules;
        steps = !steps;
        complete = !complete && !found = None;
      })
