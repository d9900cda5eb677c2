let take_prefix arr i = Array.to_list (Array.sub arr 0 i)

type report = {
  counterexample : Harness.counterexample option;
  schedules : int;
  pruned : int;
  steps : int;
  complete : bool;
}

let dfs ~budget ~prune ~key ~counterexample run =
  let seen = Hashtbl.create 4096 in
  let stack = ref [ [] ] in
  let schedules = ref 0 in
  let pruned = ref 0 in
  let steps = ref 0 in
  let found = ref None in
  let out_of_budget = ref false in
  while !found = None && !stack <> [] && not !out_of_budget do
    match !stack with
    | [] -> assert false
    | prefix :: rest ->
      stack := rest;
      if !schedules >= budget then out_of_budget := true
      else begin
        incr schedules;
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
        let hook ~clock ~digest =
          if (not prune) || !consumed < depth then true
          else begin
            let k = key ~clock (Lazy.force digest) in
            if Hashtbl.mem seen k then begin
              incr pruned;
              false
            end
            else begin
              Hashtbl.add seen k ();
              true
            end
          end
        in
        let choices, run_steps, violation = run sched ~hook in
        steps := !steps + run_steps;
        match violation with
        | Some reason -> found := Some (reason, choices)
        | None ->
          (* Enqueue the unexplored siblings of every choice point taken
             beyond the prefix (the prefix's own siblings were enqueued by
             the run that discovered it). *)
          let seq = Array.of_list choices in
          let ars = Array.of_list (List.rev !arities) in
          for i = Array.length seq - 1 downto depth do
            for k = ars.(i) - 1 downto 1 do
              stack := (take_prefix seq i @ [ k ]) :: !stack
            done
          done
      end
  done;
  {
    counterexample =
      Option.map (fun (reason, choices) -> counterexample ~reason choices) !found;
    schedules = !schedules;
    pruned = !pruned;
    steps = !steps;
    complete = (not !out_of_budget) && !stack = [];
  }

let search ?(budget = 10_000) ?(prune = true) ?prune_mod_time
    ?(shrink = true) ?(shrink_budget = 400) ?(seed = 1) target ~fp =
  let prune_mod_time =
    Option.value prune_mod_time ~default:target.Harness.time_invariant_fd
  in
  let n = Sim.Failure_pattern.n fp in
  dfs ~budget ~prune
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
          ~round_hook:(fun ~now ~digest ~steps:_ -> hook ~clock:now ~digest)
          sched
      in
      (r.Harness.choices, r.Harness.steps, r.Harness.violation))
