(** Bounded-exhaustive schedule search by stateless re-execution.

    The explorer maintains a stack of choice-sequence prefixes.  Each run
    replays a prefix and then always takes alternative 0; the unexplored
    siblings of every choice point encountered past the prefix are pushed
    for later exploration.  With an unlimited budget this enumerates every
    schedule of the target under one failure pattern.

    Pruning: after the prefix is consumed, the engine's per-round state
    digest (process states + network + pending inputs + output history) is
    checked against a seen-set; a repeated digest cuts the run.  Digests
    include the output history, so no run that could still produce a
    different observable outcome is pruned.  [prune_mod_time] excludes the
    clock from the digest — sound exactly when the sampled detector
    history is time-invariant, so it defaults to the target's
    [time_invariant_fd] flag. *)

type report = {
  counterexample : Harness.counterexample option;
  schedules : int;  (** runs executed *)
  pruned : int;  (** runs cut by the state-digest check *)
  steps : int;  (** total process steps across all runs *)
  complete : bool;  (** true iff the space was exhausted within budget *)
}

(** The DFS itself, shared with {!Net_harness.search}.  [run sched ~hook]
    executes one run of the system under [sched], calling [hook ~clock
    ~digest] after every round (the system's round counter or clock, and
    its lazy state digest) and cutting the run when the hook returns
    [false]; it returns the run's choice sequence, its step count and
    its violation.  Once past the replayed prefix, a round whose
    [key ~clock digest] was seen before is pruned ([prune]).  The first
    violation becomes the report's [counterexample ~reason choices]. *)
val dfs :
  budget:int ->
  prune:bool ->
  key:(clock:int -> int -> int) ->
  counterexample:(reason:string -> int list -> Harness.counterexample) ->
  (Sim.Scheduler.t ->
  hook:(clock:int -> digest:int Lazy.t -> bool) ->
  int list * int * string option) ->
  report

val search :
  ?budget:int ->
  ?prune:bool ->
  ?prune_mod_time:bool ->
  ?shrink:bool ->
  ?shrink_budget:int ->
  ?seed:int ->
  ('st, 'msg, 'fd, 'inp, 'out) Harness.target ->
  fp:Sim.Failure_pattern.t ->
  report
