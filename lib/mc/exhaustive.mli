(** Bounded-exhaustive schedule search by stateless re-execution.

    The explorer keeps a FIFO queue of choice-sequence prefixes.  Each run
    replays a prefix and then always takes alternative 0; the unexplored
    siblings of every choice point encountered past the prefix are queued
    for later exploration.  With an unlimited budget this enumerates every
    schedule of the target under one failure pattern.

    Pruning: after the prefix is consumed, the engine's per-round state
    digest (process states + network + pending inputs + output history) is
    checked against a seen-set; a repeated digest cuts the run.  Digests
    include the output history, so no run that could still produce a
    different observable outcome is pruned.  [prune_mod_time] excludes the
    clock from the digest — sound exactly when the sampled detector
    history is time-invariant, so it defaults to the target's
    [time_invariant_fd] flag.

    Parallelism: the queue is drained in chunks.  A chunk's runs execute
    on a {!pool} against the seen-set as it stood when the chunk started
    (plus each run's own keys), then are adjudicated one by one in queue
    order against the exact seen-set.  A run's exact cut is never later
    than the one it took, so the report — counts, completeness and
    counterexample — is the one-domain report at every pool size.  On one
    domain a chunk is one prefix. *)

type report = {
  counterexample : Harness.counterexample option;
  schedules : int;  (** runs executed *)
  pruned : int;  (** runs cut by the state-digest check *)
  steps : int;  (** total process steps across all runs *)
  complete : bool;  (** true iff the space was exhausted within budget *)
}

(** A pool of domains the frontier loop and {!Parallel} run chunks on. *)
type pool

(** [with_pool ~domains f] runs [f] with a pool of [domains] domains
    (the caller's included), capped at
    [Domain.recommended_domain_count ()], and joins them afterwards. *)
val with_pool : domains:int -> (pool -> 'a) -> 'a

(** Runs per chunk: 1 on a one-domain pool, 16 per domain otherwise. *)
val chunk : pool -> int

(** [map pool k f] is [[| f 0; ...; f (k - 1) |]], computed on the pool's
    domains.  [f] must not write state another call reads. *)
val map : pool -> int -> (int -> 'a) -> 'a array

(** The frontier loop itself, shared with {!Net_harness.search}.
    [run sched ~hook] executes one run of the system under [sched],
    calling [hook ~clock ~digest ~steps] after every round (the system's
    round counter or clock, its lazy state digest and the steps taken so
    far) and cutting the run when the hook returns [false]; it returns
    the run's choice sequence, its step count and its violation.  Once
    past the replayed prefix, a round whose [key ~clock digest] was seen
    before is pruned ([prune]).  The first violation becomes the
    report's [counterexample ~reason choices].  [run] is called on the
    pool's domains. *)
val dfs :
  ?pool:pool ->
  budget:int ->
  prune:bool ->
  key:(clock:int -> int -> int) ->
  counterexample:(reason:string -> int list -> Harness.counterexample) ->
  (Sim.Scheduler.t ->
  hook:(clock:int -> digest:int Lazy.t -> steps:int -> bool) ->
  int list * int * string option) ->
  report

val search :
  ?pool:pool ->
  ?budget:int ->
  ?prune:bool ->
  ?prune_mod_time:bool ->
  ?shrink:bool ->
  ?shrink_budget:int ->
  ?seed:int ->
  ('st, 'msg, 'fd, 'inp, 'out) Harness.target ->
  fp:Sim.Failure_pattern.t ->
  report
