(** The chaos harness: run the SMR cluster under a {!Nemesis} schedule and
    check the paper's guarantees online (docs/FAULTS.md).

    One {!run} drives an in-process {!Local} cluster, each node's transport
    stacked as [node → Rel → Nemesis → Loopback], through [rounds]
    round-robin rounds.  The nemesis clock ticks once per round, so with a
    fixed [(seed, schedule, workload)] the whole run — survivor logs and
    emitted event trace alike — is a deterministic function of the config;
    [bin/cluster.exe chaos] exploits this for bit-for-bit replay.

    Invariants checked while the run progresses:
    - {b agreement}: live replicas' applied logs stay pairwise
      prefix-consistent, and survivors end byte-identical (SMR safety,
      Theorem-level agreement of the consensus core);
    - {b Σ intersection}: no two live replicas ever hold disjoint quorums
      (the defining property of Σ, paper Section 2);
    - {b Ω reconvergence}: after every [Heal] the live replicas re-agree
      on a single live leader within [heal_bound] rounds (eventual leader
      election under partial synchrony), the measured latency recorded in
      the [net.partition_heal_ms] histogram;
    - {b progress}: while the network is {!Nemesis.healthy} and commands
      are outstanding, the total applied count must grow within
      [watchdog] rounds (no deadlock);
    - {b completion}: every command submitted at a replica alive at the
      end of the run is applied by every survivor — provided survivors
      form a majority, otherwise liveness is forfeit by the model.

    The loop and the checks that are not SMR-specific form the {e chaos
    kernel} below, which [Shard.Chaos] and [Ec.Chaos] drive too: the
    fault stack, one round, the failure list, the pairwise prefix check,
    the progress watchdog, heal tracking, the survivor checks and the
    report tail.  Each harness adds only its own workload and
    invariants. *)

(** {2 The chaos kernel} *)

(** One hub's fault stack: a seeded {!Nemesis} controller, and the
    {!Rel} layer of every node built through {!wrap}. *)
type faults

(** [faults ~seed ~n ~resend_every schedule]: a controller over [n]
    nodes; [sink] and [metrics] go to {!Nemesis.create}, [metrics] also
    to every {!Rel.wrap}. *)
val faults :
  ?sink:Sim.Event.sink ->
  ?metrics:Obs.Metrics.t ->
  seed:int ->
  n:int ->
  resend_every:int ->
  Nemesis.schedule ->
  faults

val ctrl : faults -> Nemesis.ctrl

(** [wrap f p raw] stacks [node → Rel → Nemesis → raw] for node [p]:
    the [?wrap] argument of {!Local.make}. *)
val wrap : faults -> Sim.Pid.t -> Transport.t -> Transport.t

(** Retransmissions summed over the stack's {!Rel} layers. *)
val retransmits : faults -> int

(** [round f r ~alive ~crash ~step]: one round [r] of the stack's hub —
    {!Nemesis.tick}, then [crash] every live node a [Kill] has hit, then
    [step] every live node whose skew divides [r], in pid order. *)
val round :
  faults ->
  int ->
  alive:(Sim.Pid.t -> bool) ->
  crash:(Sim.Pid.t -> unit) ->
  step:(Sim.Pid.t -> unit) ->
  unit

(** The invariant failures of one run, in the order they were found. *)
type failures

val failures : unit -> failures
val fail : failures -> ('a, Format.formatter, unit, unit) format4 -> 'a
val failed : failures -> string list

(** [check_pairs ps ~log ~diverged ?pair ()] visits every pair [p, q]
    of [ps] with [p] before [q]: [diverged p q] when neither log is a
    prefix of the other, then [pair p q] (the harness's own pairwise
    invariants). *)
val check_pairs :
  Sim.Pid.t list ->
  log:(Sim.Pid.t -> 'e list) ->
  diverged:(Sim.Pid.t -> Sim.Pid.t -> unit) ->
  ?pair:(Sim.Pid.t -> Sim.Pid.t -> unit) ->
  unit ->
  unit

(** The healthy-network progress watchdog. *)
type watchdog

(** [watchdog fs ~bound] fails ["round R: no WHAT for BOUND rounds on a
    healthy network"] into [fs]; [what] defaults to ["progress"]. *)
val watchdog : ?what:string -> failures -> bound:int -> watchdog

(** [progress w r ~total ~healthy ~outstanding], once per round: a
    growing [total] is progress, and so is an unhealthy network (the
    clock restarts); otherwise, if [outstanding ()] and nothing grew for
    more than [bound] rounds, one failure, and the clock restarts. *)
val progress :
  watchdog ->
  int ->
  total:int ->
  healthy:bool ->
  outstanding:(unit -> bool) ->
  unit

type heal = {
  heal_round : int;  (** round at which the [Heal] fired *)
  reconverged_in : int option;
      (** rounds until one live leader again; [None] = not within bound *)
}

(** Heal/reconvergence tracking over a schedule's [Heal]s. *)
type heals

(** [heals fs ~metric ~leader ~until ~bound schedule]: each [Heal] must
    be followed by leader agreement within [bound] rounds.  The measured
    latency goes to the [metric] histogram of [metrics]; a miss fails
    ["heal at round R: no LEADER within BOUND rounds"], and a heal still
    open at the end ["heal at round R: run ended before UNTIL"]. *)
val heals :
  ?metrics:Obs.Metrics.t ->
  failures ->
  metric:string ->
  leader:string ->
  until:string ->
  bound:int ->
  Nemesis.schedule ->
  heals

(** [track h r ~agreed], once per round after the step: opens the heals
    scheduled at [r], then closes every open heal if [agreed ()] (only
    asked while one is open), or fails those past the bound. *)
val track : heals -> int -> agreed:(unit -> bool) -> unit

(** End of run: fail the heals still open; every heal, in schedule
    order. *)
val finish : heals -> heal list

(** [logs_identical survivors ~log]: every survivor holds the same
    log. *)
val logs_identical : Sim.Pid.t list -> log:(Sim.Pid.t -> 'e list) -> bool

(** The end-of-run SMR checks over the [survivors] of an [n]-node
    cluster: their logs are identical (else ["end of run: survivor LOGS
    differ"]), and — if they are a majority — every command in
    [submitted] ([(origin, payload)]) whose origin is alive was applied
    by every survivor (else ["end of run: submitted CMDS missing"]).
    Returns [(logs identical, all applied)]. *)
val check_survivors :
  failures ->
  n:int ->
  survivors:Sim.Pid.t list ->
  alive:(Sim.Pid.t -> bool) ->
  log:(Sim.Pid.t -> (int * 'c Cons.Smr.cmd) list) ->
  submitted:(Sim.Pid.t * 'c) list ->
  logs:string ->
  cmds:string ->
  bool * bool

(** The report tail every harness prints: the summed [nemesis] stats,
    the Rel retransmits, then ["invariants  all held"] or one [FAILED]
    line per failure.  Each line ends with a cut, inside the caller's
    vertical box. *)
val pp_tail :
  Format.formatter ->
  nemesis:Nemesis.stats list ->
  rel_retransmits:int ->
  failures:string list ->
  unit

(** {2 The SMR harness} *)

type config = {
  n : int;  (** cluster size *)
  seed : int;  (** nemesis RNG seed *)
  rounds : int;  (** round-robin rounds to drive *)
  period : int;  (** Ω heartbeat period, in node steps *)
  detector : Fd.Emulated.Omega.kind;
      (** Ω backend under test (default [Heartbeat]) *)
  window : int;  (** {!Cons.Smr} pipelining window on every replica *)
  schedule : Nemesis.schedule;
  cmds : int;  (** client commands submitted over the run *)
  cmd_every : int;  (** rounds between command submissions *)
  check_every : int;  (** rounds between online invariant checks *)
  watchdog : int;  (** progress deadline in rounds, while healthy *)
  heal_bound : int;  (** Ω must re-agree within this many rounds of heal *)
  resend_every : int;  (** {!Rel} retransmission period, in polls *)
}

(** Defaults sized for the demo: 2500 rounds, period 16, window 4
    (so the invariants are checked over the {e pipelined} replica),
    20 commands every 100 rounds, checks every 50, watchdog 800,
    heal bound 1200, resend every 8 polls. *)
val default : n:int -> schedule:Nemesis.schedule -> config

type report = {
  rounds_run : int;
  submitted : int;
  applied : int array;  (** applied-log length per replica at the end *)
  logs_identical : bool;  (** survivors' full logs byte-identical *)
  all_applied : bool;  (** completion invariant (see above) *)
  heals : heal list;  (** in schedule order *)
  failures : string list;  (** empty = every invariant held *)
  nemesis : Nemesis.stats;
  rel_retransmits : int;  (** summed over replicas *)
}

(** [ok r] — no invariant failed. *)
val ok : report -> bool

val pp_report : Format.formatter -> report -> unit

(** Run the cluster under the schedule.  [collector]'s sink receives every
    node's events plus the nemesis command events as one stream (shared
    metrics table), ready for {!Obs.Jsonl.write_run}. *)
val run : ?collector:Obs.Collector.t -> config -> report
