(** Chaos harness for the mixed-consistency cluster: the {!Net.Chaos}
    kernel (Nemesis faults + Rel ARQ under every node, one tick per
    round, pure function of [(seed, schedule, workload)]) pointed at
    {!Mixed.protocol}, with the EC-specific online invariants:

    - {b EC availability}: during the schedule's cut window the stores'
      revision total must keep growing — writes flow in minority
      partitions;
    - {b SMR frozen}: in the same window (after [grace] rounds for
      in-flight decisions) the SMR applied total must {e not} grow when no
      majority component exists;
    - {b convergence}: after the last write, all live fingerprints must
      become equal within [heal_bound] rounds ([converged_in] reports the
      measured bound);
    - {b read-your-writes}: each session writes only its own key
      namespace at its own node, so the node must always read back the
      session's latest write;
    - {b Ω-EC re-agreement}: after each [Heal], live nodes must again
      agree on a live {!Fd.Emulated.Omega_ec} leader;
    - plus the kernel's SMR checks over the decided logs: pairwise
      prefix consistency, the progress watchdog on a healthy network,
      identical survivor logs and every linearizable command applied.

    Metrics (when a collector is passed): [ec.puts{node=p}] counters,
    [ec.divergent_keys] and [ec.replication_lag{node=p}] gauges,
    [ec.heal_reagree_rounds] histogram, [ec.converged_in] gauge. *)

type config = {
  n : int;
  seed : int;
  rounds : int;
  period : int;  (** heartbeat period of both detectors *)
  window : int;  (** SMR pipelining *)
  sync_every : int;  (** anti-entropy cadence *)
  schedule : Net.Nemesis.schedule;
  puts_every : int;  (** every live node writes this often ... *)
  keys : int;  (** ... cycling over this many session keys *)
  lin_every : int;
  lin_cmds : int;
  check_every : int;
  watchdog : int;
  heal_bound : int;
  resend_every : int;
  grace : int;  (** rounds after the cut before the frozen-SMR snapshot *)
}

(** Full isolation — every node a singleton group (no majority component
    anywhere, so the quorum path provably cannot decide) — at round 400,
    healed at 1600. *)
val default_schedule : int -> Net.Nemesis.schedule

val default : n:int -> schedule:Net.Nemesis.schedule -> config

(** The schedule's cut window: the first [Partition]/[Isolate] round
    and the first later [Heal] round, if both exist.  This is the window
    the availability and frozen-SMR invariants are evaluated over (also
    used by the bench rows).  A directed [Cut] opens no window: one cut
    link can leave a majority component that still decides, so "SMR
    frozen" must not be asserted for it. *)
val cut_window : Net.Nemesis.schedule -> (int * int) option

type heal = Net.Chaos.heal = { heal_round : int; reconverged_in : int option }

type report = {
  rounds_run : int;
  ec_puts : int array;
  ec_puts_in_partition : int;
  smr_submitted : int;
  smr_applied : int array;
  smr_frozen_in_partition : bool;
  converged_in : int option;
  heals : heal list;
  logs_identical : bool;
  all_applied : bool;
  failures : string list;
  nemesis : Net.Nemesis.stats;
  rel_retransmits : int;
}

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit
val run : ?collector:Obs.Collector.t -> config -> report
