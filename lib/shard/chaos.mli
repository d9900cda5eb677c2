(** Chaos harness for the sharded service, on the {!Net.Chaos} kernel.

    Every shard runs its own kernel fault stack — a {!Net.Nemesis}
    controller with the same schedule and seed [seed + s], under the
    [node → Rel → Nemesis → hub] stack — and each round runs the
    kernel's round on every shard in turn.  A seeded Zipfian closed-loop
    workload routes writes through the ring; [reconfig_at] rotates every
    shard's membership (drop the lowest member, install a spare) through
    the shards' own logs mid-run.  Driving is sequential and
    deterministic: a run is a pure function of the config.

    From the kernel: per-shard log prefix consistency, the progress
    watchdog on healthy networks, per-shard identical survivor logs, and
    the report tail.  This harness adds the epoch handoff (each
    replica's Σ quorum is of its own epoch, same-epoch quorums of one
    shard intersect, different-epoch replicas have different applied
    counts), no command lost or duplicated across the reconfiguration,
    the expected configuration installed, and quiescent router reads
    returning exactly the last applied write per sampled key. *)

type config = {
  shards : int;
  replicas : int;
  spares : int;
  seed : int;
  rounds : int;
  period : int;
  detector : Fd.Emulated.Omega.kind;
      (** Ω backend on every replica (default [Heartbeat]) *)
  schedule : Net.Nemesis.schedule;  (** applied to every shard *)
  cmds : int;
  cmd_every : int;
  keys : int;  (** Zipfian key-space size *)
  theta : float;  (** Zipfian skew (default 0.99) *)
  reconfig_at : int option;
      (** rotate every shard's membership at this round *)
  reads : int;  (** quiescent quorum reads after the run *)
  check_every : int;
  watchdog : int;
  resend_every : int;
}

val default :
  shards:int -> replicas:int -> schedule:Net.Nemesis.schedule -> config

type report = {
  rounds_run : int;
  submitted : int;
  applied : int array;  (** per shard: longest live applied log *)
  epochs : int array;  (** per shard: final installed epoch *)
  reconfig_done : bool;
  reads_ok : int;
  reads_bad : int;
  logs_identical : bool;
  all_applied : bool;
  no_duplicates : bool;
  failures : string list;  (** empty iff every invariant held *)
  nemesis : Net.Nemesis.stats array;
  rel_retransmits : int;
}

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit

(** [collector]'s metrics gain per-shard labeled series
    ([shard.applied{shard=s}], [shard.epoch{shard=s}]) at the end of the
    run. *)
val run : ?collector:Obs.Collector.t -> config -> report
