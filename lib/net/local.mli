(** A whole cluster in one process over the {!Loopback} transport, driven
    cooperatively (round-robin, one step per node per round).

    Deterministic — the loopback hub delivers in send order — so tests
    assert exact agreement and benchmarks measure protocol cost without
    socket noise.  {!crash} kills a node mid-run exactly like the demo's
    SIGKILL: its frames stop, its steps stop, and the survivors' detectors
    notice by missing heartbeats.

    The cluster is generic: {!make} runs {e any} [Sim.Protocol.t] — it
    is what lets [Shard.Group] host many independent replica groups (one
    hub per shard) without a second copy of this code.  {!create} is the
    SMR instantiation used by the demo, the chaos harness and the
    benches; every operation below works on both. *)

(** {2 Any protocol} *)

type ('st, 'msg, 'inp, 'out) cluster

(** [make ~n proto] builds [n] replicas of [proto] over a fresh hub.
    [sink p] optionally installs a tracing sink per node.
    [wrap p t] interposes on each node's transport before the node is
    built — this is how {!Chaos} (and the shard chaos harness) stack
    [Rel.wrap] and {!Nemesis.wrap} between the protocol and the hub.
    [metrics] with [classify] feeds every node's
    [fd.frames{detector=...}] counters (see {!Node.create}). *)
val make :
  ?sink:(Sim.Pid.t -> Sim.Event.sink option) ->
  ?wrap:(Sim.Pid.t -> Transport.t -> Transport.t) ->
  ?codec:'msg Wire.codec ->
  ?metrics:Obs.Metrics.t ->
  ?classify:('msg -> string option) ->
  n:int ->
  ('st, 'msg, unit, 'inp, 'out) Sim.Protocol.t ->
  ('st, 'msg, 'inp, 'out) cluster

val hub : _ cluster -> Loopback.hub

(** One step of a single node, if live ({!Chaos} uses this to slow a
    skewed node's clock by stepping it only every k-th round). *)
val step_one : _ cluster -> Sim.Pid.t -> unit

(** One round: every live node takes one step (pid order). *)
val step : _ cluster -> unit

val run : _ cluster -> rounds:int -> unit

(** [submit t p c]: inject input [c] at node [p] (its next step). *)
val submit : (_, _, 'inp, _) cluster -> Sim.Pid.t -> 'inp -> unit

(** Kill a node: no more steps, frames from/to it vanish. *)
val crash : _ cluster -> Sim.Pid.t -> unit

(** Outputs emitted by [p] so far, oldest first — for the SMR
    instantiation, the decided entries applied by [p], in slot order. *)
val outputs : (_, _, _, 'out) cluster -> Sim.Pid.t -> 'out list

val state : ('st, _, _, _) cluster -> Sim.Pid.t -> 'st

(** Local step counter of [p] (= rounds it has taken). *)
val now : _ cluster -> Sim.Pid.t -> int

(** {2 The SMR instantiation} *)

type 'c t =
  ('c Smr_node.pstate, 'c Smr_node.pmsg, 'c, int * 'c Cons.Smr.cmd) cluster

(** [create ~n ()] builds [n] replicas of {!Smr_node.protocol} on the
    binary codec tower (the hub carries encoded frames, so loopback
    benches measure real encode/decode cost).  [period] is Ω's heartbeat
    period in steps (default 16); [window] / [batch_max] are
    {!Cons.Smr.make}'s pipelining and batching knobs (defaults 1 /
    1024); [detector] / [sigma_period] select the Ω backend and Σ pacing
    (see {!Smr_node.protocol}); [metrics] enables the
    [fd.frames{detector=...}] counters via {!Smr_node.classify}. *)
val create :
  ?period:int ->
  ?window:int ->
  ?batch_max:int ->
  ?detector:Fd.Emulated.Omega.kind ->
  ?sigma_period:int ->
  ?sink:(Sim.Pid.t -> Sim.Event.sink option) ->
  ?wrap:(Sim.Pid.t -> Transport.t -> Transport.t) ->
  ?metrics:Obs.Metrics.t ->
  n:int ->
  unit -> string t
