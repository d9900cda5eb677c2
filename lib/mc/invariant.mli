(** Trace invariants: the paper's problem specifications as predicates over
    the outputs of a (possibly unfinished) run.

    [on_output] is called online, after every emitted output, with all
    outputs so far — it must only state *safety* properties, so a [Error]
    stops the search with a genuine counterexample.  [final] is called once
    the run has ended; with [must_terminate = true] (the run quiesced, or
    the caller treats the step budget as a liveness deadline) it must also
    check the termination clause of the spec — this is how 2PC's blocking
    run becomes a reportable violation. *)

type 'out t = {
  name : string;
  on_output :
    Sim.Failure_pattern.t ->
    'out Sim.Trace.event list ->
    (unit, string) result;
  final :
    Sim.Failure_pattern.t ->
    must_terminate:bool ->
    'out Sim.Trace.event list ->
    (unit, string) result;
}

(** Uniform consensus: validity (decisions were proposed), uniform
    agreement, integrity (at most one decision per process), termination of
    correct processes. *)
val consensus :
  ?pp:(Format.formatter -> 'v -> unit) ->
  proposals:(Sim.Pid.t * 'v) list ->
  unit ->
  'v t

(** Quittable consensus (paper Section 2.3): like consensus, plus [Quit] is
    valid only after a failure. *)
val qc :
  ?pp:(Format.formatter -> 'v -> unit) ->
  proposals:(Sim.Pid.t * 'v) list ->
  unit ->
  'v Qcnbac.Types.qc_decision t

(** Non-blocking atomic commit: Commit needs unanimous Yes votes, Abort
    needs a No vote or a prior failure, agreement, termination. *)
val nbac :
  votes:(Sim.Pid.t * Qcnbac.Types.vote) list ->
  unit ->
  Qcnbac.Types.outcome t

(** Atomic registers: linearizability of the invocation/response history
    (reusing {!Regs.Linearizability}), plus completion of every operation
    invoked by a correct process. *)
val linearizable : unit -> 'v Regs.Abd.output t

(** Eventual consistency, the convergence clause only: once the run has
    drained ([must_terminate]), the last {!Ec.Replica.Fp} fingerprint of
    every correct replica must agree.  Divergence before quiescence is
    legal, so there is no online clause. *)
val ec_convergence : unit -> Ec.Replica.output t

(** State machine replication ({!Cons.Smr}), over the [(index, command)]
    log entries processes emit: each process's indices run 0, 1, 2, ...
    once each, no [(origin, seq)] is applied twice by one process, every
    applied command is in [submitted] as [(origin, seq, payload)], and
    two processes that filled the same index filled it with the same
    command — per-process prefix agreement.  With [must_terminate], the
    correct processes' logs must also be of equal length and hold every
    command a correct process submitted.  Events may arrive newest- or
    oldest-first. *)
val smr :
  ?pp:(Format.formatter -> 'c -> unit) ->
  submitted:(Sim.Pid.t * int * 'c) list ->
  unit ->
  (int * 'c Cons.Smr.cmd) t
