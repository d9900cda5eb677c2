(** State machine replication from repeated consensus — the Lamport /
    Schneider reduction [17, 21] the paper leans on for Corollary 3:
    "using consensus we can implement any object, and in particular
    registers".

    Clients submit commands; submissions are disseminated to every
    process; consensus instances decide *batches* of commands (the
    proposer drains its pending queue, up to [batch_max], into one
    instance — quorum round-trips amortise over many commands); every
    process applies decided batches in instance order and numbers the
    surviving commands with consecutive log indices.  Two processes
    therefore apply identical command sequences — which is exactly what
    makes any deterministic object, registers included, implementable on
    top (see [Smr_register] in the tests and the replicated-counter
    example).

    With [window] > 1 the proposer keeps up to [window] instances in
    flight (pipelining): a slow quorum round-trip no longer serialises
    throughput.  Decisions may then land out of order; application is
    still strictly in instance order, and a command decided by two
    different instances (possible under leadership churn, because Paxos
    value inheritance can resurrect a batch its proposer already
    re-proposed) is applied exactly once — an apply-time guard skips the
    second decision.

    Per-command bookkeeping is bounded by the number of origins, not the
    number of commands: both the "seen" set that suppresses re-gossiped
    submissions and the apply-time exactly-once guard are a {!Dedup}
    watermark per origin.  An instance keeps its Paxos state only while
    undecided; once it decides the state is dropped, and a late [Prepare]
    or [Propose] for it (a straggler that missed [Decide] and starts a
    ballot) is answered with [Decide] carrying the decided batch, so the
    straggler learns the fixed value in one round trip.  Other late
    messages for a decided instance are ignored.  The decided batches
    themselves are still kept (they serve {!decided_from}).

    The consensus box is the (Ω, Σ) quorum Paxos, so SMR runs in any
    environment. *)

(** A command stamped with its origin, so duplicates and ownership are
    recognisable. *)
type 'c cmd = { origin : Sim.Pid.t; seq : int; payload : 'c }

type 'c state

(** The per-origin dedup structure behind both the submission filter and
    the exactly-once apply guard: a set of [(origin, seq)] pairs stored as
    one contiguous watermark per origin — every seq below it is in the
    set — plus a sparse set of the seqs seen past a gap.  Adding the seq
    at the watermark advances it through the sparse set, so an origin
    whose seqs arrive in order ([0, 1, 2, ...]) costs O(1) space.
    Immutable.  Seqs are non-negative. *)
module Dedup : sig
  type t

  val empty : t
  val mem : t -> origin:Sim.Pid.t -> seq:int -> bool
  val add : t -> origin:Sim.Pid.t -> seq:int -> t

  (** Number of seqs held past a gap, summed over origins — zero after
      any sequence of in-order adds. *)
  val sparse : t -> int
end

(** Public so hosts can give the message tower a binary wire
    representation (see [Net.Codecs]); treat it as read-only. *)
type 'c msg =
  | Submit of 'c cmd list
      (** every command accepted between two steps, one frame *)
  | Inner of int * 'c cmd list Quorum_paxos.msg

(** Outputs: decided log entries, emitted by every process in log order
    (log index, command) — indices are consecutive from 0 regardless of
    batch boundaries. *)
val protocol :
  ('c state, 'c msg, Sim.Pid.t * Sim.Pidset.t, 'c, int * 'c cmd)
  Sim.Protocol.t

(** [make ~window ~batch_max ()] — the configurable instantiation.
    [window] (default 1) caps in-flight instances; [batch_max] (default
    1024) caps commands per batch.  {!protocol} is [make ()].

    Safety note for hosts that derive configuration from the log itself
    ([Shard.Replica]): the epoch-handoff argument requires every proposer
    of instance [j] to have applied the same prefix, which holds only at
    [window = 1].  Static-membership hosts ([Net.Smr_node]) may pipeline
    freely. *)
val make :
  ?window:int ->
  ?batch_max:int ->
  unit ->
  ('c state, 'c msg, Sim.Pid.t * Sim.Pidset.t, 'c, int * 'c cmd)
  Sim.Protocol.t

(** Number of log entries (commands) a process has applied. *)
val applied : 'c state -> int

(** Number of consensus instances applied — the cursor snapshot exchange
    runs on ({!decided_from} / {!install} are instance-granular). *)
val applied_instances : 'c state -> int

(** Commands known to a process but not yet decided (pending + in-flight
    proposals). *)
val backlog : 'c state -> int

(** Number of commands this process has submitted via [on_input] — the next
    submission gets this as its [seq].  Client front-ends use it to pair a
    submission with its decided log entry. *)
val submitted : 'c state -> int

(** Number of Paxos instance states this process has created (as proposer
    or acceptor) — exposed so tests can assert that idle ticks and empty
    queues burn no instances.  An instance already decided when its first
    message arrives creates none. *)
val instances_touched : 'c state -> int

(** Number of Paxos instance states currently held: the undecided
    instances only — at most the window plus stragglers, never the
    instance history. *)
val live_instances : 'c state -> int

(** {2 Snapshot plumbing}

    Log catch-up for processes that missed decisions (a partitioned
    straggler, a member installed by a reconfiguration): any process can
    serve its gapless decided prefix, and the receiver installs it without
    re-running consensus — the decided instances are already fixed.
    [Shard.Replica] builds its snapshot-request / snapshot-reply exchange
    on these. *)

(** [slot_of_msg m] is the consensus instance an inner message belongs to
    ([None] for command dissemination) — how a host protocol notices it is
    lagging behind the instances its peers are working on. *)
val slot_of_msg : 'c msg -> int option

(** [decided_from st ~from] is the gapless run of decided batches starting
    at instance [from]; [limit] (default 512) bounds the total *command*
    count so one snapshot-reply frame stays small. *)
val decided_from :
  ?limit:int -> 'c state -> from:int -> (int * 'c cmd list) list

(** [install st entries] records decided batches from a snapshot.
    Idempotent — already-decided instances are untouched and the
    apply-time guard holds across overlapping or replayed snapshots,
    so a command can never be applied twice.  Returns the log entries
    that became applicable (in log order) for the host to emit as
    outputs. *)
val install :
  'c state -> (int * 'c cmd list) list -> 'c state * (int * 'c cmd) list
