(** Reliable links over a lossy transport: the paper's link axiom as a
    wrapper (docs/FAULTS.md).

    Every protocol automaton in this repository is written against the
    model's links — {e reliable delivery between correct processes}, no
    duplication — and indeed a single lost [Prepare] or [Submit] can stall
    an SMR slot forever (the leader waits for promises that will never
    come, and nothing in the automaton retransmits: the model says it does
    not have to).  {!Nemesis} deliberately violates that axiom.  [Rel] is
    the standard answer, a sequence-and-retransmit (ARQ) layer that
    restores it:

    - every data frame to a peer carries a per-pair sequence number;
    - the receiver delivers in sequence order exactly once (duplicates are
      filtered, out-of-order frames buffered) and acknowledges
      cumulatively;
    - the sender retransmits unacknowledged frames until acknowledged, at
      a scan every [resend_every] of its own [poll] calls (one per node
      step).  The timer restarts on ack progress (RFC 6298 §5.3): a scan
      skips a peer whose cumulative ack advanced since the previous scan
      while its oldest unacked frame is at most two intervals old, so
      frames merely in flight are not resent; a lost frame stalls the ack
      and is resent by the third scan after its first send.

    Acknowledgements themselves travel through the wrapped transport, so
    the adversary can drop or delay them too — retransmission covers both
    directions.  Frames to [self] bypass the layer untouched.

    The guarantee, and its price: between processes that keep polling, a
    frame sent is eventually delivered, exactly once, in send order —
    through any finite sequence of nemesis faults, including a partition,
    whose backlog drains after heal (this is what makes survivor logs
    converge in {!Chaos} runs).  A frame to a {e crashed} process is
    retransmitted forever; that unbounded queue is the model's own
    asymmetry (a sender can never distinguish crashed from slow — exactly
    why failure detectors exist), bounded in practice by the run length. *)

type t

(** [wrap ?resend_every ?metrics inner] — retransmission scan runs every
    [resend_every] polls (default 64; lower = chattier, faster recovery).
    [metrics] receives [net.retransmits] / [net.dup_filtered] /
    [net.resequenced] counters, and [net.rel_malformed] for received
    frames shorter than the header or with an unknown tag (dropped). *)
val wrap : ?resend_every:int -> ?metrics:Obs.Metrics.t -> Transport.t -> t

val transport : t -> Transport.t

type stats = {
  retransmits : int;  (** data frames sent again by the resend scan *)
  dup_filtered : int;  (** received data frames below the delivery cursor *)
  resequenced : int;  (** frames buffered out of order, delivered later *)
  unacked : int;  (** data frames currently awaiting acknowledgement *)
}

val stats : t -> stats

(** Deep digest of the layer's state (cursors, unacked frames, reorder
    buffers, resend clock and ack-progress marks), for model-checking
    visited-state pruning. *)
val digest : t -> int
