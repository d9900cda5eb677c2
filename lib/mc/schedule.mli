(** Replayable schedules: the serialized form of a counterexample.

    A schedule fixes everything the adversary controls in a run: the
    failure pattern (as a crash list) and the sequence of choice-point
    indices the scheduler resolved (see {!Sim.Scheduler}).  Re-running the
    same protocol configuration under [Scheduler.replay choices
    ~rest:Scheduler.first] with the same failure pattern reproduces the
    run — and therefore the violation — exactly. *)

type t = {
  crashes : (Sim.Pid.t * int) list;  (** [(pid, crash time)] *)
  choices : int list;  (** recorded choice indices, oldest first *)
}

val empty : t
val make : ?crashes:(Sim.Pid.t * int) list -> int list -> t

(** Extract the crash list from a failure pattern. *)
val of_fp : Sim.Failure_pattern.t -> int list -> t

(** Rebuild the failure pattern ([invalid_arg] on a malformed crash list). *)
val fp : n:int -> t -> Sim.Failure_pattern.t

(** Number of recorded choices. *)
val length : t -> int

(** [take_prefix choices i] is the first [i] recorded choices of a run, as
    a prefix to extend with a sibling choice; the explorers' one way of
    cutting a run's choice array. *)
val take_prefix : int array -> int -> int list

(** Round-trippable textual form, e.g. ["crashes=0@3;choices=1,0,2"]. *)
val to_string : t -> string

(** Inverse of [to_string]; [invalid_arg] on malformed input. *)
val of_string : string -> t

val pp : Format.formatter -> t -> unit

(** Hash tables keyed by a choice prefix.  The hash folds every element
    of the list (polymorphic [Hashtbl.hash] reads only its first few
    cells, so prefixes sharing a long start would share a bucket);
    equality is exact. *)
module Prefix_tbl : Hashtbl.S with type key = int list
