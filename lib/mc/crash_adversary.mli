(** Crash-injection adversary: the failure patterns a search quantifies
    over, and the report of a search over patterns x schedules.

    Patterns have at most [max_crashes] crashed processes, each crash
    falling on the time grid [0, stride, 2*stride, ... <= horizon]
    (fewest crashes first, starting with the failure-free pattern —
    crashes can mask process-specific bugs, and a counterexample should
    use as few failures as the bug needs).  {!Parallel.search} runs an
    inner schedule explorer under each pattern.  The resulting
    counterexample carries its failure pattern inside the schedule, so
    replaying it reproduces both the crashes and the ordering. *)

type report = {
  counterexample : Harness.counterexample option;
  patterns : int;  (** failure patterns explored *)
  schedules : int;  (** total runs across all patterns *)
  steps : int;
  complete : bool;
      (** true iff every pattern's schedule space was exhausted — only
          possible with the [`Exhaustive] and [`Dpor] inner explorers
          within budget *)
}

(** The enumerated failure patterns (exposed for tests and the CLI). *)
val patterns :
  n:int ->
  max_crashes:int ->
  horizon:int ->
  stride:int ->
  Sim.Failure_pattern.t list
