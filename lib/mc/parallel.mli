(** The crash-adversary search, on a pool of OCaml 5 domains.

    [search] runs an inner explorer under each failure pattern, patterns
    fewest-crashes-first, with [opts.budget] schedules in total and at
    most [opts.inner_budget] per pattern, stopping at the first
    counterexample:

    - [`Exhaustive]: {!Exhaustive.search} on the pool.  Its FIFO frontier
      is drained in chunks run in parallel and adjudicated in queue order
      against the exact seen-set (see {!Exhaustive}).
    - [`Pct] / [`Random]: chunks of run indices on the pool; run [i] of
      pattern [p] draws its stream from [(opts.seed, p, i)], whichever
      domain executes it, and runs are accounted in index order.
    - [`Dpor]: {!Dpor.search} on the calling domain (its backtrack sets
      are computed along one sequential exploration).

    The report — counterexample, pattern/schedule/step counts,
    completeness — is the same for every [opts.domains], including 1.
    [opts.domains] is a cap: the pool never exceeds
    [Domain.recommended_domain_count ()], and one domain spawns
    nothing. *)

(** [search ~opts target ~n] explores failure patterns × schedules.
    [?fps] overrides the enumerated failure patterns (e.g. a single
    scenario pattern); by default they are {!Crash_adversary.patterns}
    from [opts].  [opts.d] falls back to 3 when [None]; callers wanting
    rejection of meaningless combinations should run
    {!Harness.validate_opts} first. *)
val search :
  opts:Harness.opts ->
  ?fps:Sim.Failure_pattern.t list ->
  ('st, 'msg, 'fd, 'inp, 'out) Harness.target ->
  n:int ->
  Crash_adversary.report
