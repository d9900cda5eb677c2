(* Find the classical two-phase-commit blocking scenario automatically.

   2PC has no failure detector: if the coordinator crashes after collecting
   the votes but before broadcasting the outcome, every participant waits
   forever.  This is the motivating gap for the paper's NBAC section — and
   a one-liner for the model checker: the crash-injection adversary
   enumerates failure patterns, the exhaustive explorer enumerates
   schedules under each, the NBAC invariant flags the run where a correct
   participant can never learn the outcome, and the shrinker reduces the
   counterexample to its essence (one coordinator crash, no scheduling
   constraints needed).

     dune exec examples/find_2pc_blocking.exe
*)

let () =
  let n = 3 in
  Format.printf
    "Searching for a blocking run of 2PC (n=%d, all vote Yes, at most one \
     crash)...@.@."
    n;
  let target = Mc.Targets.two_phase_commit ~n in
  let r =
    Mc.Parallel.search
      ~opts:{ Mc.Harness.default_opts with budget = 100_000 }
      target ~n
  in
  Format.printf
    "explored %d failure patterns, %d schedules (%d process steps)@.@."
    r.Mc.Crash_adversary.patterns r.Mc.Crash_adversary.schedules
    r.Mc.Crash_adversary.steps;
  match r.Mc.Crash_adversary.counterexample with
  | None -> Format.printf "no blocking run found (unexpected!)@."
  | Some c ->
    Format.printf "%a@.@." Mc.Harness.pp_counterexample c;
    (* replay the serialized schedule to demonstrate reproducibility *)
    let schedule =
      Mc.Schedule.of_string (Mc.Schedule.to_string c.Mc.Harness.schedule)
    in
    let rep = Mc.Harness.replay target ~n schedule in
    Format.printf "replaying '%s':@." (Mc.Schedule.to_string schedule);
    (match rep.Mc.Harness.violation with
    | Some reason -> Format.printf "  reproduced: %s@.@." reason
    | None -> Format.printf "  did NOT reproduce (unexpected!)@.@.");
    Format.printf
      "Compare: NBAC from (Psi, FS) decides in this very scenario — run@.  \
       dune exec examples/bank_commit.exe@."
