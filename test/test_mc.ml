(* Tier-1 tests for the model-checking subsystem: the exhaustive explorer
   proves small instances of the paper's algorithms correct, and the same
   machinery catches planted bugs (broken validity) and the classical 2PC
   blocking scenario with replayable, shrunk counterexamples. *)

let ff n = Sim.Failure_pattern.failure_free n

(* The crash adversary on its default grid: at most one crash, at times
   0, 2 and 4. *)
let adversary ?(explorer = `Exhaustive) ?(budget = 20_000)
    ?(inner_budget = 2_000) ?(horizon = 4) t ~n =
  Mc.Parallel.search
    ~opts:
      { Mc.Harness.default_opts with explorer; budget; inner_budget; horizon }
    t ~n

(* ---- schedules round-trip ----------------------------------------- *)

let test_schedule_roundtrip () =
  let cases =
    [
      Mc.Schedule.empty;
      Mc.Schedule.make [ 1; 0; 2; 0 ];
      Mc.Schedule.make ~crashes:[ (0, 3) ] [];
      Mc.Schedule.make ~crashes:[ (2, 0); (0, 7) ] [ 0; 0; 1 ];
    ]
  in
  List.iter
    (fun s ->
      let s' = Mc.Schedule.of_string (Mc.Schedule.to_string s) in
      Alcotest.(check string)
        "schedule round-trips"
        (Mc.Schedule.to_string s)
        (Mc.Schedule.to_string s'))
    cases;
  Alcotest.check_raises "malformed schedule rejected"
    (Invalid_argument "Schedule.of_string: cannot parse nonsense") (fun () ->
      ignore (Mc.Schedule.of_string "nonsense"))

(* ---- the verification direction: no violations exist ---------------- *)

let test_exhaustive_quorum_paxos () =
  let t = Mc.Targets.quorum_paxos ~n:2 in
  let r = Mc.Exhaustive.search ~budget:50_000 t ~fp:(ff 2) in
  Alcotest.(check bool) "space exhausted" true r.Mc.Exhaustive.complete;
  Alcotest.(check bool)
    "no violation in any schedule" true
    (r.Mc.Exhaustive.counterexample = None);
  Alcotest.(check bool) "explored more than one schedule" true
    (r.Mc.Exhaustive.schedules > 1)

let test_exhaustive_quorum_paxos_with_crash () =
  let t = Mc.Targets.quorum_paxos ~n:2 in
  let r = adversary ~budget:50_000 t ~n:2 in
  Alcotest.(check bool) "all patterns exhausted" true
    r.Mc.Crash_adversary.complete;
  Alcotest.(check bool)
    "no violation under any failure pattern" true
    (r.Mc.Crash_adversary.counterexample = None);
  Alcotest.(check bool) "several patterns tried" true
    (r.Mc.Crash_adversary.patterns > 1)

let test_exhaustive_abd () =
  let t = Mc.Targets.abd ~n:2 in
  let r = Mc.Exhaustive.search ~budget:50_000 t ~fp:(ff 2) in
  Alcotest.(check bool) "space exhausted" true r.Mc.Exhaustive.complete;
  Alcotest.(check bool)
    "every schedule linearizable" true
    (r.Mc.Exhaustive.counterexample = None)

(* ---- the falsification direction: planted bugs are caught ----------- *)

let test_exhaustive_catches_broken_validity () =
  let t = Mc.Targets.broken_validity ~n:2 in
  let r = Mc.Exhaustive.search ~budget:10_000 t ~fp:(ff 2) in
  match r.Mc.Exhaustive.counterexample with
  | None -> Alcotest.fail "planted validity bug not found"
  | Some c ->
    Alcotest.(check bool) "counterexample was shrunk" true c.Mc.Harness.shrunk;
    Alcotest.(check bool)
      "reason names validity" true
      (String.length c.Mc.Harness.reason >= 8
      && String.sub c.Mc.Harness.reason 0 8 = "validity");
    (* the serialized schedule replays to the same violation *)
    let s = Mc.Schedule.of_string (Mc.Schedule.to_string c.Mc.Harness.schedule) in
    Alcotest.(check bool) "replay reproduces the violation" true
      (Mc.Harness.violates t ~n:2 s)

let test_pct_catches_broken_validity () =
  let t = Mc.Targets.broken_validity ~n:3 in
  let r = Mc.Pct.search ~budget:200 ~d:3 t ~fp:(ff 3) in
  match r.Mc.Pct.counterexample with
  | None -> Alcotest.fail "PCT did not find the planted validity bug"
  | Some c ->
    Alcotest.(check bool) "replay reproduces" true
      (Mc.Harness.violates t ~n:3 c.Mc.Harness.schedule)

let test_crash_adversary_finds_2pc_blocking () =
  let t = Mc.Targets.two_phase_commit ~n:2 in
  let r = adversary ~budget:50_000 t ~n:2 in
  match r.Mc.Crash_adversary.counterexample with
  | None -> Alcotest.fail "2PC blocking not found by the crash adversary"
  | Some c ->
    Alcotest.(check bool)
      "the blocking run needs a crash" true
      (c.Mc.Harness.schedule.Mc.Schedule.crashes <> []);
    Alcotest.(check bool) "counterexample was shrunk" true c.Mc.Harness.shrunk;
    Alcotest.(check bool)
      "reason names termination" true
      (String.length c.Mc.Harness.reason >= 11
      && String.sub c.Mc.Harness.reason 0 11 = "termination");
    (* round-trip through the textual form, then replay *)
    let s = Mc.Schedule.of_string (Mc.Schedule.to_string c.Mc.Harness.schedule) in
    let rep = Mc.Harness.replay t ~n:2 s in
    Alcotest.(check bool) "replay reproduces the blocking" true
      (rep.Mc.Harness.violation <> None)

let test_qc_psi_survives_crash_adversary () =
  (* the same adversary that breaks 2PC: QC from Psi must stay clean —
     with a failure it may Quit, without one it must decide a proposal *)
  let t = Mc.Targets.qc_psi ~n:2 in
  let r = adversary ~explorer:`Random ~budget:600 ~inner_budget:100 t ~n:2 in
  (match r.Mc.Crash_adversary.counterexample with
  | None -> ()
  | Some c ->
    Alcotest.failf "QC violated: %s"
      (Format.asprintf "%a" Mc.Harness.pp_counterexample c));
  Alcotest.(check bool) "several patterns tried" true
    (r.Mc.Crash_adversary.patterns > 1)

(* ---- shrinking ------------------------------------------------------ *)

let test_shrinker_minimizes () =
  let t = Mc.Targets.broken_validity ~n:2 in
  (* pad a violating schedule with junk choices and a redundant crash on
     process 1 (the bug lives in process 0's output) *)
  let noisy =
    Mc.Schedule.make ~crashes:[ (1, 4) ] [ 1; 1; 1; 0; 1; 0; 1; 1; 0; 1 ]
  in
  Alcotest.(check bool) "noisy schedule violates" true
    (Mc.Harness.violates t ~n:2 noisy);
  let shrunk, replays = Mc.Shrink.minimize
      ~violates:(fun s -> Mc.Harness.violates t ~n:2 s)
      noisy
  in
  Alcotest.(check bool) "shrunk schedule still violates" true
    (Mc.Harness.violates t ~n:2 shrunk);
  Alcotest.(check (list (pair int int))) "redundant crash dropped" []
    shrunk.Mc.Schedule.crashes;
  Alcotest.(check int) "all junk choices dropped" 0
    (Mc.Schedule.length shrunk);
  Alcotest.(check bool) "within replay budget" true (replays <= 400)

(* Quality contract on what the searches actually hand the user: a shrunk
   counterexample (1) still violates, (2) replays byte-identically — the
   whole report, outputs and all, serialized with closures — and (3) is a
   fixed point of the shrinker, so re-shrinking a reported schedule never
   changes it. *)
let bytes_of_report r = Marshal.to_bytes r [ Marshal.Closures ]

let check_shrink_quality name t ~n (c : Mc.Harness.counterexample) =
  let s = c.Mc.Harness.schedule in
  Alcotest.(check bool) (name ^ ": shrunk still violates") true
    (Mc.Harness.violates t ~n s);
  let r1 = Mc.Harness.replay t ~n s and r2 = Mc.Harness.replay t ~n s in
  Alcotest.(check bool)
    (name ^ ": replay is byte-identical")
    true
    (Bytes.equal (bytes_of_report r1) (bytes_of_report r2));
  let s', _ =
    Mc.Shrink.minimize ~violates:(fun x -> Mc.Harness.violates t ~n x) s
  in
  Alcotest.(check string)
    (name ^ ": shrinking is idempotent")
    (Mc.Schedule.to_string s)
    (Mc.Schedule.to_string s')

let test_shrunk_counterexample_quality () =
  (let t = Mc.Targets.broken_validity ~n:2 in
   let r = Mc.Exhaustive.search ~budget:10_000 t ~fp:(ff 2) in
   match r.Mc.Exhaustive.counterexample with
   | None -> Alcotest.fail "broken validity not found"
   | Some c -> check_shrink_quality "broken-validity" t ~n:2 c);
  let t = Mc.Targets.two_phase_commit ~n:2 in
  let r = adversary ~budget:50_000 t ~n:2 in
  match r.Mc.Crash_adversary.counterexample with
  | None -> Alcotest.fail "2pc blocking not found"
  | Some c -> check_shrink_quality "2pc-blocking" t ~n:2 c

let test_shrink_idempotent_under_noise () =
  (* Sweep random noisy violating schedules: minimization must land on a
     fixed point every time, not just on the hand-picked example above. *)
  let t = Mc.Targets.broken_validity ~n:2 in
  let violates s = Mc.Harness.violates t ~n:2 s in
  let exercised = ref 0 in
  for seed = 1 to 12 do
    let rng = Sim.Rng.make (seed * 37) in
    let noise =
      List.init (5 + Sim.Rng.int rng 10) (fun _ -> Sim.Rng.int rng 2)
    in
    let crashes = if Sim.Rng.bool rng then [ (1, Sim.Rng.int rng 6) ] else [] in
    let noisy = Mc.Schedule.make ~crashes noise in
    if violates noisy then begin
      incr exercised;
      let s1, _ = Mc.Shrink.minimize ~violates noisy in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: minimized still violates" seed)
        true (violates s1);
      let s2, _ = Mc.Shrink.minimize ~violates s1 in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: minimization is a fixed point" seed)
        (Mc.Schedule.to_string s1)
        (Mc.Schedule.to_string s2)
    end
  done;
  Alcotest.(check bool) "sweep exercised violating schedules" true
    (!exercised > 0)

(* ---- core integration ----------------------------------------------- *)

let opts = Core.Runner.mc_default_opts

let test_runner_model_check () =
  (match
     Core.Runner.model_check
       ~opts:{ opts with Core.Runner.budget = 50_000 }
       "cons.quorum_paxos" ~n:2
   with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check bool) "quorum paxos clean" true
      (s.Core.Runner.counterexample = None);
    Alcotest.(check bool) "exhausted" true s.Core.Runner.exhausted);
  (match
     Core.Runner.model_check
       ~opts:{ opts with Core.Runner.explorer = `Random }
       "no.such.target" ~n:2
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown target accepted");
  match
    Core.Runner.model_check_scenario
      ~opts:{ opts with Core.Runner.budget = 5_000 }
      "cons.broken_validity"
      (Core.Scenario.failure_free ~n:2)
  with
  | Error e -> Alcotest.fail e
  | Ok s -> (
    match s.Core.Runner.counterexample with
    | None -> Alcotest.fail "scenario model check missed the planted bug"
    | Some c ->
      let r =
        Core.Runner.mc_replay "cons.broken_validity" ~n:2 ~seed:1
          ~schedule:(Mc.Schedule.to_string c.Mc.Harness.schedule)
      in
      (match r with
      | Error e -> Alcotest.fail e
      | Ok rep ->
        Alcotest.(check bool) "CLI-level replay reproduces" true
          (rep.Core.Runner.re_violation <> None)))

(* ---- parallel exploration ------------------------------------------- *)

let contains s affix =
  let ls = String.length s and la = String.length affix in
  let rec go i = i + la <= ls && (String.sub s i la = affix || go (i + 1)) in
  go 0

(* The whole determinism contract in one string: pattern/schedule/step
   counts, exhaustion, and the (shrunk) counterexample. *)
let summary_string name ~n o =
  match Core.Runner.model_check ~opts:o name ~n with
  | Error e -> Alcotest.fail e
  | Ok s -> Format.asprintf "%a" Core.Runner.pp_mc_summary s

let check_domain_independent ?(domains = [ 2; 4 ]) name ~n o =
  let reference = summary_string name ~n { o with Core.Runner.domains = 1 } in
  List.iter
    (fun k ->
      Alcotest.(check string)
        (Printf.sprintf "%s: domains=%d == domains=1" name k)
        reference
        (summary_string name ~n { o with Core.Runner.domains = k }))
    domains;
  reference

let test_parallel_matches_sequential_2pc () =
  (* exhaustive crash adversary finds the 2PC blocking counterexample;
     every domain count must report the same one, byte for byte *)
  let s =
    check_domain_independent "qcnbac.two_phase_commit" ~n:2
      { opts with Core.Runner.budget = 50_000 }
  in
  Alcotest.(check bool) "blocking found" true
    (contains s "VIOLATION")

let test_parallel_matches_sequential_broken_validity () =
  let s =
    check_domain_independent "cons.broken_validity" ~n:2
      { opts with Core.Runner.budget = 10_000 }
  in
  Alcotest.(check bool) "planted bug found" true
    (contains s "VIOLATION")

let test_parallel_matches_sequential_clean_exhausted () =
  (* no-counterexample direction: patterns/schedules counts of a fully
     exhausted space must also be domain-count independent *)
  let s =
    check_domain_independent "cons.quorum_paxos" ~n:2
      { opts with Core.Runner.budget = 50_000 }
  in
  Alcotest.(check bool) "space exhausted" true
    (contains s "exhausted")

let test_parallel_budget_bounded () =
  (* the budget runs out inside the second pattern, so the same prefixes
     — not just as many — must be run at every domain count; the counts
     are the one-domain search's *)
  let o = { opts with Core.Runner.budget = 3_000 } in
  ignore (check_domain_independent "regs.abd" ~n:3 o);
  match Core.Runner.model_check ~opts:o "regs.abd" ~n:3 with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check int) "patterns" 2 s.Core.Runner.patterns;
    Alcotest.(check int) "schedules" 3_000 s.Core.Runner.schedules;
    Alcotest.(check int) "steps" 136_440 s.Core.Runner.mc_steps;
    Alcotest.(check bool) "budget-bounded" false s.Core.Runner.exhausted

let test_parallel_sampled_explorers () =
  ignore
    (check_domain_independent "cons.broken_validity" ~n:3
       { opts with Core.Runner.explorer = `Pct; d = Some 3; budget = 400 });
  ignore
    (check_domain_independent "cons.broken_validity" ~n:2
       { opts with Core.Runner.explorer = `Random; budget = 400 })

let test_parallel_cancellation_stress () =
  (* stopping at the first counterexample must never lose a violation that
     a single-domain search reports: sweep seeds so the violation lands at
     different points of a chunk *)
  List.iter
    (fun seed ->
      let o =
        { opts with Core.Runner.explorer = `Random; budget = 300; seed }
      in
      let reference =
        summary_string "cons.broken_validity" ~n:2
          { o with Core.Runner.domains = 1 }
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: single-domain search finds the bug" seed)
        true
        (contains reference "VIOLATION");
      Alcotest.(check string)
        (Printf.sprintf "seed %d: domains=4 reports the same violation" seed)
        reference
        (summary_string "cons.broken_validity" ~n:2
           { o with Core.Runner.domains = 4 }))
    (List.init 12 (fun i -> i + 1))

let test_opts_validation () =
  (match
     Core.Runner.model_check
       ~opts:{ opts with Core.Runner.d = Some 3 }
       "cons.quorum_paxos" ~n:2
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "PCT depth with exhaustive explorer accepted");
  (match
     Core.Runner.model_check
       ~opts:{ opts with Core.Runner.explorer = `Random; d = Some 2 }
       "cons.quorum_paxos" ~n:2
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "PCT depth with random explorer accepted");
  match
    Core.Runner.model_check
      ~opts:{ opts with Core.Runner.domains = 0 }
      "cons.quorum_paxos" ~n:2
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "domains=0 accepted"

(* ---- dpor: partial-order reduction, identical verdicts -------------- *)

let test_dpor_abd_reduction () =
  let t = Mc.Targets.abd ~n:2 in
  let ex = Mc.Exhaustive.search ~budget:50_000 t ~fp:(ff 2) in
  let dp = Mc.Dpor.search ~budget:50_000 t ~fp:(ff 2) in
  Alcotest.(check bool) "exhaustive complete" true ex.Mc.Exhaustive.complete;
  Alcotest.(check bool) "dpor complete" true dp.Mc.Exhaustive.complete;
  Alcotest.(check bool)
    "both clean" true
    (ex.Mc.Exhaustive.counterexample = None
    && dp.Mc.Exhaustive.counterexample = None);
  Alcotest.(check bool)
    (Printf.sprintf "dpor explores >= 3x fewer schedules (%d vs %d)"
       dp.Mc.Exhaustive.schedules ex.Mc.Exhaustive.schedules)
    true
    (dp.Mc.Exhaustive.schedules * 3 <= ex.Mc.Exhaustive.schedules)

let test_dpor_paxos_parity () =
  let t = Mc.Targets.quorum_paxos ~n:2 in
  let ex = Mc.Exhaustive.search ~budget:50_000 t ~fp:(ff 2) in
  let dp = Mc.Dpor.search ~budget:50_000 t ~fp:(ff 2) in
  Alcotest.(check bool) "both complete" true
    (ex.Mc.Exhaustive.complete && dp.Mc.Exhaustive.complete);
  Alcotest.(check bool)
    "both clean" true
    (ex.Mc.Exhaustive.counterexample = None
    && dp.Mc.Exhaustive.counterexample = None);
  Alcotest.(check bool) "dpor explores a subset" true
    (dp.Mc.Exhaustive.schedules <= ex.Mc.Exhaustive.schedules)

let test_dpor_broken_validity_same_cex () =
  let t = Mc.Targets.broken_validity ~n:2 in
  let ex = Mc.Exhaustive.search ~budget:10_000 t ~fp:(ff 2) in
  let dp = Mc.Dpor.search ~budget:10_000 t ~fp:(ff 2) in
  match (ex.Mc.Exhaustive.counterexample, dp.Mc.Exhaustive.counterexample) with
  | Some ec, Some dc ->
    Alcotest.(check string)
      "identical violation reason" ec.Mc.Harness.reason dc.Mc.Harness.reason;
    Alcotest.(check bool) "dpor counterexample replays" true
      (Mc.Harness.violates t ~n:2 dc.Mc.Harness.schedule)
  | _ -> Alcotest.fail "planted bug missed by one of the explorers"

let test_dpor_2pc_adversary_parity () =
  let t = Mc.Targets.two_phase_commit ~n:2 in
  let search explorer = adversary ~explorer ~budget:50_000 t ~n:2 in
  let ex = search `Exhaustive and dp = search `Dpor in
  match
    (ex.Mc.Crash_adversary.counterexample, dp.Mc.Crash_adversary.counterexample)
  with
  | Some ec, Some dc ->
    Alcotest.(check string)
      "identical blocking reason" ec.Mc.Harness.reason dc.Mc.Harness.reason;
    Alcotest.(check bool) "dpor explores fewer-or-equal schedules" true
      (dp.Mc.Crash_adversary.schedules <= ex.Mc.Crash_adversary.schedules);
    Alcotest.(check bool)
      "blocking needs a crash" true
      (dc.Mc.Harness.schedule.Mc.Schedule.crashes <> [])
  | _ -> Alcotest.fail "2PC blocking missed by one of the explorers"

let test_dpor_time_varying_fd_degenerates () =
  (* Psi's sampled history is time-varying ([time_invariant_fd = false]),
     which disables the reduction's soundness precondition: DPOR must
     degenerate to exactly the exhaustive search, same counts and all. *)
  let t = Mc.Targets.qc_psi ~n:2 in
  let ex = Mc.Exhaustive.search ~budget:100 t ~fp:(ff 2) in
  let dp = Mc.Dpor.search ~budget:100 t ~fp:(ff 2) in
  Alcotest.(check int)
    "identical schedule count" ex.Mc.Exhaustive.schedules
    dp.Mc.Exhaustive.schedules;
  Alcotest.(check int)
    "identical step count" ex.Mc.Exhaustive.steps dp.Mc.Exhaustive.steps;
  Alcotest.(check bool)
    "identical verdict" true
    (ex.Mc.Exhaustive.counterexample = None
    && dp.Mc.Exhaustive.counterexample = None)

(* Soundness of the independence relation, property-style: for random
   (target, failure pattern) configurations, DPOR and exhaustive search
   must agree on completeness and verdict, and DPOR must never explore
   more schedules.  A reduction that swapped two dependent steps would
   show up here as a verdict mismatch. *)
let prop_dpor_verdict_parity =
  QCheck.Test.make ~name:"dpor: verdict parity on random crash patterns"
    ~count:12
    QCheck.(triple (0 -- 2) (0 -- 1) (0 -- 6))
    (fun (ti, pid, time) ->
      let name =
        List.nth
          [ "regs.abd"; "cons.quorum_paxos"; "qcnbac.two_phase_commit" ]
          ti
      in
      let fp =
        if time = 6 then ff 2 else Sim.Failure_pattern.make ~n:2 [ (pid, time) ]
      in
      match Mc.Targets.find name ~n:2 with
      | None -> false
      | Some (Mc.Targets.Packed t) ->
        let ex = Mc.Exhaustive.search ~budget:2_000 ~shrink:false t ~fp in
        let dp = Mc.Dpor.search ~budget:2_000 ~shrink:false t ~fp in
        if ex.Mc.Exhaustive.complete then
          dp.Mc.Exhaustive.complete
          && (ex.Mc.Exhaustive.counterexample = None)
             = (dp.Mc.Exhaustive.counterexample = None)
          && dp.Mc.Exhaustive.schedules <= ex.Mc.Exhaustive.schedules
        else true)

(* ---- the former bug-hunting mode's contracts ------------------------ *)

(* These two tests were written for a racing "unordered" search that no
   longer exists; the properties they check hold of the one search. *)

let test_unordered_sampled_accounting () =
  (* Step/schedule accounting counts the search, not racing artifacts: a
     clean sampled drain reports exactly its budget at every domain
     count. *)
  List.iter
    (fun domains ->
      match
        Core.Runner.model_check
          ~opts:
            { opts with Core.Runner.explorer = `Random; budget = 300; domains }
          "cons.quorum_paxos" ~n:2
      with
      | Error e -> Alcotest.fail e
      | Ok s ->
        Alcotest.(check int)
          (Printf.sprintf "domains=%d: schedules == budget" domains)
          300 s.Core.Runner.schedules)
    [ 1; 4 ]

let test_unordered_exhaustive_verdicts () =
  (* whether a counterexample exists, and whether a clean space drains,
     does not depend on the domain count *)
  (match
     Core.Runner.model_check
       ~opts:{ opts with Core.Runner.budget = 10_000; domains = 4 }
       "cons.broken_validity" ~n:2
   with
  | Error e -> Alcotest.fail e
  | Ok s -> (
    match s.Core.Runner.counterexample with
    | None -> Alcotest.fail "4-domain search missed the planted bug"
    | Some c ->
      Alcotest.(check bool) "counterexample replays" true
        (Mc.Harness.violates (Mc.Targets.broken_validity ~n:2) ~n:2
           c.Mc.Harness.schedule)));
  match
    Core.Runner.model_check
      ~opts:{ opts with Core.Runner.budget = 50_000; domains = 4 }
      "cons.quorum_paxos" ~n:2
  with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check bool) "clean space drains completely" true
      s.Core.Runner.exhausted;
    Alcotest.(check bool) "no violation" true
      (s.Core.Runner.counterexample = None)

(* ---- the production net stack, model-checked ------------------------ *)

let test_net_raw_reorder_caught_and_shrunk () =
  (* positive control: without an ARQ the reordering hub violates the
     link axiom, and the harness finds, shrinks and replays it *)
  let t = Mc.Net_targets.seq_raw_reorder ~n:2 ~m:2 in
  let r = Mc.Net_harness.search ~budget:2_000 t in
  match r.Mc.Exhaustive.counterexample with
  | None -> Alcotest.fail "raw reordering hub passed the link axiom"
  | Some c ->
    Alcotest.(check bool) "counterexample was shrunk" true c.Mc.Harness.shrunk;
    Alcotest.(check bool)
      "reason names the delivery order" true
      (contains c.Mc.Harness.reason "delivered");
    Alcotest.(check bool) "shrunk schedule still violates" true
      (Mc.Net_harness.violates t c.Mc.Harness.schedule);
    (* round-trip through the serialized form, then replay *)
    let s =
      Mc.Schedule.of_string (Mc.Schedule.to_string c.Mc.Harness.schedule)
    in
    let rep = Mc.Net_harness.replay t s in
    Alcotest.(check bool) "replay reproduces the violation" true
      (rep.Mc.Net_harness.violation <> None)

let test_net_broken_arq_loses_message () =
  (* the planted net-layer bug: acking the highest sequence seen instead
     of cumulatively loses the dropped frame forever *)
  let t = Mc.Net_targets.seq_broken_arq ~n:2 ~m:2 in
  let r = Mc.Net_harness.search ~budget:2_000 t in
  match r.Mc.Exhaustive.counterexample with
  | None -> Alcotest.fail "broken ARQ passed the link axiom"
  | Some c ->
    Alcotest.(check bool)
      "reason names the lost message" true
      (contains c.Mc.Harness.reason "lost in the link layer");
    Alcotest.(check bool) "counterexample was shrunk" true c.Mc.Harness.shrunk;
    let rep = Mc.Net_harness.replay t c.Mc.Harness.schedule in
    Alcotest.(check bool) "replay reproduces the loss" true
      (rep.Mc.Net_harness.violation <> None)

let test_net_rel_restores_link_axiom () =
  (* the production ARQ under reordering, a dropped frame and a
     duplicated frame: every schedule satisfies the link axiom *)
  let t = Mc.Net_targets.seq_rel ~n:2 ~m:1 in
  let r = Mc.Net_harness.search ~budget:5_000 t in
  Alcotest.(check bool) "space exhausted" true r.Mc.Exhaustive.complete;
  Alcotest.(check bool)
    "no violation in any schedule" true
    (r.Mc.Exhaustive.counterexample = None);
  Alcotest.(check bool) "nontrivial exploration" true
    (r.Mc.Exhaustive.schedules > 100)

let test_net_abd_over_node_rel_linearizable () =
  (* the paper's register algorithm through the real wire path: Node main
     loop, marshal codec, Rel ARQ, a dropped frame forcing a resend *)
  let t = Mc.Net_targets.abd_rel ~n:2 in
  let r = Mc.Net_harness.search ~budget:20_000 t in
  Alcotest.(check bool) "space exhausted" true r.Mc.Exhaustive.complete;
  Alcotest.(check bool)
    "linearizable in every schedule" true
    (r.Mc.Exhaustive.counterexample = None);
  Alcotest.(check bool) "nontrivial exploration" true
    (r.Mc.Exhaustive.schedules > 1_000)

(* ---- the eventually-consistent store -------------------------------- *)

let test_ec_store_exhausted () =
  (* two replicas write the same key concurrently; every delivery
     schedule must drain to equal fingerprints *)
  let t = Mc.Targets.ec_store ~n:2 in
  let r = Mc.Exhaustive.search ~budget:50_000 t ~fp:(ff 2) in
  Alcotest.(check bool) "space exhausted" true r.Mc.Exhaustive.complete;
  Alcotest.(check bool)
    "every schedule converges" true
    (r.Mc.Exhaustive.counterexample = None);
  Alcotest.(check bool) "explored more than one schedule" true
    (r.Mc.Exhaustive.schedules > 1)

let test_ec_store_crash_adversary () =
  (* a crashed replica's write may be lost, but the survivors must still
     agree among themselves — crash runs never quiesce (the survivors
     keep backed-off digesting the corpse), so this also exercises the
     step-bound liveness deadline *)
  let t = Mc.Targets.ec_store ~n:2 in
  let r = adversary t ~n:2 in
  Alcotest.(check bool) "all patterns exhausted" true
    r.Mc.Crash_adversary.complete;
  Alcotest.(check bool)
    "survivors converge under every crash" true
    (r.Mc.Crash_adversary.counterexample = None)

(* ---- the ring detector ---------------------------------------------- *)

let test_fd_ring_exhausted () =
  (* eventual leader agreement of the chain-ordered ◇S implementation,
     exhaustively at n=3 under the crash adversary: whatever the round
     interleaving and whichever single process crashes (on the default
     time grid), every correct process must settle on the smallest
     correct id within the step budget *)
  let t = Mc.Targets.fd_ring ~n:3 in
  let r = adversary ~budget:200_000 ~inner_budget:100_000 t ~n:3 in
  Alcotest.(check bool) "all patterns exhausted" true
    r.Mc.Crash_adversary.complete;
  Alcotest.(check bool)
    "leader agreement under every crash" true
    (r.Mc.Crash_adversary.counterexample = None);
  Alcotest.(check bool) "nontrivial exploration" true
    (r.Mc.Crash_adversary.schedules > 1_000)

let test_fd_ring_dpor_parity () =
  (* DPOR must reach the same (clean) verdict on a much smaller schedule
     set — the ring's point-to-point heartbeats commute aggressively *)
  let t = Mc.Targets.fd_ring ~n:3 in
  let r =
    adversary ~explorer:`Dpor ~budget:200_000 ~inner_budget:100_000 t
      ~n:3
  in
  Alcotest.(check bool) "exhausted" true r.Mc.Crash_adversary.complete;
  Alcotest.(check bool) "clean" true
    (r.Mc.Crash_adversary.counterexample = None)

let test_net_ec_converge () =
  (* three replicas over the raw reordering hub with a dropped and a
     duplicated frame: no ARQ, anti-entropy masks the loss itself *)
  let t = Mc.Net_targets.ec_converge ~n:3 in
  let r = Mc.Net_harness.search ~budget:3_000 t in
  Alcotest.(check bool)
    "no divergence in any schedule" true
    (r.Mc.Exhaustive.counterexample = None);
  Alcotest.(check bool) "nontrivial exploration" true
    (r.Mc.Exhaustive.schedules > 100)

let test_net_ec_no_sync_caught () =
  (* positive control: with anti-entropy off the writes never propagate
     and the checker reports divergent stores on the first schedule *)
  let t = Mc.Net_targets.ec_no_sync ~n:3 in
  let r = Mc.Net_harness.search ~budget:1_000 t in
  match r.Mc.Exhaustive.counterexample with
  | None -> Alcotest.fail "divergent stores not caught"
  | Some c ->
    Alcotest.(check bool)
      "reason names convergence" true
      (contains c.Mc.Harness.reason "convergence violated");
    let rep = Mc.Net_harness.replay t c.Mc.Harness.schedule in
    Alcotest.(check bool) "replay reproduces the divergence" true
      (rep.Mc.Net_harness.violation <> None)

(* ---- state machine replication -------------------------------------- *)

let test_smr_crash_adversary_n2 () =
  (* the horizon reaches the crashes that land after the faulty process's
     Propose was accepted: the survivor's own batch then loses its
     instance to the inherited one and must be re-queued *)
  let t = Mc.Targets.smr ~n:2 in
  let r = adversary ~budget:100_000 ~inner_budget:50_000 ~horizon:24 t ~n:2 in
  Alcotest.(check bool) "all patterns exhausted" true
    r.Mc.Crash_adversary.complete;
  Alcotest.(check bool)
    "prefix agreement, exactly-once, validity, termination" true
    (r.Mc.Crash_adversary.counterexample = None);
  Alcotest.(check bool) "nontrivial exploration" true
    (r.Mc.Crash_adversary.schedules > 1_000)

let test_smr_dpor_n3 () =
  let t = Mc.Targets.smr ~n:3 in
  let r =
    adversary ~explorer:`Dpor ~budget:100_000 ~inner_budget:50_000 t ~n:3
  in
  Alcotest.(check bool) "all patterns exhausted" true
    r.Mc.Crash_adversary.complete;
  Alcotest.(check bool) "clean" true
    (r.Mc.Crash_adversary.counterexample = None)

let test_smr_invariant_catches_duplicate () =
  (* a hand-built log that applies p0#0 twice, at two indices *)
  let inv =
    Mc.Invariant.smr ~submitted:[ (0, 0, "a"); (1, 0, "b") ] ()
  in
  let fp = ff 2 in
  let entry time i origin payload =
    let cmd = { Cons.Smr.origin; seq = 0; payload } in
    { Sim.Trace.time; pid = 0; value = (i, cmd) }
  in
  let good = [ entry 1 0 0 "a"; entry 2 1 1 "b" ] in
  let dup = entry 3 2 0 "a" :: List.rev good in
  Alcotest.(check bool) "the clean prefix passes" true
    (inv.Mc.Invariant.on_output fp (List.rev good) = Ok ());
  match inv.Mc.Invariant.on_output fp dup with
  | Ok () -> Alcotest.fail "duplicate entry not caught"
  | Error e ->
    Alcotest.(check bool) "reason names exactly-once" true
      (contains e "exactly-once violated")

(* ---- explorer bookkeeping: prefix tables, pinned counts, digests ----- *)

let test_prefix_tbl_full_prefix_hash () =
  (* 2000 distinct prefixes behind one 64-choice start: the shape of a
     deep DPOR frontier.  A polymorphic table hashes only the first few
     cells, so all of them share one bucket; the full-prefix table must
     spread them. *)
  let start = List.init 64 (fun i -> i mod 3) in
  let rec base3 k digits =
    if digits = 0 then [] else (k mod 3) :: base3 (k / 3) (digits - 1)
  in
  let prefixes = List.init 2000 (fun k -> start @ base3 k 7) in
  let tbl = Mc.Schedule.Prefix_tbl.create 16 in
  List.iter (fun p -> Mc.Schedule.Prefix_tbl.replace tbl p ()) prefixes;
  Alcotest.(check int) "all distinct" 2000 (Mc.Schedule.Prefix_tbl.length tbl);
  Alcotest.(check bool) "every prefix found" true
    (List.for_all (Mc.Schedule.Prefix_tbl.mem tbl) prefixes);
  Alcotest.(check bool) "a proper prefix is not a member" false
    (Mc.Schedule.Prefix_tbl.mem tbl start);
  let longest = (Mc.Schedule.Prefix_tbl.stats tbl).Hashtbl.max_bucket_length in
  Alcotest.(check bool)
    (Printf.sprintf "longest bucket %d <= 8" longest)
    true (longest <= 8);
  (* the input is adversarial for the polymorphic hash *)
  let poly = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace poly p ()) prefixes;
  Alcotest.(check int) "polymorphic table: one bucket" 2000
    (Hashtbl.stats poly).Hashtbl.max_bucket_length

(* The explored set is pinned: an explorer change that alters which
   schedules are run (not just how fast) changes these counts.  Options
   are the benchmark's mc_verify suite: at most one crash, budget
   100_000, one domain. *)
let test_pinned_sim_counts () =
  List.iter
    (fun (name, n, explorer, schedules, steps) ->
      match Mc.Targets.find name ~n with
      | None -> Alcotest.fail ("unknown target " ^ name)
      | Some (Mc.Targets.Packed t) ->
        let opts =
          {
            Mc.Harness.default_opts with
            Mc.Harness.explorer;
            domains = 1;
            budget = 100_000;
            max_crashes = 1;
          }
        in
        let r = Mc.Parallel.search ~opts t ~n in
        Alcotest.(check bool) (name ^ ": exhausted") true
          r.Mc.Crash_adversary.complete;
        Alcotest.(check bool) (name ^ ": clean") true
          (r.Mc.Crash_adversary.counterexample = None);
        Alcotest.(check int) (name ^ ": schedules") schedules
          r.Mc.Crash_adversary.schedules;
        Alcotest.(check int) (name ^ ": steps") steps r.Mc.Crash_adversary.steps)
    [
      ("qcnbac.qc_psi", 3, `Dpor, 1295, 48567);
      ("cons.quorum_paxos", 3, `Exhaustive, 1375, 20362);
      ("regs.abd", 2, `Exhaustive, 434, 12198);
      ("fd.ring", 3, `Dpor, 170, 4118);
    ]

let test_pinned_net_counts () =
  let r = Mc.Net_harness.search ~budget:20_000 (Mc.Net_targets.abd_rel ~n:2) in
  Alcotest.(check bool) "exhausted" true r.Mc.Exhaustive.complete;
  Alcotest.(check bool) "clean" true (r.Mc.Exhaustive.counterexample = None);
  Alcotest.(check int) "schedules" 6593 r.Mc.Exhaustive.schedules;
  Alcotest.(check int) "steps" 165802 r.Mc.Exhaustive.steps

(* The same search with its chunks run on two domains: the report is the
   one-domain report. *)
let test_pinned_net_counts_two_domains () =
  let r =
    Mc.Exhaustive.with_pool ~domains:2 (fun pool ->
        Mc.Net_harness.search ~pool ~budget:20_000
          (Mc.Net_targets.abd_rel ~n:2))
  in
  Alcotest.(check bool) "exhausted" true r.Mc.Exhaustive.complete;
  Alcotest.(check bool) "clean" true (r.Mc.Exhaustive.counterexample = None);
  Alcotest.(check int) "schedules" 6593 r.Mc.Exhaustive.schedules;
  Alcotest.(check int) "steps" 165802 r.Mc.Exhaustive.steps

(* A state [Marshal] cannot serialize: every process counts its own
   steps and outputs at the third.  [lock] is the only difference between
   the two variants.  Round orders only permute steps that do not
   interact, so under the marshalled digest most branches revisit a
   state and are pruned. *)
type counter_state = { lock : Mutex.t option; count : int }

let counter_target ~with_lock =
  let protocol =
    {
      Sim.Protocol.init =
        (fun ~n:_ _ ->
          {
            lock = (if with_lock then Some (Mutex.create ()) else None);
            count = 0;
          });
      on_step =
        (fun _ st _ ->
          let count = st.count + 1 in
          ( { st with count },
            if count = 3 then [ Sim.Protocol.Output count ] else [] ));
      on_input = (fun _ st () -> (st, []));
    }
  in
  {
    Mc.Harness.name = "test.counter";
    protocol;
    make_fd = (fun _ ~seed:_ _ _ -> ());
    make_inputs = (fun _ -> []);
    invariant =
      {
        Mc.Invariant.name = "everyone outputs";
        on_output = (fun _ _ -> Ok ());
        final =
          (fun fp ~must_terminate evs ->
            if
              must_terminate
              && not (Sim.Engine.stop_when_all_correct_output fp evs)
            then Error "a correct process never output"
            else Ok ());
      };
    stop = Sim.Engine.stop_when_all_correct_output;
    policy = Sim.Network.Fifo;
    max_steps = 50;
    detect_quiescence = false;
    require_termination = true;
    time_invariant_fd = true;
    pp_out = Format.pp_print_int;
  }

let test_digest_fallback_unmarshallable_state () =
  Alcotest.check_raises "Marshal rejects a mutex"
    (Invalid_argument "output_value: abstract value (Custom)") (fun () ->
      ignore (Marshal.to_bytes (Mutex.create ()) []));
  let search ?prune with_lock =
    Mc.Exhaustive.search ?prune ~budget:10_000 (counter_target ~with_lock)
      ~fp:(ff 3)
  in
  let locked = search true in
  Alcotest.(check bool) "exhausted" true locked.Mc.Exhaustive.complete;
  Alcotest.(check bool) "clean" true (locked.Mc.Exhaustive.counterexample = None);
  (* The fallback hashes a mutex by its own custom hash (its address), so
     states of different runs never merge: no false merge can make the
     search smaller than with the marshalled digest, and it is no larger
     than the unpruned tree. *)
  let plain = search false and unpruned = search ~prune:false false in
  Alcotest.(check bool) "no smaller than the marshalled-digest search" true
    (locked.Mc.Exhaustive.schedules >= plain.Mc.Exhaustive.schedules);
  Alcotest.(check bool) "no larger than the unpruned tree" true
    (locked.Mc.Exhaustive.schedules <= unpruned.Mc.Exhaustive.schedules)

let () =
  Alcotest.run "mc"
    [
      ( "schedule",
        [ Alcotest.test_case "round-trip" `Quick test_schedule_roundtrip ] );
      ( "exhaustive",
        [
          Alcotest.test_case "quorum-paxos n=2 clean" `Quick
            test_exhaustive_quorum_paxos;
          Alcotest.test_case "quorum-paxos n=2 clean under crashes" `Quick
            test_exhaustive_quorum_paxos_with_crash;
          Alcotest.test_case "abd n=2 linearizable" `Quick test_exhaustive_abd;
          Alcotest.test_case "broken validity caught + replay" `Quick
            test_exhaustive_catches_broken_validity;
        ] );
      ( "pct",
        [
          Alcotest.test_case "broken validity caught" `Quick
            test_pct_catches_broken_validity;
        ] );
      ( "crash-adversary",
        [
          Alcotest.test_case "2pc blocking found + replay" `Quick
            test_crash_adversary_finds_2pc_blocking;
          Alcotest.test_case "qc from psi survives" `Quick
            test_qc_psi_survives_crash_adversary;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "greedy minimization" `Quick
            test_shrinker_minimizes;
          Alcotest.test_case "shrunk counterexample quality" `Quick
            test_shrunk_counterexample_quality;
          Alcotest.test_case "idempotent under noise" `Quick
            test_shrink_idempotent_under_noise;
        ] );
      ( "core",
        [ Alcotest.test_case "runner integration" `Quick test_runner_model_check ] );
      ( "parallel",
        [
          Alcotest.test_case "2pc blocking domain-independent" `Quick
            test_parallel_matches_sequential_2pc;
          Alcotest.test_case "broken validity domain-independent" `Quick
            test_parallel_matches_sequential_broken_validity;
          Alcotest.test_case "clean exhaustion domain-independent" `Quick
            test_parallel_matches_sequential_clean_exhausted;
          Alcotest.test_case "budget-bounded abd n=3 domain-independent"
            `Quick test_parallel_budget_bounded;
          Alcotest.test_case "pct/random domain-independent" `Quick
            test_parallel_sampled_explorers;
          Alcotest.test_case "cancellation loses no violation" `Quick
            test_parallel_cancellation_stress;
          Alcotest.test_case "opts validation" `Quick test_opts_validation;
        ] );
      ( "dpor",
        [
          Alcotest.test_case "abd n=2: >=3x reduction, clean" `Quick
            test_dpor_abd_reduction;
          Alcotest.test_case "quorum-paxos n=2 parity" `Quick
            test_dpor_paxos_parity;
          Alcotest.test_case "broken validity: same counterexample" `Quick
            test_dpor_broken_validity_same_cex;
          Alcotest.test_case "2pc blocking via crash adversary" `Quick
            test_dpor_2pc_adversary_parity;
          Alcotest.test_case "time-varying fd degenerates to exhaustive"
            `Quick test_dpor_time_varying_fd_degenerates;
          QCheck_alcotest.to_alcotest prop_dpor_verdict_parity;
        ] );
      ( "unordered",
        [
          Alcotest.test_case "sampled accounting == budget" `Quick
            test_unordered_sampled_accounting;
          Alcotest.test_case "exhaustive verdict parity" `Quick
            test_unordered_exhaustive_verdicts;
        ] );
      ( "net-harness",
        [
          Alcotest.test_case "raw reorder: caught + shrunk + replay" `Quick
            test_net_raw_reorder_caught_and_shrunk;
          Alcotest.test_case "broken arq: lost message caught" `Quick
            test_net_broken_arq_loses_message;
          Alcotest.test_case "rel restores the link axiom" `Quick
            test_net_rel_restores_link_axiom;
          Alcotest.test_case "abd over node+rel linearizable" `Quick
            test_net_abd_over_node_rel_linearizable;
        ] );
      ( "ec",
        [
          Alcotest.test_case "store n=2 exhausted, converges" `Quick
            test_ec_store_exhausted;
          Alcotest.test_case "store survives the crash adversary" `Quick
            test_ec_store_crash_adversary;
          Alcotest.test_case "converges over the raw reordering hub" `Quick
            test_net_ec_converge;
          Alcotest.test_case "no-sync divergence caught + replay" `Quick
            test_net_ec_no_sync_caught;
        ] );
      ( "fd-ring",
        [
          Alcotest.test_case "n=3 crash adversary exhausted, agrees" `Quick
            test_fd_ring_exhausted;
          Alcotest.test_case "dpor parity" `Quick test_fd_ring_dpor_parity;
        ] );
      ( "smr",
        [
          Alcotest.test_case "n=2 crash adversary exhausted, clean" `Quick
            test_smr_crash_adversary_n2;
          Alcotest.test_case "n=3 crash adversary, dpor, clean" `Quick
            test_smr_dpor_n3;
          Alcotest.test_case "duplicate log entry trips the invariant" `Quick
            test_smr_invariant_catches_duplicate;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "prefix table hashes the whole prefix" `Quick
            test_prefix_tbl_full_prefix_hash;
          Alcotest.test_case "mc_verify sim targets: pinned counts" `Quick
            test_pinned_sim_counts;
          Alcotest.test_case "abd over node+rel: pinned counts" `Quick
            test_pinned_net_counts;
          Alcotest.test_case "abd over node+rel on 2 domains: pinned counts"
            `Quick test_pinned_net_counts_two_domains;
          Alcotest.test_case "unmarshallable state: fallback digest" `Quick
            test_digest_fallback_unmarshallable_state;
        ] );
    ]
