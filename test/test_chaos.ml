(* The nemesis layer and chaos harness (docs/FAULTS.md):
   - schedule parser accepts the documented grammar and names bad lines;
   - an empty schedule is observationally identical to the bare transport
     (whole-cluster event traces compared byte for byte — QCheck over
     seeds and workloads);
   - same seed + schedule replays bit-for-bit (JSONL minus profile);
   - Rel restores reliable in-order exactly-once delivery over heavy loss;
   - chaos runs survive partition+heal, sustained loss, skew and a kill
     with every online invariant green. *)

let ok_schedule text =
  match Net.Nemesis.parse_schedule text with
  | Ok s -> s
  | Error e -> Alcotest.failf "schedule rejected: %s" e

let test_parse_schedule () =
  let s =
    ok_schedule
      "# adversary\n\
       at 0 drop * 0.05\n\
       at 10 partition 0 1 | 2 3 4\n\
       at 20 delay 0->1 3 jitter 2\n\
       at 30 flap 1-2 period 10 down 4\n\
       at 40 skew 2 3\n\
       at 50 kill 4\n\
       at 60 heal\n\
       at 70 clear\n"
  in
  (* symmetric flap expands to two directed links: 8 lines, 9 commands *)
  Alcotest.(check int) "commands" 9 (List.length s);
  let ticks = List.map fst s in
  Alcotest.(check (list int)) "sorted by tick"
    [ 0; 10; 20; 30; 30; 40; 50; 60; 70 ]
    ticks

let test_parse_errors () =
  let expect_error text =
    match Net.Nemesis.parse_schedule text with
    | Ok _ -> Alcotest.failf "accepted bad schedule %S" text
    | Error e ->
      Alcotest.(check bool) "error names a line" true
        (String.length e > 5 && String.sub e 0 5 = "line ")
  in
  expect_error "drop * 0.1";  (* missing "at TICK" *)
  expect_error "at x heal";
  expect_error "at 5 drop * 1.5";  (* probability out of range *)
  expect_error "at 5 partition 0 1";  (* one group is no partition *)
  expect_error "at 5 flap * period 4 down 9";  (* down > period *)
  expect_error "at 5 frobnicate *"

let test_parse_deisolate () =
  let s = ok_schedule "at 5 isolate 1\nat 9 deisolate 1\n" in
  Alcotest.(check int) "commands" 2 (List.length s);
  (match s with
  | [ (5, Net.Nemesis.Isolate p); (9, Net.Nemesis.Deisolate q) ] ->
    Alcotest.(check int) "isolated pid" 1 p;
    Alcotest.(check int) "deisolated pid" 1 q
  | _ -> Alcotest.fail "unexpected parse");
  let expect_error text =
    match Net.Nemesis.parse_schedule text with
    | Ok _ -> Alcotest.failf "accepted bad schedule %S" text
    | Error e ->
      Alcotest.(check bool) "error names a line" true
        (String.length e > 5 && String.sub e 0 5 = "line ")
  in
  expect_error "at 5 deisolate";  (* missing pid *)
  expect_error "at 5 deisolate x";  (* not a pid *)
  expect_error "at 5 deisolate 1 2"  (* trailing junk *)

let test_deisolate_selective () =
  (* isolate two nodes, reopen one: the other's cuts must stay in force;
     reopening it too clears the last cut *)
  let ctrl =
    Net.Nemesis.create ~n:3
      [
        (1, Net.Nemesis.Isolate 0);
        (1, Net.Nemesis.Isolate 1);
        (2, Net.Nemesis.Deisolate 0);
        (3, Net.Nemesis.Deisolate 1);
      ]
  in
  Alcotest.(check bool) "no cut before the schedule fires" false
    (Net.Nemesis.cut_active ctrl);
  Net.Nemesis.tick ctrl;
  Alcotest.(check bool) "both isolations in force" true
    (Net.Nemesis.cut_active ctrl);
  Net.Nemesis.tick ctrl;
  Alcotest.(check bool) "node 1's isolation survives node 0's deisolate"
    true
    (Net.Nemesis.cut_active ctrl);
  Net.Nemesis.tick ctrl;
  Alcotest.(check bool) "deisolating the last cut node heals the net" false
    (Net.Nemesis.cut_active ctrl)

(* ------------------------------------------------------------------ *)
(* Empty schedule ≡ bare transport                                     *)

(* Drive the loopback SMR cluster for [rounds] rounds with a scripted
   workload, collecting every node's events into one collector; return
   the (JSONL event lines, metric rows, applied logs) fingerprint. *)
let fingerprint ?(nemesis = false) ~seed ~rounds ~workload n =
  let collector = Obs.Collector.create () in
  let sink _ = Some collector.Obs.Collector.sink in
  let ctrl = Net.Nemesis.create ~seed ~n [] in
  let wrap =
    if nemesis then fun _ t -> Net.Nemesis.wrap ctrl t else fun _ t -> t
  in
  let cluster = Net.Local.create ~sink ~wrap ~n () in
  for r = 1 to rounds do
    if nemesis then Net.Nemesis.tick ctrl;
    List.iter
      (fun (at, p, payload) -> if at = r then Net.Local.submit cluster p payload)
      workload;
    Net.Local.step cluster
  done;
  let events =
    List.map Obs.Jsonl.event_line (Obs.Collector.events collector)
  in
  let logs =
    List.map (fun p -> Net.Local.outputs cluster p) (Sim.Pid.all n)
  in
  (events, Obs.Collector.metric_rows collector, logs)

let prop_empty_schedule_transparent =
  QCheck.Test.make ~count:10
    ~name:"nemesis with empty schedule is byte-identical to bare transport"
    QCheck.(
      pair (int_bound 1000)
        (small_list (pair (int_bound 199) (int_bound 2))))
    (fun (seed, cmds) ->
      let n = 3 in
      let workload =
        List.mapi
          (fun i (at, p) -> (1 + at, p, Printf.sprintf "w%d" i))
          cmds
      in
      let a = fingerprint ~nemesis:false ~seed ~rounds:250 ~workload n in
      let b = fingerprint ~nemesis:true ~seed ~rounds:250 ~workload n in
      a = b)

(* ------------------------------------------------------------------ *)
(* Rel over heavy loss                                                 *)

let test_rel_reliable_over_loss () =
  let n = 2 in
  let schedule = ok_schedule "at 0 drop * 0.4\nat 0 dup * 0.2\n" in
  let ctrl = Net.Nemesis.create ~seed:7 ~n schedule in
  let hub = Net.Loopback.create ~n in
  let rel p =
    Net.Rel.wrap ~resend_every:4
      (Net.Nemesis.wrap ctrl (Net.Loopback.endpoint hub p))
  in
  let r0 = rel 0 and r1 = rel 1 in
  let t0 = Net.Rel.transport r0 and t1 = Net.Rel.transport r1 in
  let total = 100 in
  for i = 1 to total do
    t0.Net.Transport.send 1 (Bytes.of_string (Printf.sprintf "m%d" i))
  done;
  let got = ref [] in
  let budget = ref 50_000 in
  while List.length !got < total && !budget > 0 do
    decr budget;
    Net.Nemesis.tick ctrl;
    ignore (t0.Net.Transport.poll ~timeout_ms:0);
    match t1.Net.Transport.poll ~timeout_ms:0 with
    | Some (src, b) -> got := (src, Bytes.to_string b) :: !got
    | None -> ()
  done;
  Alcotest.(check (list (pair int string)))
    "all frames delivered exactly once, in order, through 40% loss"
    (List.init total (fun i -> (0, Printf.sprintf "m%d" (i + 1))))
    (List.rev !got);
  let s = Net.Rel.stats r0 in
  Alcotest.(check bool) "loss forced retransmissions" true
    (s.Net.Rel.retransmits > 0);
  Alcotest.(check int) "nothing left unacknowledged... yet" 0
    (let rec settle k =
       (* drain the tail of acks *)
       if k = 0 then (Net.Rel.stats r0).Net.Rel.unacked
       else begin
         Net.Nemesis.tick ctrl;
         ignore (t0.Net.Transport.poll ~timeout_ms:0);
         ignore (t1.Net.Transport.poll ~timeout_ms:0);
         if (Net.Rel.stats r0).Net.Rel.unacked = 0 then 0 else settle (k - 1)
       end
     in
     settle 5_000);
  ignore (Net.Rel.stats r1)

(* ------------------------------------------------------------------ *)
(* Chaos harness end to end                                            *)

let chaos_cfg ?(rounds = 2_500) ?(cmds = 12) ~seed schedule_text n =
  {
    (Net.Chaos.default ~n ~schedule:(ok_schedule schedule_text)) with
    Net.Chaos.seed;
    rounds;
    cmds;
    cmd_every = 80;
  }

let check_ok label (r : Net.Chaos.report) =
  Alcotest.(check (list string)) (label ^ ": no invariant failures") []
    r.Net.Chaos.failures;
  Alcotest.(check bool) (label ^ ": logs identical") true r.logs_identical;
  Alcotest.(check bool) (label ^ ": all commands applied") true r.all_applied

let test_chaos_partition_heal () =
  let r =
    Net.Chaos.run
      (chaos_cfg ~seed:3 "at 300 partition 0 1 | 2\nat 900 heal\n" 3)
  in
  check_ok "partition+heal" r;
  match r.Net.Chaos.heals with
  | [ h ] ->
    Alcotest.(check int) "heal round" 900 h.Net.Chaos.heal_round;
    Alcotest.(check bool) "leader re-agreed within bound" true
      (h.Net.Chaos.reconverged_in <> None)
  | hs -> Alcotest.failf "expected one heal, got %d" (List.length hs)

let test_chaos_loss_liveness () =
  let r = Net.Chaos.run (chaos_cfg ~seed:5 "at 0 drop * 0.05\n" 3) in
  check_ok "5% loss" r;
  Alcotest.(check bool) "the adversary actually dropped frames" true
    (r.Net.Chaos.nemesis.Net.Nemesis.n_dropped > 0);
  Alcotest.(check bool) "rel retransmitted around the loss" true
    (r.Net.Chaos.rel_retransmits > 0)

let test_chaos_skew () =
  let r = Net.Chaos.run (chaos_cfg ~seed:11 "at 0 skew 2 3\n" 3) in
  check_ok "skewed clock" r

let test_chaos_kill () =
  let r =
    Net.Chaos.run (chaos_cfg ~rounds:3_000 ~seed:13 "at 500 kill 2\n" 3)
  in
  check_ok "crash-stop" r;
  Alcotest.(check bool) "survivors went past the victim" true
    (r.Net.Chaos.applied.(0) > r.Net.Chaos.applied.(2))

(* ------------------------------------------------------------------ *)
(* Deterministic replay                                                *)

let jsonl_of_run ~seed =
  let collector = Obs.Collector.create () in
  let cfg =
    chaos_cfg ~rounds:1_500 ~seed
      "at 200 partition 0 1 | 2\nat 700 heal\nat 900 drop * 0.02\n" 3
  in
  let report = Net.Chaos.run ~collector cfg in
  let path = Filename.temp_file "wfd-chaos" ".jsonl" in
  Obs.Jsonl.write_run ~path ~meta:[ ("tool", "test") ] collector;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       let l = input_line ic in
       (* profile spans carry wall-clock durations; everything else must
          replay identically *)
       let is_profile =
         String.length l >= 18 && String.sub l 0 18 = {|{"type":"profile",|}
       in
       if not is_profile then lines := l :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  (report, List.rev !lines)

let test_chaos_replay_deterministic () =
  let r1, t1 = jsonl_of_run ~seed:21 in
  let r2, t2 = jsonl_of_run ~seed:21 in
  let _, t3 = jsonl_of_run ~seed:22 in
  Alcotest.(check bool) "reports identical" true (r1 = r2);
  Alcotest.(check bool) "traces identical minus profile" true (t1 = t2);
  Alcotest.(check bool) "different seed, different trace" true (t1 <> t3)

(* ------------------------------------------------------------------ *)
(* Exact reports                                                       *)

(* The full [pp_report] text of each harness on fixed configurations:
   every count, heal line and failure message, in order.  Any change to
   the shared chaos loop that shifts a single step, frame or message
   shows up here.  The tight-bound cases force the heal-bound, watchdog
   and convergence failures. *)

let report_net ?(rounds = 2_500) ?(detector = Fd.Emulated.Omega.Heartbeat)
    ?(watchdog = 800) ?(heal_bound = 1_200) ~seed text () =
  let cfg =
    {
      (chaos_cfg ~rounds ~seed text 3) with
      Net.Chaos.detector;
      watchdog;
      heal_bound;
    }
  in
  Format.asprintf "%a" Net.Chaos.pp_report (Net.Chaos.run cfg)

(* the CI sharded run: 4 shards, partition + heal, rotation at 1200 *)
let report_shard ?(watchdog = 900) () =
  let cfg =
    {
      (Shard.Chaos.default ~shards:4 ~replicas:3
         ~schedule:(ok_schedule "at 300 partition 0 1 | 2 3\nat 700 heal\n"))
      with
      Shard.Chaos.seed = 1;
      rounds = 2_400;
      cmds = 12;
      cmd_every = 60;
      reconfig_at = Some 1_200;
      watchdog;
    }
  in
  Format.asprintf "%a" Shard.Chaos.pp_report (Shard.Chaos.run cfg)

let report_ec ?heal_bound ?watchdog () =
  let base = Ec.Chaos.default ~n:3 ~schedule:(Ec.Chaos.default_schedule 3) in
  let cfg =
    {
      base with
      Ec.Chaos.seed = 1;
      heal_bound = Option.value heal_bound ~default:base.Ec.Chaos.heal_bound;
      watchdog = Option.value watchdog ~default:base.Ec.Chaos.watchdog;
    }
  in
  Format.asprintf "%a" Ec.Chaos.pp_report (Ec.Chaos.run cfg)

let pinned_reports =
  [
    ( "net partition+heal",
      report_net ~seed:3 "at 300 partition 0 1 | 2\nat 900 heal\n",
      {|rounds      2500
submitted   12
applied     12 12 12
logs        identical
completion  all applied
heal @900    leader re-agreed in 6 rounds
nemesis     dropped 11473, duplicated 0, reordered 0, delayed 0
rel         29426 retransmits
invariants  all held
|} );
    ( "net kill",
      report_net ~rounds:3_000 ~seed:13 "at 500 kill 2\n",
      {|rounds      3000
submitted   12
applied     12 12 5
logs        identical
completion  all applied
nemesis     dropped 0, duplicated 0, reordered 0, delayed 0
rel         40572 retransmits
invariants  all held
|} );
    ( "net skew",
      report_net ~seed:11 "at 0 skew 2 3\n",
      {|rounds      2500
submitted   12
applied     12 12 12
logs        identical
completion  all applied
nemesis     dropped 0, duplicated 0, reordered 0, delayed 0
rel         47586 retransmits
invariants  all held
|} );
    ( "net drop",
      report_net ~seed:5 "at 0 drop * 0.05\n",
      {|rounds      2500
submitted   12
applied     12 12 12
logs        identical
completion  all applied
nemesis     dropped 988, duplicated 0, reordered 0, delayed 0
rel         5079 retransmits
invariants  all held
|} );
    ( "net ring detector",
      report_net ~detector:Fd.Emulated.Omega.Ring ~seed:1
        "at 300 partition 0 1 | 2\nat 900 heal\n",
      {|rounds      2500
submitted   12
applied     12 12 12
logs        identical
completion  all applied
heal @900    leader re-agreed in 77 rounds
nemesis     dropped 3549, duplicated 0, reordered 0, delayed 0
rel         5023 retransmits
invariants  all held
|} );
    ( "net tight bounds",
      report_net ~watchdog:150 ~heal_bound:3 ~seed:2
        "at 300 isolate 0\nat 600 heal\nat 2000 kill 1\n\
         at 2497 partition 0 | 1 2\nat 2498 heal\n",
      {|rounds      2500
submitted   12
applied     12 12 12
logs        identical
completion  all applied
heal @600    leader NOT re-agreed in bound
heal @2498    leader re-agreed in 0 rounds
nemesis     dropped 4411, duplicated 0, reordered 0, delayed 0
rel         20299 retransmits
FAILED      heal at round 600: no single live leader within 3 rounds
FAILED      round 750: no progress for 150 rounds on a healthy network
|} );
    ( "shard CI run",
      (fun () -> report_shard ()),
      {|rounds      2400
submitted   12
applied     1 1 13 1
epochs      1 1 1 1
reconfig    completed
reads       8 ok, 0 bad
logs        identical per shard
completion  all applied
duplicates  none
nemesis     dropped 51012, duplicated 0, reordered 0, delayed 0
rel         135087 retransmits
invariants  all held
|} );
    ( "shard tight watchdog",
      (fun () -> report_shard ~watchdog:60 ()),
      {|rounds      2400
submitted   12
applied     1 1 13 1
epochs      1 1 1 1
reconfig    completed
reads       8 ok, 0 bad
logs        identical per shard
completion  all applied
duplicates  none
nemesis     dropped 51012, duplicated 0, reordered 0, delayed 0
rel         135087 retransmits
FAILED      round 61: no progress for 60 rounds on a healthy network
FAILED      round 214: no progress for 60 rounds on a healthy network
FAILED      round 760: no progress for 60 rounds on a healthy network
FAILED      round 821: no progress for 60 rounds on a healthy network
FAILED      round 882: no progress for 60 rounds on a healthy network
FAILED      round 953: no progress for 60 rounds on a healthy network
|} );
    ( "ec default",
      (fun () -> report_ec ()),
      {|rounds      4000
ec puts     160 160 160  (in partition: 330)
smr         submitted 12, applied 12 12 12, frozen during partition
converged   in 454 rounds after last write
heal @1600    EC leader re-agreed in 1 rounds
logs        identical
completion  all applied
nemesis     dropped 52341, duplicated 0, reordered 0, delayed 0
rel         100063 retransmits
invariants  all held
|} );
    ( "ec tight bounds",
      (fun () -> report_ec ~heal_bound:300 ~watchdog:200 ()),
      {|rounds      4000
ec puts     160 160 160  (in partition: 330)
smr         submitted 12, applied 12 12 12, frozen during partition
converged   NOT within bound
heal @1600    EC leader re-agreed in 1 rounds
logs        identical
completion  all applied
nemesis     dropped 52341, duplicated 0, reordered 0, delayed 0
rel         100063 retransmits
FAILED      round 1805: no SMR progress for 200 rounds on a healthy network
FAILED      stores not converged within 300 rounds of the last write
FAILED      round 2006: no SMR progress for 200 rounds on a healthy network
FAILED      round 2207: no SMR progress for 200 rounds on a healthy network
|} );
  ]

let pinned_report_cases =
  List.map
    (fun (name, report, expected) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) (name ^ ": exact report") expected
            (report ())))
    pinned_reports

let () =
  Alcotest.run "chaos"
    [
      ( "schedule",
        [
          Alcotest.test_case "grammar round-trip" `Quick test_parse_schedule;
          Alcotest.test_case "errors name the line" `Quick test_parse_errors;
          Alcotest.test_case "deisolate grammar" `Quick test_parse_deisolate;
          Alcotest.test_case "deisolate is selective" `Quick
            test_deisolate_selective;
        ] );
      ( "transparency",
        [ QCheck_alcotest.to_alcotest prop_empty_schedule_transparent ] );
      ( "rel", [ Alcotest.test_case "exactly-once in-order over 40% loss" `Quick test_rel_reliable_over_loss ] );
      ( "harness",
        [
          Alcotest.test_case "partition + heal converges" `Quick
            test_chaos_partition_heal;
          Alcotest.test_case "liveness under 5% loss" `Quick
            test_chaos_loss_liveness;
          Alcotest.test_case "skewed heartbeat clock" `Quick test_chaos_skew;
          Alcotest.test_case "crash-stop mid-run" `Quick test_chaos_kill;
          Alcotest.test_case "same seed+schedule replays bit-for-bit" `Quick
            test_chaos_replay_deterministic;
        ] );
      ("reports", pinned_report_cases);
    ]
