(* mc_verify: the model checker runs a fixed suite to its expected
   verdicts, sequentially (one domain), every search under the crash
   adversary with at most one crash, plus one production-stack target
   through Mc.Net_harness.  Every target must come back complete with no
   counterexample.

   Left out because one run takes too long to repeat in every benchmark
   run: regs.abd n=3 DPOR and ec.store n=3 DPOR. *)

(* (metric name, registry name, n, explorer) *)
let suite =
  [
    ("qcnbac.qc_psi", "qcnbac.qc_psi", 3, `Dpor);
    ("cons.quorum_paxos", "cons.quorum_paxos", 3, `Exhaustive);
    ("regs.abd", "regs.abd", 2, `Exhaustive);
    ("fd.ring", "fd.ring", 3, `Dpor);
  ]

let net_target = "net.abd_rel"
let target_names = List.map (fun (m, _, _, _) -> m) suite @ [ net_target ]

(* Timestamps of every schedule start: process 0's [init] opens a run in
   both harnesses. *)
let starts = Stats.buf ()

let protocol ~traced (p : ('st, 'msg, 'fd, 'inp, 'out) Sim.Protocol.t) =
  let p =
    if traced then Trace.protocol p ~step:Trace.k_mc_step ~input:Trace.k_mc_step
    else p
  in
  {
    p with
    Sim.Protocol.init =
      (fun ~n pid ->
        if pid = 0 then Stats.push starts (float_of_int (Trace.now_ns ()));
        p.init ~n pid);
  }

let invariant ~traced (inv : 'out Mc.Invariant.t) =
  if not traced then inv
  else
    {
      inv with
      Mc.Invariant.on_output =
        (fun fp evs -> Trace.span Trace.k_mc_inv (inv.on_output fp) evs);
      final =
        (fun fp ~must_terminate evs ->
          Trace.span Trace.k_mc_inv (inv.final fp ~must_terminate) evs);
    }

(* A built target: a closure running its search, returning
   (complete, no counterexample, schedules, steps). *)
type check = { name : string; verify : unit -> bool * bool * int * int }

let build ~traced =
  let sim_check (name, reg, n, explorer) =
    match Mc.Targets.find reg ~n with
    | None -> failwith ("unknown target " ^ reg)
    | Some (Mc.Targets.Packed t) ->
      let t =
        {
          t with
          Mc.Harness.protocol = protocol ~traced t.Mc.Harness.protocol;
          invariant = invariant ~traced t.invariant;
        }
      in
      let opts =
        {
          Mc.Harness.default_opts with
          Mc.Harness.explorer;
          domains = 1;
          budget = 100_000;
          max_crashes = 1;
        }
      in
      {
        name;
        verify =
          (fun () ->
            let r = Mc.Parallel.search ~opts t ~n in
            ( r.Mc.Crash_adversary.complete,
              r.counterexample = None,
              r.schedules,
              r.steps ));
      }
  in
  let net =
    let t = Mc.Net_targets.abd_rel ~n:2 in
    let t =
      {
        t with
        Mc.Net_harness.protocol = protocol ~traced t.Mc.Net_harness.protocol;
        invariant = invariant ~traced t.invariant;
      }
    in
    {
      name = net_target;
      verify =
        (fun () ->
          let r = Mc.Net_harness.search ~budget:20_000 t in
          ( r.Mc.Exhaustive.complete,
            r.counterexample = None,
            r.schedules,
            r.steps ));
    }
  in
  List.map sim_check suite @ [ net ]

type verdict = {
  v_name : string;
  v_ok : bool;
  v_s : float;
  v_schedules : int;
  v_steps : int;
}

type trial = {
  t_time : Report.timing;
  t_elapsed : float;
  t_verdicts : verdict list;
  t_sched_ms : float array;  (* time per explored schedule *)
}

(* Target construction plus one warm-up search of the smallest target. *)
let setup ~traced =
  Report.setup (fun () ->
      let checks = build ~traced in
      let warm = List.find (fun c -> c.name = "fd.ring") checks in
      ignore (warm.verify ());
      checks)

let trial ~traced ~setup checks =
  let durations = Stats.buf () in
  if traced then begin
    Trace.start ();
    Trace.enter Trace.k_trial
  end;
  let t0 = Trace.now_ns () in
  let verdicts =
    List.mapi
      (fun i c ->
        if traced then Trace.set_op i;
        starts.Stats.len <- 0;
        let a = Trace.now_ns () in
        let complete, clean, schedules, steps =
          if traced then Trace.span Trace.k_verdict c.verify () else c.verify ()
        in
        let b = Trace.now_ns () in
        let s = Stats.contents starts in
        Array.iteri
          (fun j x ->
            let next = if j + 1 < Array.length s then s.(j + 1) else float_of_int b in
            Stats.push durations ((next -. x) *. 1e-6))
          s;
        {
          v_name = c.name;
          v_ok = complete && clean;
          v_s = float_of_int (b - a) *. 1e-9;
          v_schedules = schedules;
          v_steps = steps;
        })
      checks
  in
  let t1 = Trace.now_ns () in
  if traced then begin
    Trace.leave ();
    Trace.stop ()
  end;
  {
    t_time = setup;
    t_elapsed = float_of_int (t1 - t0) *. 1e-9;
    t_verdicts = verdicts;
    t_sched_ms = Stats.contents durations;
  }

let p50 = Stats.p50
let p99 = Stats.p99
let med = Stats.med
let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let run ~seed:_ ~seconds ~trace =
  let live_words = ref 0 in
  let trials =
    Report.repeat ~timing:(fun t -> t.t_time)
      ~seconds:(if trace then seconds /. 2. else seconds)
      ~min:1
      (fun i ->
        let checks, setup = setup ~traced:false in
        let t = trial ~traced:false ~setup checks in
        if i = 0 then live_words := Report.live_words ();
        t)
  in
  let schedules t = sum (fun v -> v.v_schedules) t.t_verdicts in
  let steps t = sum (fun v -> v.v_steps) t.t_verdicts in
  let verdict_s name t =
    (List.find (fun v -> v.v_name = name) t.t_verdicts).v_s
  in
  let e2e, raw =
    Report.end_to_end trials ~live_words:!live_words
      ~timing:(fun t -> t.t_time)
      ~ops_per_s:(fun t -> float_of_int (schedules t) /. t.t_elapsed)
      ~p50_ms:(fun t -> p50 t.t_sched_ms)
      ~p99_ms:(fun t -> p99 t.t_sched_ms)
  in
  let detail =
    raw
    @ Report.m "verdict_s" "s" (med (fun t -> t.t_elapsed) trials)
    :: Report.m "schedules" "count" (float_of_int (schedules (List.hd trials)))
    :: List.map
         (fun name -> Report.m ("verdict_s." ^ name) "s" (med (verdict_s name) trials))
         target_names
  in
  let failures t = List.filter (fun v -> not v.v_ok) t.t_verdicts in
  let errors =
    List.concat_map
      (fun t ->
        List.map (fun v -> v.v_name ^ ": incomplete search or counterexample") (failures t))
      trials
  in
  let layers, errors =
    if not trace then ([], errors)
    else begin
      let checks, setup = setup ~traced:true in
      let t = trial ~traced:true ~setup checks in
      ( [
          Report.m "mc.explore_s" "s" (Trace.self_s Trace.k_verdict);
          Report.m "mc.step_s" "s" (Trace.self_s Trace.k_mc_step);
          Report.m "mc.invariant_s" "s" (Trace.self_s Trace.k_mc_inv);
          Report.m "mc.schedules" "count" (float_of_int (schedules t));
          Report.m "mc.steps" "count" (float_of_int (steps t));
          Report.m "mc.steps_per_s" "steps/s"
            (med (fun t -> float_of_int (steps t) /. t.t_elapsed) trials);
          Report.m "gc.live_words_per_op" "words/op"
            (float_of_int !live_words /. float_of_int (schedules t));
          Report.m "trace.overhead_pct" "%"
            (Report.overhead_pct t trials ~timing:(fun t -> t.t_time)
               ~elapsed:(fun t -> t.t_elapsed));
        ]
        @ List.map
            (fun name ->
              Report.m ("mc.verdict_s." ^ name) "s" (med (verdict_s name) trials))
            target_names
        @ Report.split (),
        errors
        @ List.map (fun v -> v.v_name ^ ": incomplete search or counterexample")
            (failures t) )
    end
  in
  let verdicts = List.length target_names * List.length trials in
  {
    Report.errors;
    attempted = verdicts;
    failed = sum (fun t -> List.length (failures t)) trials;
    trials = List.length trials;
    e2e;
    detail;
    layers;
  }
