(* Tests for state machine replication over repeated (Ω,Σ) consensus — the
   Lamport/Schneider reduction the paper's Corollary 3 leans on ("consensus
   implements any object, in particular registers").  We check total order,
   liveness, operation completion in arbitrary environments, and build an
   atomic register on top whose histories must be linearizable. *)

let run_smr ?(max_steps = 300_000) ~inputs ~stop fp seed =
  let omega = Fd.Oracle.history Fd.Omega.oracle fp ~seed in
  let sigma = Fd.Oracle.history Fd.Sigma.oracle fp ~seed:(seed + 1) in
  let cfg =
    Sim.Engine.config ~seed ~max_steps ~inputs ~stop ~detect_quiescence:false
      ~fd:(fun p t -> (omega p t, sigma p t))
      fp
  in
  Sim.Engine.run cfg Cons.Smr.protocol

let log_of trace p =
  Sim.Trace.outputs_of trace p
  |> List.map (fun (slot, (c : _ Cons.Smr.cmd)) ->
         (slot, c.Cons.Smr.origin, c.Cons.Smr.seq, c.Cons.Smr.payload))

(* Stop once every correct process has applied [k] slots. *)
let stop_applied fp k outputs =
  Sim.Pidset.for_all
    (fun p ->
      List.length
        (List.filter
           (fun (e : _ Sim.Trace.event) -> Sim.Pid.equal e.pid p)
           outputs)
      >= k)
    (Sim.Failure_pattern.correct fp)

let test_total_order () =
  for seed = 1 to 8 do
    let fp =
      Sim.Environment.sample Sim.Environment.any ~n:3 ~horizon:100
        (Sim.Rng.make (seed * 3))
    in
    (* Correct processes submit two commands each. *)
    let correct = Sim.Failure_pattern.correct fp in
    let inputs =
      List.concat_map
        (fun p -> [ (0, p, (p * 10) + 1); (30, p, (p * 10) + 2) ])
        (Sim.Pidset.elements correct)
    in
    let expected = List.length inputs in
    let trace =
      run_smr ~inputs ~stop:(stop_applied fp expected) fp seed
    in
    Alcotest.(check bool)
      (Printf.sprintf "applied everything (seed %d)" seed)
      true
      (trace.Sim.Trace.stopped = `Condition);
    (* Every pair of correct processes agrees on a common prefix. *)
    let logs =
      List.map (fun p -> log_of trace p) (Sim.Pidset.elements correct)
    in
    let rec common_prefix a b =
      match (a, b) with
      | x :: a', y :: b' -> x = y && common_prefix a' b'
      | _, [] | [], _ -> true
    in
    List.iter
      (fun l1 ->
        List.iter
          (fun l2 ->
            Alcotest.(check bool) "logs agree" true (common_prefix l1 l2))
          logs)
      logs;
    (* Slots are consecutive from 0. *)
    List.iter
      (fun l ->
        List.iteri
          (fun i (slot, _, _, _) -> Alcotest.(check int) "slot order" i slot)
          l)
      logs
  done

let test_minority_correct_progress () =
  let fp = Sim.Failure_pattern.make ~n:5 [ (0, 30); (1, 60); (2, 90) ] in
  let inputs = [ (0, 3, 100); (50, 4, 200); (120, 3, 300) ] in
  let trace = run_smr ~inputs ~stop:(stop_applied fp 3) fp 4 in
  Alcotest.(check bool) "SMR lives with 2 of 5" true
    (trace.Sim.Trace.stopped = `Condition);
  (* Both survivors saw all three commands in the same order. *)
  Alcotest.(check bool) "same logs" true (log_of trace 3 = log_of trace 4)

(* --- an atomic register implemented from consensus ----------------------- *)

(* Register commands; the log order defines the register's history. *)
type reg_cmd = Rread | Rwrite of int

let test_register_from_consensus () =
  for seed = 1 to 6 do
    let fp =
      Sim.Environment.sample Sim.Environment.any ~n:3 ~horizon:80
        (Sim.Rng.make (seed * 11))
    in
    let correct = Sim.Pidset.elements (Sim.Failure_pattern.correct fp) in
    (* Every correct process: write then read. *)
    let inputs =
      List.concat_map
        (fun p -> [ (0, p, Rwrite (100 + p)); (40, p, Rread) ])
        correct
    in
    let expected = List.length inputs in
    let trace = run_smr ~inputs ~stop:(stop_applied fp expected) fp seed in
    Alcotest.(check bool) "completed" true
      (trace.Sim.Trace.stopped = `Condition);
    (* Interpret the common log: replay it to assign each read its return
       value, then check the per-operation history for linearizability.
       Invocation time = submission time (0 or 40); response time = the
       moment the *origin* applied the slot holding its command. *)
    let p0 = List.hd correct in
    let common_log = Sim.Trace.outputs_of trace p0 in
    let value_before =
      (* slot -> register value before that slot is applied *)
      let tbl = Hashtbl.create 16 in
      let v = ref None in
      List.iter
        (fun (slot, (c : reg_cmd Cons.Smr.cmd)) ->
          Hashtbl.replace tbl slot !v;
          match c.Cons.Smr.payload with
          | Rwrite x -> v := Some x
          | Rread -> ())
        common_log;
      tbl
    in
    let resp_time origin seq =
      List.find_map
        (fun (e : (int * reg_cmd Cons.Smr.cmd) Sim.Trace.event) ->
          let _, c = e.value in
          if
            Sim.Pid.equal e.pid origin
            && Sim.Pid.equal c.Cons.Smr.origin origin
            && c.Cons.Smr.seq = seq
          then Some e.time
          else None)
        trace.Sim.Trace.outputs
    in
    let slot_of origin seq =
      List.find_map
        (fun (slot, (c : reg_cmd Cons.Smr.cmd)) ->
          if Sim.Pid.equal c.Cons.Smr.origin origin && c.Cons.Smr.seq = seq
          then Some slot
          else None)
        common_log
    in
    let history =
      List.concat_map
        (fun p ->
          List.filter_map
            (fun (inv, seq, cmd) ->
              match (resp_time p seq, slot_of p seq) with
              | Some resp, Some slot ->
                let kind =
                  match cmd with
                  | Rwrite v -> Regs.Linearizability.Write v
                  | Rread ->
                    Regs.Linearizability.Read (Hashtbl.find value_before slot)
                in
                Some { Regs.Linearizability.pid = p; inv; resp = Some resp; kind }
              | _ -> None)
            [ (0, 0, Rwrite (100 + p)); (40, 1, Rread) ])
        correct
    in
    Alcotest.(check bool)
      (Printf.sprintf "register-from-consensus linearizable (seed %d)" seed)
      true
      (Regs.Linearizability.check history)
  done

let test_duplicate_submissions_ignored () =
  (* The same command gossiped many times must be decided exactly once. *)
  let fp = Sim.Failure_pattern.failure_free 3 in
  let inputs = [ (0, 0, 7); (10, 1, 8) ] in
  let trace = run_smr ~inputs ~stop:(stop_applied fp 2) fp 9 in
  let log = log_of trace 2 in
  Alcotest.(check int) "exactly two entries" 2 (List.length log);
  let uniq = List.sort_uniq compare (List.map (fun (_, o, s, _) -> (o, s)) log) in
  Alcotest.(check int) "no duplicates" 2 (List.length uniq)

(* SMR is a total-order broadcast: check it against the full TO spec. *)
let test_smr_satisfies_to_broadcast_spec () =
  for seed = 1 to 8 do
    let fp =
      Sim.Environment.sample Sim.Environment.any ~n:4 ~horizon:60
        (Sim.Rng.make (seed * 17))
    in
    let correct = Sim.Pidset.elements (Sim.Failure_pattern.correct fp) in
    let inputs =
      List.concat_map (fun p -> [ (0, p, p); (20, p, p + 100) ]) correct
    in
    let expected = List.length inputs in
    let trace = run_smr ~inputs ~stop:(stop_applied fp expected) fp seed in
    Alcotest.(check bool) "completed" true
      (trace.Sim.Trace.stopped = `Condition);
    (* Submissions: (origin, seq, payload); our SMR numbers each process's
       submissions 0, 1, ... in submission order. *)
    let submitted =
      List.concat_map (fun p -> [ (p, 0, p); (p, 1, p + 100) ]) correct
    in
    let deliveries =
      List.map
        (fun p ->
          ( p,
            List.mapi
              (fun pos (slot, (c : int Cons.Smr.cmd)) ->
                ignore slot;
                {
                  Bcast.To_spec.pos;
                  origin = c.Cons.Smr.origin;
                  seq = c.Cons.Smr.seq;
                  payload = c.Cons.Smr.payload;
                })
              (Sim.Trace.outputs_of trace p) ))
        (Sim.Pid.all 4)
    in
    match Bcast.To_spec.check ~submitted ~deliveries fp with
    | Ok () -> ()
    | Error e -> Alcotest.failf "TO spec (seed %d): %s" seed e
  done

let prop_smr_total_order =
  QCheck.Test.make ~name:"SMR logs agree across correct processes" ~count:12
    QCheck.small_nat (fun seed ->
      let seed = seed + 1 in
      let fp =
        Sim.Environment.sample Sim.Environment.any ~n:3 ~horizon:80
          (Sim.Rng.make (seed * 53))
      in
      let correct = Sim.Pidset.elements (Sim.Failure_pattern.correct fp) in
      let inputs = List.map (fun p -> (0, p, p)) correct in
      let trace =
        run_smr ~inputs ~stop:(stop_applied fp (List.length inputs)) fp seed
      in
      trace.Sim.Trace.stopped = `Condition
      &&
      let logs = List.map (fun p -> log_of trace p) correct in
      List.for_all
        (fun l1 ->
          List.for_all
            (fun l2 ->
              let rec prefix a b =
                match (a, b) with
                | x :: a', y :: b' -> x = y && prefix a' b'
                | _, [] | [], _ -> true
              in
              prefix l1 l2)
            logs)
        logs)

(* --- bounded bookkeeping: watermark dedup, no Paxos state once decided -- *)

module Pairs = Set.Make (struct
  type t = int * int

  let compare = compare
end)

(* Random add/mem traffic over four origins: seqs arrive permuted and
   repeated, and are drawn from a range wider than the number of adds, so
   some gaps never fill.  After every step the watermark structure must
   answer exactly like a plain set of (origin, seq) pairs, on the queried
   pair and on every pair in range. *)
let prop_dedup_model =
  QCheck.Test.make ~name:"Dedup agrees with a set of (origin, seq) pairs"
    ~count:300
    QCheck.(list_of_size Gen.(0 -- 80) (triple bool (0 -- 3) (0 -- 30)))
    (fun ops ->
      let module D = Cons.Smr.Dedup in
      let agree d r =
        List.for_all
          (fun o ->
            List.for_all
              (fun s -> D.mem d ~origin:o ~seq:s = Pairs.mem (o, s) r)
              (List.init 32 Fun.id))
          [ 0; 1; 2; 3 ]
      in
      let rec go d r = function
        | [] -> true
        | (add, o, s) :: rest ->
          let d, r =
            if add then (D.add d ~origin:o ~seq:s, Pairs.add (o, s) r)
            else (d, r)
          in
          D.mem d ~origin:o ~seq:s = Pairs.mem (o, s) r
          && agree d r && go d r rest
      in
      go D.empty Pairs.empty ops)

(* Adds that arrive in seq order per origin (origins interleaved at
   random) never leave anything past the watermark: the state stays one
   integer per origin however many commands go through. *)
let prop_dedup_in_order_dense =
  QCheck.Test.make ~name:"in-order adds keep Dedup's sparse part empty"
    ~count:300
    QCheck.(list_of_size Gen.(0 -- 200) (0 -- 3))
    (fun origins ->
      let module D = Cons.Smr.Dedup in
      let next = Array.make 4 0 in
      let d =
        List.fold_left
          (fun d o ->
            let d = D.add d ~origin:o ~seq:next.(o) in
            next.(o) <- next.(o) + 1;
            if D.sparse d <> 0 then QCheck.Test.fail_report "sparse part grew";
            d)
          D.empty origins
      in
      List.for_all
        (fun o ->
          D.mem d ~origin:o ~seq:(max 0 (next.(o) - 1)) = (next.(o) > 0)
          && not (D.mem d ~origin:o ~seq:next.(o)))
        [ 0; 1; 2; 3 ])

(* A hand-driven three-process cluster: rounds deliver every queued
   message, minus the ones [lost] drops, then give each process an idle
   step.  Process 2 misses the [Decide] for instance 0; once it trusts
   itself and starts a ballot, a process that decided answers its
   [Prepare] with the decided batch and the straggler applies the same
   log. *)
let test_straggler_learns_decision () =
  let n = 3 in
  let proto = Cons.Smr.make ~window:4 () in
  let states = Array.init n (fun p -> proto.Sim.Protocol.init ~n p) in
  let logs = Array.make n [] in
  let omega = Array.make n 0 in
  let sigma = Sim.Pidset.of_list [ 0; 1 ] in
  let ctx p = { Sim.Protocol.self = p; n; now = 0; fd = (omega.(p), sigma) } in
  let queue = Queue.create () in
  let replies = ref [] in
  let perform p acts =
    List.iter
      (function
        | Sim.Protocol.Send (q, m) ->
          (match m with
          | Cons.Smr.Inner (k, Cons.Quorum_paxos.Decide b) ->
            replies := (p, q, k, b) :: !replies
          | _ -> ());
          Queue.push (p, q, m) queue
        | Sim.Protocol.Broadcast m ->
          List.iter (fun q -> Queue.push (p, q, m) queue) (Sim.Pid.all n)
        | Sim.Protocol.Output e -> logs.(p) <- logs.(p) @ [ e ])
      acts
  in
  let step p recv =
    let st, acts = proto.Sim.Protocol.on_step (ctx p) states.(p) recv in
    states.(p) <- st;
    perform p acts
  in
  let round lost =
    let msgs = List.of_seq (Queue.to_seq queue) in
    Queue.clear queue;
    List.iter
      (fun (src, dst, m) -> if not (lost dst m) then step dst (Some (src, m)))
      msgs;
    List.iter (fun p -> step p None) (Sim.Pid.all n)
  in
  let rec run_until lost cond fuel =
    if cond () then true
    else if fuel = 0 then false
    else (
      round lost;
      run_until lost cond (fuel - 1))
  in
  let applied p = Cons.Smr.applied states.(p) in
  List.iter
    (fun v ->
      let st, acts = proto.Sim.Protocol.on_input (ctx 0) states.(0) v in
      states.(0) <- st;
      perform 0 acts)
    [ "a"; "b" ];
  let decide_to_2 dst = function
    | Cons.Smr.Inner (_, Cons.Quorum_paxos.Decide _) -> dst = 2
    | _ -> false
  in
  Alcotest.(check bool) "0 and 1 decide" true
    (run_until decide_to_2 (fun () -> applied 0 = 2 && applied 1 = 2) 50);
  Alcotest.(check bool) "in-flight Decides to 2 lost too" true
    (run_until decide_to_2 (fun () -> Queue.is_empty queue) 10);
  Alcotest.(check int) "2 missed the decision" 0 (applied 2);
  Alcotest.(check int) "2 still holds the instance" 1
    (Cons.Smr.live_instances states.(2));
  Alcotest.(check int) "0 keeps no state for it" 0
    (Cons.Smr.live_instances states.(0));
  Alcotest.(check bool) "no Decide reply yet" true (!replies = []);
  omega.(2) <- 2;
  Alcotest.(check bool) "2 catches up" true
    (run_until (fun _ _ -> false) (fun () -> applied 2 = 2) 50);
  (match List.find_opt (fun (p, _, _, _) -> p = 0) !replies with
  | None -> Alcotest.fail "the decided process never answered the ballot"
  | Some (_, q, k, b) ->
    Alcotest.(check int) "reply goes to the straggler" 2 q;
    Alcotest.(check int) "for instance 0" 0 k;
    Alcotest.(check (list string)) "carrying the decided batch" [ "a"; "b" ]
      (List.map (fun (c : _ Cons.Smr.cmd) -> c.Cons.Smr.payload) b));
  let view p =
    List.map
      (fun (i, (c : _ Cons.Smr.cmd)) ->
        (i, c.Cons.Smr.origin, c.Cons.Smr.seq, c.Cons.Smr.payload))
      logs.(p)
  in
  Alcotest.(check bool) "straggler applies the same log" true
    (view 2 = view 0 && view 1 = view 0);
  Alcotest.(check int) "no Paxos state left anywhere" 0
    (List.fold_left
       (fun acc p -> acc + Cons.Smr.live_instances states.(p))
       0 (Sim.Pid.all n))

(* Thousands of commands through small batches at window 16: instance
   states are created for hundreds of instances, yet no process ever
   holds more than the window's worth at once. *)
let test_live_instances_bounded () =
  let n = 3 and window = 16 and k = 3000 in
  let proto = Cons.Smr.make ~window ~batch_max:4 () in
  let peak = ref 0 in
  let proto =
    {
      proto with
      Sim.Protocol.on_step =
        (fun ctx st m ->
          let st, acts = proto.Sim.Protocol.on_step ctx st m in
          peak := max !peak (Cons.Smr.live_instances st);
          (st, acts));
    }
  in
  let fp = Sim.Failure_pattern.failure_free n in
  let oracle =
    Fd.Oracle.product Fd.Omega.oracle_instant Fd.Sigma.oracle_exact
  in
  let fd = Fd.Oracle.history oracle fp ~seed:1 in
  let outputs = ref 0 in
  let cfg =
    Sim.Engine.config ~seed:1 ~max_steps:500_000
      ~inputs:(List.init k (fun i -> (i / 8, i mod n, i)))
      ~stop:(fun _ ->
        incr outputs;
        !outputs >= n * k)
      ~detect_quiescence:false ~fd fp
  in
  let trace = Sim.Engine.run cfg proto in
  Alcotest.(check bool) "every command applied everywhere" true
    (trace.Sim.Trace.stopped = `Condition);
  let touched =
    Array.fold_left
      (fun acc st -> max acc (Cons.Smr.instances_touched st))
      0 trace.Sim.Trace.final_states
  in
  Alcotest.(check bool)
    (Printf.sprintf "many instances went through (%d)" touched)
    true (touched > 10 * window);
  Alcotest.(check bool)
    (Printf.sprintf "live instance states stay within the window (peak %d)"
       !peak)
    true (!peak <= window)

let () =
  Alcotest.run "smr"
    [
      ( "total-order",
        [
          Alcotest.test_case "logs agree" `Slow test_total_order;
          Alcotest.test_case "minority correct progress" `Quick
            test_minority_correct_progress;
          Alcotest.test_case "duplicates ignored" `Quick
            test_duplicate_submissions_ignored;
        ] );
      ( "to-broadcast",
        [
          Alcotest.test_case "SMR satisfies the TO spec" `Slow
            test_smr_satisfies_to_broadcast_spec;
        ] );
      ( "register-from-consensus",
        [
          Alcotest.test_case "linearizable (Cor 3 reduction)" `Slow
            test_register_from_consensus;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_smr_total_order ]);
      ( "bounded-state",
        [
          QCheck_alcotest.to_alcotest prop_dedup_model;
          QCheck_alcotest.to_alcotest prop_dedup_in_order_dense;
          Alcotest.test_case "straggler learns a decided instance" `Quick
            test_straggler_learns_decision;
          Alcotest.test_case "live instances bounded by the window" `Quick
            test_live_instances_bounded;
        ] );
    ]
