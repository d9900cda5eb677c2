type 'out t = {
  name : string;
  on_output :
    Sim.Failure_pattern.t ->
    'out Sim.Trace.event list ->
    (unit, string) result;
  final :
    Sim.Failure_pattern.t ->
    must_terminate:bool ->
    'out Sim.Trace.event list ->
    (unit, string) result;
}

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

(* Each process outputs at most one decision. *)
let integrity events =
  let rec go = function
    | [] -> Ok ()
    | (e : _ Sim.Trace.event) :: rest ->
      if List.exists (fun (e' : _ Sim.Trace.event) -> Sim.Pid.equal e'.pid e.pid) rest
      then
        Error
          (Format.asprintf "integrity violated: %a decided more than once"
             Sim.Pid.pp e.pid)
      else go rest
  in
  go events

let agreement pp events =
  match
    List.sort_uniq compare (List.map (fun (e : _ Sim.Trace.event) -> e.value) events)
  with
  | [] | [ _ ] -> Ok ()
  | d1 :: d2 :: _ ->
    Error
      (Format.asprintf "agreement violated: decisions %a and %a coexist" pp d1
         pp d2)

let termination fp events =
  match
    List.find_opt
      (fun p ->
        not
          (List.exists
             (fun (e : _ Sim.Trace.event) -> Sim.Pid.equal e.pid p)
             events))
      (Sim.Pidset.elements (Sim.Failure_pattern.correct fp))
  with
  | Some p ->
    Error
      (Format.asprintf
         "termination violated: correct %a never decided (run blocked)"
         Sim.Pid.pp p)
  | None -> Ok ()

(* ------------------------------------------------------------------ *)
(* Consensus: validity / uniform agreement / integrity online,
   termination when the run provably cannot progress any more.         *)

let generic_pp fmt _ = Format.pp_print_string fmt "<value>"

let consensus ?(pp = generic_pp) ~proposals () =
  let prefix _fp events =
    let* () = integrity events in
    let* () = agreement pp events in
    match
      List.find_opt
        (fun (e : _ Sim.Trace.event) ->
          not (List.exists (fun (_, w) -> w = e.value) proposals))
        events
    with
    | Some e ->
      Error
        (Format.asprintf "validity violated: %a decided unproposed value %a"
           Sim.Pid.pp e.pid pp e.value)
    | None -> Ok ()
  in
  {
    name = "consensus";
    on_output = prefix;
    final =
      (fun fp ~must_terminate events ->
        let* () = prefix fp events in
        if must_terminate then termination fp events else Ok ());
  }

(* ------------------------------------------------------------------ *)
(* Quittable consensus (paper Section 2.3): a Quit decision needs a
   prior failure; Value decisions must be proposed.                    *)

let qc ?(pp = generic_pp) ~proposals () =
  let pp_d = Qcnbac.Types.pp_qc_decision pp in
  let prefix fp events =
    let* () = integrity events in
    let* () = agreement pp_d events in
    let first_crash = Sim.Failure_pattern.first_crash fp in
    match
      List.find_opt
        (fun (e : _ Sim.Trace.event) ->
          match e.value with
          | Qcnbac.Types.Quit -> (
            match first_crash with None -> true | Some t0 -> t0 >= e.time)
          | Qcnbac.Types.Value v ->
            not (List.exists (fun (_, w) -> w = v) proposals))
        events
    with
    | Some ({ value = Qcnbac.Types.Quit; _ } as e) ->
      Error
        (Format.asprintf "validity violated: %a quit without a prior failure"
           Sim.Pid.pp e.pid)
    | Some e ->
      Error
        (Format.asprintf "validity violated: %a decided unproposed value %a"
           Sim.Pid.pp e.pid pp_d e.value)
    | None -> Ok ()
  in
  {
    name = "quittable-consensus";
    on_output = prefix;
    final =
      (fun fp ~must_terminate events ->
        let* () = prefix fp events in
        if must_terminate then termination fp events else Ok ());
  }

(* ------------------------------------------------------------------ *)
(* NBAC: Commit needs unanimous Yes; Abort needs a No vote or a prior
   failure; agreement and termination as usual.  Blocking — a correct
   process that never decides although the run cannot progress — is the
   termination violation the paper builds QC to avoid.                 *)

let nbac ~votes () =
  let pp_d = Qcnbac.Types.pp_outcome in
  let n_voted_yes =
    List.for_all (fun (_, v) -> Qcnbac.Types.equal_vote v Qcnbac.Types.Yes) votes
  in
  let some_voted_no =
    List.exists (fun (_, v) -> Qcnbac.Types.equal_vote v Qcnbac.Types.No) votes
  in
  let prefix fp events =
    let* () = integrity events in
    let* () = agreement pp_d events in
    let n = Sim.Failure_pattern.n fp in
    let all_yes = List.length votes = n && n_voted_yes in
    let first_crash = Sim.Failure_pattern.first_crash fp in
    match
      List.find_opt
        (fun (e : _ Sim.Trace.event) ->
          match e.value with
          | Qcnbac.Types.Commit -> not all_yes
          | Qcnbac.Types.Abort ->
            (not some_voted_no)
            && (match first_crash with None -> true | Some t0 -> t0 >= e.time))
        events
    with
    | Some ({ value = Qcnbac.Types.Commit; _ } as e) ->
      Error
        (Format.asprintf
           "validity violated: %a committed though not all voted Yes"
           Sim.Pid.pp e.pid)
    | Some e ->
      Error
        (Format.asprintf
           "validity violated: %a aborted with neither a No vote nor a prior \
            failure"
           Sim.Pid.pp e.pid)
    | None -> Ok ()
  in
  {
    name = "nbac";
    on_output = prefix;
    final =
      (fun fp ~must_terminate events ->
        let* () = prefix fp events in
        if must_terminate then termination fp events else Ok ());
  }

(* ------------------------------------------------------------------ *)
(* Atomic registers: the history of Invoked/Responded events must be
   linearizable (checked at the end of the run — the check is global),
   and once the run can no longer progress every operation a correct
   process invoked must have completed.                                *)

let linearizable () =
  let as_trace fp events =
    {
      Sim.Trace.outputs = List.rev events;
      final_states = [||];
      fp;
      steps = 0;
      ticks = 0;
      messages_sent = 0;
      messages_delivered = 0;
      stopped = `Condition;
    }
  in
  let ops_complete fp events =
    let count pid f =
      List.length
        (List.filter
           (fun (e : _ Sim.Trace.event) -> Sim.Pid.equal e.pid pid && f e.value)
           events)
    in
    match
      List.find_opt
        (fun p ->
          count p (function Regs.Abd.Invoked _ -> true | _ -> false)
          > count p (function Regs.Abd.Responded _ -> true | _ -> false))
        (Sim.Pidset.elements (Sim.Failure_pattern.correct fp))
    with
    | Some p ->
      Error
        (Format.asprintf
           "termination violated: an operation of correct %a never completed"
           Sim.Pid.pp p)
    | None -> Ok ()
  in
  {
    name = "linearizability";
    on_output = (fun _ _ -> Ok ());
    final =
      (fun fp ~must_terminate events ->
        let* () =
          if Regs.Linearizability.check_trace (as_trace fp events) then Ok ()
          else Error "linearizability violated: history admits no legal order"
        in
        if must_terminate then ops_complete fp events else Ok ());
  }

let ec_convergence () =
  {
    name = "ec_convergence";
    (* Divergence between replicas mid-run is not a fault — eventual
       consistency promises nothing before quiescence — so there is no
       online safety clause.  The whole spec is the termination clause:
       once the run has drained, every correct replica's last emitted
       store fingerprint must agree. *)
    on_output = (fun _ _ -> Ok ());
    final =
      (fun fp ~must_terminate events ->
        if not must_terminate then Ok ()
        else
          let last = Hashtbl.create 8 in
          List.iter
            (fun (e : _ Sim.Trace.event) ->
              let (Ec.Replica.Fp fp) = e.value in
              Hashtbl.replace last e.pid fp)
            events;
          let correct =
            Sim.Pidset.elements (Sim.Failure_pattern.correct fp)
          in
          match
            List.find_opt (fun p -> not (Hashtbl.mem last p)) correct
          with
          | Some p ->
            Error
              (Format.asprintf
                 "convergence violated: correct %a never reported a \
                  fingerprint"
                 Sim.Pid.pp p)
          | None -> (
            match correct with
            | [] -> Ok ()
            | p0 :: rest -> (
              let ref_fp = Hashtbl.find last p0 in
              match
                List.find_opt
                  (fun p -> Hashtbl.find last p <> ref_fp)
                  rest
              with
              | None -> Ok ()
              | Some p ->
                Error
                  (Format.asprintf
                     "convergence violated: %a settled on %s, %a on %s"
                     Sim.Pid.pp p0 ref_fp Sim.Pid.pp p
                     (Hashtbl.find last p)))));
  }

(* ------------------------------------------------------------------ *)
(* State machine replication: every process's log holds indices
   0, 1, 2, ... once each, applies every (origin, seq) at most once and
   only commands that were submitted; two processes that filled the
   same index filled it with the same command (so logs agree on their
   common prefix).  Once the run has drained, the correct processes'
   logs are equal and hold every command a correct process submitted.
   Events may come in either order: each log is rebuilt by index.      *)

let smr ?(pp = generic_pp) ~submitted () =
  let pp_cmd fmt (c : _ Cons.Smr.cmd) =
    Format.fprintf fmt "%a#%d (%a)" Sim.Pid.pp c.origin c.seq pp c.payload
  in
  let is origin seq (c : _ Cons.Smr.cmd) =
    Sim.Pid.equal c.origin origin && c.seq = seq
  in
  let log_of events p =
    List.filter_map
      (fun (e : _ Sim.Trace.event) ->
        if Sim.Pid.equal e.pid p then Some e.value else None)
      events
    |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
  in
  let check_log p log =
    let rec go i applied = function
      | [] -> Ok ()
      | (idx, (c : _ Cons.Smr.cmd)) :: rest ->
        if idx <> i then
          Error
            (Format.asprintf
               "gapless log violated: %a has index %d, expected %d" Sim.Pid.pp p
               idx i)
        else if List.exists (is c.origin c.seq) applied then
          Error
            (Format.asprintf "exactly-once violated: %a applied %a twice"
               Sim.Pid.pp p pp_cmd c)
        else if
          not
            (List.exists
               (fun (o, s, v) -> is o s c && v = c.payload)
               submitted)
        then
          Error
            (Format.asprintf "validity violated: %a applied unsubmitted %a"
               Sim.Pid.pp p pp_cmd c)
        else go (i + 1) (c :: applied) rest
    in
    go 0 [] log
  in
  let prefix fp events =
    let rec each = function
      | [] -> Ok ()
      | p :: rest ->
        let* () = check_log p (log_of events p) in
        each rest
    in
    let* () = each (Sim.Pid.all (Sim.Failure_pattern.n fp)) in
    let clash (e1 : _ Sim.Trace.event) (e2 : _ Sim.Trace.event) =
      let (i1, (c1 : _ Cons.Smr.cmd)), (i2, c2) = (e1.value, e2.value) in
      i1 = i2 && not (is c1.origin c1.seq c2)
    in
    match
      List.find_map
        (fun e1 ->
          Option.map (fun e2 -> (e1, e2)) (List.find_opt (clash e1) events))
        events
    with
    | Some (e1, e2) ->
      Error
        (Format.asprintf "agreement violated: index %d is %a at %a, %a at %a"
           (fst e1.value) pp_cmd (snd e1.value) Sim.Pid.pp e1.pid pp_cmd
           (snd e2.value) Sim.Pid.pp e2.pid)
    | None -> Ok ()
  in
  let drained fp events =
    let correct = Sim.Failure_pattern.correct fp in
    let owed =
      List.filter (fun (o, _, _) -> Sim.Pidset.mem o correct) submitted
    in
    let logs =
      List.map (fun p -> (p, log_of events p)) (Sim.Pidset.elements correct)
    in
    match
      List.find_map
        (fun (p, log) ->
          List.find_map
            (fun (o, s, _) ->
              if List.exists (fun (_, c) -> is o s c) log then None
              else Some (p, o, s))
            owed)
        logs
    with
    | Some (p, o, s) ->
      Error
        (Format.asprintf "termination violated: correct %a never applied %a#%d"
           Sim.Pid.pp p Sim.Pid.pp o s)
    | None -> (
      match List.map (fun (_, log) -> List.length log) logs with
      | l :: rest when List.exists (( <> ) l) rest ->
        Error
          "agreement violated: correct logs differ in length after the run \
           drained"
      | _ -> Ok ())
  in
  {
    name = "smr";
    on_output = prefix;
    final =
      (fun fp ~must_terminate events ->
        let* () = prefix fp events in
        if must_terminate then drained fp events else Ok ());
  }
