(* ---------------------------------------------------------- the kernel *)

(* The pieces every chaos harness shares — the SMR run below, Shard.Chaos
   and Ec.Chaos — so each of those keeps only its config, its report and
   its own invariants. *)

type faults = {
  ctrl : Nemesis.ctrl;
  rels : Rel.t option array;
  resend_every : int;
  metrics : Obs.Metrics.t option;
}

let faults ?sink ?metrics ~seed ~n ~resend_every schedule =
  {
    ctrl = Nemesis.create ?sink ?metrics ~seed ~n schedule;
    rels = Array.make n None;
    resend_every;
    metrics;
  }

let ctrl f = f.ctrl

let wrap f p raw =
  let r =
    Rel.wrap ~resend_every:f.resend_every ?metrics:f.metrics
      (Nemesis.wrap f.ctrl raw)
  in
  f.rels.(p) <- Some r;
  Rel.transport r

let retransmits f =
  Array.fold_left
    (fun a -> function None -> a | Some r -> a + (Rel.stats r).retransmits)
    0 f.rels

let round f r ~alive ~crash ~step =
  let all = Sim.Pid.all (Array.length f.rels) in
  Nemesis.tick f.ctrl;
  (* crash-stop faults: silence the hub and stop stepping *)
  List.iter (fun p -> if Nemesis.killed f.ctrl p && alive p then crash p) all;
  (* every live node steps, skewed ones only every k-th round *)
  List.iter
    (fun p -> if alive p && r mod Nemesis.skew_of f.ctrl p = 0 then step p)
    all

type failures = { mutable rev : string list }

let failures () = { rev = [] }
let fail f fmt = Format.kasprintf (fun s -> f.rev <- s :: f.rev) fmt
let failed f = List.rev f.rev

(* is [shorter] a prefix of [longer]? *)
let rec is_prefix shorter longer =
  match (shorter, longer) with
  | [], _ -> true
  | _, [] -> false
  | a :: s, b :: l -> a = b && is_prefix s l

let check_pairs ps ~log ~diverged ?(pair = fun _ _ -> ()) () =
  List.iteri
    (fun i p ->
      List.iteri
        (fun j q ->
          if j > i then begin
            let lp = log p and lq = log q in
            if
              not
                (if List.length lp <= List.length lq then is_prefix lp lq
                 else is_prefix lq lp)
            then diverged p q;
            pair p q
          end)
        ps)
    ps

type watchdog = {
  wfail : failures;
  what : string;
  bound : int;
  mutable last_total : int;
  mutable last_progress : int;
}

let watchdog ?(what = "progress") wfail ~bound =
  { wfail; what; bound; last_total = 0; last_progress = 0 }

let progress w r ~total ~healthy ~outstanding =
  if total > w.last_total then begin
    w.last_total <- total;
    w.last_progress <- r
  end;
  if not healthy then w.last_progress <- r
  else if outstanding () && r - w.last_progress > w.bound then begin
    fail w.wfail "round %d: no %s for %d rounds on a healthy network" r
      w.what w.bound;
    w.last_progress <- r
  end

type heal = { heal_round : int; reconverged_in : int option }

type heals = {
  hfail : failures;
  schedule : Nemesis.schedule;
  hmetrics : Obs.Metrics.t option;
  metric : string;
  leader : string;
  until : string;
  hbound : int;
  mutable pending : heal list;
  mutable closed : heal list;  (* newest first *)
}

let heals ?metrics hfail ~metric ~leader ~until ~bound schedule =
  {
    hfail;
    schedule;
    hmetrics = metrics;
    metric;
    leader;
    until;
    hbound = bound;
    pending = [];
    closed = [];
  }

let track h r ~agreed =
  (* a Heal scheduled at this tick starts the reconvergence clock *)
  List.iter
    (fun (t, c) ->
      if t = r && c = Nemesis.Heal then
        h.pending <- { heal_round = r; reconverged_in = None } :: h.pending)
    h.schedule;
  if h.pending <> [] && agreed () then begin
    List.iter
      (fun x ->
        let d = r - x.heal_round in
        (match h.hmetrics with
        | Some m -> Obs.Metrics.observe m h.metric d
        | None -> ());
        h.closed <- { x with reconverged_in = Some d } :: h.closed)
      h.pending;
    h.pending <- []
  end
  else
    h.pending <-
      List.filter
        (fun x ->
          if r - x.heal_round > h.hbound then begin
            fail h.hfail "heal at round %d: no %s within %d rounds"
              x.heal_round h.leader h.hbound;
            h.closed <- x :: h.closed;
            false
          end
          else true)
        h.pending

let finish h =
  List.iter
    (fun x ->
      fail h.hfail "heal at round %d: run ended before %s" x.heal_round
        h.until;
      h.closed <- x :: h.closed)
    h.pending;
  h.pending <- [];
  List.rev h.closed

let logs_identical survivors ~log =
  match survivors with
  | [] -> true
  | p :: rest ->
    let lp = log p in
    List.for_all (fun q -> log q = lp) rest

let check_survivors fs ~n ~survivors ~alive ~log ~submitted ~logs ~cmds =
  let identical = logs_identical survivors ~log in
  if not identical then fail fs "end of run: survivor %s differ" logs;
  let majority_alive = 2 * List.length survivors > n in
  let all_applied =
    (not majority_alive)
    || List.for_all
         (fun (o, payload) ->
           (not (alive o))
           || List.for_all
                (fun p ->
                  List.exists
                    (fun (_, (c : _ Cons.Smr.cmd)) -> c.payload = payload)
                    (log p))
                survivors)
         submitted
  in
  if not all_applied then fail fs "end of run: submitted %s missing" cmds;
  (identical, all_applied)

let pp_tail ppf ~nemesis ~rel_retransmits ~failures =
  let sum f = List.fold_left (fun a s -> a + f s) 0 nemesis in
  Format.fprintf ppf
    "nemesis     dropped %d, duplicated %d, reordered %d, delayed %d@,"
    (sum (fun s -> s.Nemesis.n_dropped))
    (sum (fun s -> s.Nemesis.n_duplicated))
    (sum (fun s -> s.Nemesis.n_reordered))
    (sum (fun s -> s.Nemesis.n_delayed));
  Format.fprintf ppf "rel         %d retransmits@," rel_retransmits;
  match failures with
  | [] -> Format.fprintf ppf "invariants  all held@,"
  | fs -> List.iter (fun f -> Format.fprintf ppf "FAILED      %s@," f) fs

(* ------------------------------------------------------ the SMR harness *)

type config = {
  n : int;
  seed : int;
  rounds : int;
  period : int;
  detector : Fd.Emulated.Omega.kind;
  window : int;
  schedule : Nemesis.schedule;
  cmds : int;
  cmd_every : int;
  check_every : int;
  watchdog : int;
  heal_bound : int;
  resend_every : int;
}

let default ~n ~schedule =
  {
    n;
    seed = 0;
    rounds = 2_500;
    period = 16;
    detector = Fd.Emulated.Omega.Heartbeat;
    window = 4;
    schedule;
    cmds = 20;
    cmd_every = 100;
    check_every = 50;
    watchdog = 800;
    heal_bound = 1_200;
    resend_every = 8;
  }

type report = {
  rounds_run : int;
  submitted : int;
  applied : int array;
  logs_identical : bool;
  all_applied : bool;
  heals : heal list;
  failures : string list;
  nemesis : Nemesis.stats;
  rel_retransmits : int;
}

let ok r = r.failures = []

let pp_report ppf r =
  Format.fprintf ppf "@[<v>rounds      %d@,submitted   %d@,applied     %a@,"
    r.rounds_run r.submitted
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       Format.pp_print_int)
    (Array.to_list r.applied);
  Format.fprintf ppf "logs        %s@,completion  %s@,"
    (if r.logs_identical then "identical" else "DIVERGED")
    (if r.all_applied then "all applied" else "MISSING COMMANDS");
  List.iter
    (fun h ->
      match h.reconverged_in with
      | Some d ->
        Format.fprintf ppf "heal @@%d    leader re-agreed in %d rounds@,"
          h.heal_round d
      | None ->
        Format.fprintf ppf "heal @@%d    leader NOT re-agreed in bound@,"
          h.heal_round)
    r.heals;
  pp_tail ppf ~nemesis:[ r.nemesis ] ~rel_retransmits:r.rel_retransmits
    ~failures:r.failures;
  Format.fprintf ppf "@]"

let run ?collector cfg =
  let sink = Option.map (fun (c : Obs.Collector.t) -> c.sink) collector in
  let metrics =
    Option.map (fun (c : Obs.Collector.t) -> c.metrics) collector
  in
  let fx =
    faults ?sink ?metrics ~seed:cfg.seed ~n:cfg.n
      ~resend_every:cfg.resend_every cfg.schedule
  in
  let cluster =
    Local.create ~period:cfg.period ~detector:cfg.detector ~window:cfg.window
      ~sink:(fun _ -> sink) ~wrap:(wrap fx) ?metrics ~n:cfg.n ()
  in
  let hub = Local.hub cluster in
  let alive p = not (Loopback.crashed hub p) in
  let live () = List.filter alive (Sim.Pid.all cfg.n) in
  let log p = Local.outputs cluster p in
  let applied_at p = List.length (log p) in
  let leader_of p =
    Fd.Emulated.Omega.current (Smr_node.omega_state (Local.state cluster p))
  in
  let quorum_of p =
    let si = Smr_node.sigma_state (Local.state cluster p) in
    if Fd.Emulated.Sigma_majority.rounds si > 0 then
      Some (Fd.Emulated.Sigma_majority.detector.Sim.Layered.current si)
    else None
  in
  let omega_agreed () =
    match live () with
    | [] -> true
    | p :: rest ->
      let l = leader_of p in
      alive l && List.for_all (fun q -> leader_of q = l) rest
  in
  let fs = failures () in
  (* submitted commands, newest first: payload and origin replica *)
  let submitted = ref [] in
  let n_submitted = ref 0 in
  let heals =
    heals ?metrics fs ~metric:"net.partition_heal_ms"
      ~leader:"single live leader" ~until:"reconvergence"
      ~bound:cfg.heal_bound cfg.schedule
  in
  let dog = watchdog fs ~bound:cfg.watchdog in
  let check_online r =
    check_pairs (live ()) ~log
      ~diverged:(fun p q ->
        fail fs "round %d: logs of %d and %d not prefix-consistent" r p q)
      ~pair:(fun p q ->
        match (quorum_of p, quorum_of q) with
        | Some a, Some b when not (Sim.Pidset.intersects a b) ->
          fail fs "round %d: disjoint quorums at %d and %d" r p q
        | _ -> ())
      ()
  in
  for r = 1 to cfg.rounds do
    round fx r ~alive ~crash:(Local.crash cluster)
      ~step:(Local.step_one cluster);
    (* workload: submit at the lowest live replica *)
    if r mod cfg.cmd_every = 0 && !n_submitted < cfg.cmds then begin
      match live () with
      | [] -> ()
      | p :: _ ->
        let payload = Printf.sprintf "cmd-%d" !n_submitted in
        Local.submit cluster p payload;
        submitted := (p, payload) :: !submitted;
        incr n_submitted
    end;
    track heals r ~agreed:omega_agreed;
    progress dog r
      ~total:(List.fold_left (fun a p -> a + applied_at p) 0 (live ()))
      ~healthy:(Nemesis.healthy fx.ctrl)
      ~outstanding:(fun () ->
        let expected =
          List.length (List.filter (fun (o, _) -> alive o) !submitted)
        in
        List.exists (fun p -> applied_at p < expected) (live ()));
    if r mod cfg.check_every = 0 then check_online r
  done;
  check_online cfg.rounds;
  let heals = finish heals in
  let logs_identical, all_applied =
    check_survivors fs ~n:cfg.n ~survivors:(live ()) ~alive ~log
      ~submitted:!submitted ~logs:"logs" ~cmds:"commands"
  in
  {
    rounds_run = max 0 cfg.rounds;
    submitted = !n_submitted;
    applied = Array.init cfg.n applied_at;
    logs_identical;
    all_applied;
    heals;
    failures = failed fs;
    nemesis = Nemesis.stats fx.ctrl;
    rel_retransmits = retransmits fx;
  }
