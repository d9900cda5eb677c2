(* Chaos harness for the sharded service: every shard gets its own
   Net.Chaos kernel fault stack (same schedule, shard-salted seed) under
   the node -> Rel -> Nemesis -> hub stack, a seeded Zipfian closed-loop
   workload routed through the ring, an optional scripted mid-run
   reconfiguration of every shard, and the sharded invariants checked
   online:

     - per-shard log prefix consistency among live replicas;
     - epoch handoff: a replica's Σ quorum is always of its own epoch,
       same-epoch quorums of one shard intersect, and replicas in
       different epochs have different applied counts (epochs advance
       in log order, so equal prefixes mean equal epochs);
     - no command lost or duplicated across the reconfiguration;
     - progress watchdog while the network is healthy;
     - quiescent linearizable reads: after the run, the router's quorum
       read of sampled keys must return exactly the last applied write.

   Driving is sequential and deterministic — a run is a pure function of
   (config, seed).  Router reads advance the same round function the
   main loop uses, so Nemesis ticks, skew and crashes stay consistent
   while a read waits for its quorum. *)

type config = {
  shards : int;
  replicas : int;
  spares : int;
  seed : int;
  rounds : int;
  period : int;
  detector : Fd.Emulated.Omega.kind;
  schedule : Net.Nemesis.schedule;  (* per shard; pids are group-local *)
  cmds : int;
  cmd_every : int;
  keys : int;
  theta : float;
  reconfig_at : int option;
      (* rotate every shard's membership at this round *)
  reads : int;  (* quiescent quorum reads after the run *)
  check_every : int;
  watchdog : int;
  resend_every : int;
}

let default ~shards ~replicas ~schedule =
  {
    shards;
    replicas;
    spares = 1;
    seed = 0;
    rounds = 3_000;
    period = 16;
    detector = Fd.Emulated.Omega.Heartbeat;
    schedule;
    cmds = 40;
    cmd_every = 50;
    keys = 64;
    theta = 0.99;
    reconfig_at = None;
    reads = 8;
    check_every = 50;
    watchdog = 900;
    resend_every = 8;
  }

type report = {
  rounds_run : int;
  submitted : int;
  applied : int array;  (* per shard: longest live applied log *)
  epochs : int array;  (* per shard: final installed epoch *)
  reconfig_done : bool;
  reads_ok : int;
  reads_bad : int;
  logs_identical : bool;
  all_applied : bool;
  no_duplicates : bool;
  failures : string list;
  nemesis : Net.Nemesis.stats array;  (* per shard *)
  rel_retransmits : int;
}

let ok r = r.failures = []

let pp_report ppf r =
  let ints ppf a =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
      Format.pp_print_int ppf (Array.to_list a)
  in
  Format.fprintf ppf
    "@[<v>rounds      %d@,submitted   %d@,applied     %a@,epochs      %a@,"
    r.rounds_run r.submitted ints r.applied ints r.epochs;
  Format.fprintf ppf "reconfig    %s@,reads       %d ok, %d bad@,"
    (if r.reconfig_done then "completed" else "none/incomplete")
    r.reads_ok r.reads_bad;
  Format.fprintf ppf "logs        %s@,completion  %s@,duplicates  %s@,"
    (if r.logs_identical then "identical per shard" else "DIVERGED")
    (if r.all_applied then "all applied" else "MISSING COMMANDS")
    (if r.no_duplicates then "none" else "DUPLICATED COMMANDS");
  Net.Chaos.pp_tail ppf ~nemesis:(Array.to_list r.nemesis)
    ~rel_retransmits:r.rel_retransmits ~failures:r.failures;
  Format.fprintf ppf "@]"

let run ?collector cfg =
  let sink = Option.map (fun (c : Obs.Collector.t) -> c.sink) collector in
  let metrics =
    Option.map (fun (c : Obs.Collector.t) -> c.metrics) collector
  in
  let universe = cfg.replicas + cfg.spares in
  let faults =
    Array.init cfg.shards (fun s ->
        Net.Chaos.faults ?sink ?metrics ~seed:(cfg.seed + s) ~n:universe
          ~resend_every:cfg.resend_every cfg.schedule)
  in
  let wrap ~shard = Net.Chaos.wrap faults.(shard) in
  let cluster =
    Cluster.create ~period:cfg.period ~detector:cfg.detector
      ?sink:(Option.map (fun s ~shard:_ _ -> Some s) sink)
      ~wrap ~shards:cfg.shards ~replicas:cfg.replicas ~spares:cfg.spares ()
  in
  let fs = Net.Chaos.failures () in
  let fail fmt = Net.Chaos.fail fs fmt in
  (* workload bookkeeping: (shard, origin, key, value), newest first *)
  let submitted = ref [] in
  let n_submitted = ref 0 in
  let zipf =
    Zipf.create ~theta:cfg.theta ~seed:(cfg.seed + 7919) ~keys:cfg.keys ()
  in
  (* expected post-reconfig configurations, once scripted *)
  let expected_cfg : Epoch.config option array = Array.make cfg.shards None in
  let live s = Group.live (Cluster.group cluster s) in
  let check_online r =
    for s = 0 to cfg.shards - 1 do
      let g = Cluster.group cluster s in
      let ps = live s in
      Net.Chaos.check_pairs ps ~log:(Group.applied_log g)
        ~diverged:(fun p q ->
          fail "round %d shard %d: logs of %d and %d not prefix-consistent" r
            s p q)
        ~pair:(fun p q ->
          let sp = Group.state g p and sq = Group.state g q in
          let ep = Replica.epoch sp and eq = Replica.epoch sq in
          if ep = eq then begin
            let qp = Fd.Emulated.Sigma_epoch.current (Replica.sigma_state sp)
            and qq =
              Fd.Emulated.Sigma_epoch.current (Replica.sigma_state sq)
            in
            if not (Sim.Pidset.intersects qp qq) then
              fail "round %d shard %d: disjoint quorums at %d and %d" r s p q
          end
          else if Replica.applied sp = Replica.applied sq then
            fail
              "round %d shard %d: %d and %d in epochs %d/%d with equal \
               applied count %d"
              r s p q ep eq (Replica.applied sp))
        ();
      (* the handoff contract, per replica: the held quorum is of the
         replica's own epoch, and Σ's epoch tracks the applied config *)
      List.iter
        (fun p ->
          let st = Group.state g p in
          let si = Replica.sigma_state st in
          if
            Fd.Emulated.Sigma_epoch.quorum_epoch si
            <> Fd.Emulated.Sigma_epoch.epoch si
          then
            fail "round %d shard %d: replica %d outputs a stale-epoch quorum"
              r s p;
          if Fd.Emulated.Sigma_epoch.epoch si <> Replica.epoch st then
            fail "round %d shard %d: replica %d Σ epoch != installed epoch" r
              s p)
        ps
    done
  in
  let dog = Net.Chaos.watchdog fs ~bound:cfg.watchdog in
  let r = ref 0 in
  let do_round () =
    incr r;
    let r = !r in
    Array.iteri
      (fun s f ->
        let g = Cluster.group cluster s in
        Net.Chaos.round f r
          ~alive:(fun p -> not (Group.crashed g p))
          ~crash:(Group.crash g) ~step:(Group.step_one g))
      faults;
    (* progress watchdog across the whole service *)
    Net.Chaos.progress dog r ~total:(Cluster.applied_total cluster)
      ~healthy:
        (Array.for_all (fun f -> Net.Nemesis.healthy (Net.Chaos.ctrl f)) faults)
      ~outstanding:(fun () ->
        List.exists
          (fun (s, o, _, value) ->
            (not (Group.crashed (Cluster.group cluster s) o))
            && List.exists
                 (fun p ->
                   not
                     (List.exists
                        (fun (_, (c : Replica.cmd)) ->
                          match c.Cons.Smr.payload with
                          | Replica.App a -> a.value = value
                          | Replica.Reconfig _ -> false)
                        (Group.applied_log (Cluster.group cluster s) p)))
                 (live s))
          !submitted);
    if r mod cfg.check_every = 0 then check_online r
  in
  let router =
    Router.create ~ring:(Cluster.ring cluster) ~ops:(Cluster.ops cluster)
      ~step:do_round
  in
  while !r < cfg.rounds do
    do_round ();
    (* workload: one Zipfian write per cmd_every rounds *)
    if !r mod cfg.cmd_every = 0 && !n_submitted < cfg.cmds then begin
      let key = Zipf.next_key zipf in
      let s = Ring.shard_of (Cluster.ring cluster) key in
      let g = Cluster.group cluster s in
      let c = Group.config g in
      match List.filter (fun p -> Epoch.is_member c p) (Group.live g) with
      | [] -> ()
      | origin :: _ ->
        let value = Printf.sprintf "v-%d" !n_submitted in
        Group.submit g origin (Replica.App { key; value });
        submitted := (s, origin, key, value) :: !submitted;
        incr n_submitted
    end;
    (* scripted membership rotation of every shard *)
    (match cfg.reconfig_at with
    | Some t when t = !r ->
      for s = 0 to cfg.shards - 1 do
        match Cluster.rotated_members cluster ~shard:s with
        | None -> fail "round %d shard %d: no spare to rotate in" !r s
        | Some members ->
          let cur = Group.config (Cluster.group cluster s) in
          if Cluster.reconfig cluster ~shard:s ~members then
            expected_cfg.(s) <-
              Some
                {
                  Epoch.epoch = cur.Epoch.epoch + 1;
                  members = Sim.Pidset.of_list members;
                }
          else fail "round %d shard %d: reconfig not accepted" !r s
      done
    | _ -> ())
  done;
  (* quiescent reads: the router's quorum read must return exactly the
     last applied write of each sampled key *)
  let reads_ok = ref 0 and reads_bad = ref 0 in
  let sampled_keys =
    !submitted
    |> List.map (fun (_, _, key, _) -> key)
    |> List.sort_uniq compare
    |> fun ks ->
    List.filteri (fun i _ -> i < cfg.reads) ks
  in
  List.iter
    (fun key ->
      let s = Ring.shard_of (Cluster.ring cluster) key in
      let g = Cluster.group cluster s in
      let c = Group.config g in
      let majority_alive =
        List.length (List.filter (fun p -> Epoch.is_member c p) (Group.live g))
        >= Epoch.majority c
      in
      if majority_alive then begin
        let expected =
          match Group.live g with
          | [] -> None
          | p :: _ ->
            (* longest live log's last App to [key] *)
            let best =
              List.fold_left
                (fun acc q ->
                  let l = Group.applied_log g q in
                  match acc with
                  | Some a when List.length a >= List.length l -> acc
                  | _ -> Some l)
                None
                (p :: List.tl (Group.live g))
            in
            Option.bind best (fun log ->
                List.fold_left
                  (fun acc (_, (c : Replica.cmd)) ->
                    match c.Cons.Smr.payload with
                    | Replica.App a when a.key = key -> Some a.value
                    | _ -> acc)
                  None log)
        in
        match Router.read ~max_rounds:(2 * cfg.watchdog) router ~key with
        | Ok got ->
          if got = expected then incr reads_ok
          else begin
            incr reads_bad;
            fail "read %s: got %s, expected %s from the applied log" key
              (Option.value ~default:"<none>" got)
              (Option.value ~default:"<none>" expected)
          end
        | Error e ->
          incr reads_bad;
          fail "read %s: %s" key e
      end)
    sampled_keys;
  check_online !r;
  (* reconfiguration completed: every live member of the expected final
     configuration installed it (when a member majority survives) *)
  let reconfig_done = ref (Array.exists Option.is_some expected_cfg) in
  Array.iteri
    (fun s exp ->
      match exp with
      | None -> ()
      | Some exp ->
        let g = Cluster.group cluster s in
        let live_members =
          List.filter (fun p -> Epoch.is_member exp p) (Group.live g)
        in
        if List.length live_members >= Epoch.majority exp then
          List.iter
            (fun p ->
              let st = Group.state g p in
              if Replica.config st <> exp then begin
                reconfig_done := false;
                fail
                  "shard %d: replica %d ended in %s, expected %s after \
                   reconfiguration"
                  s p
                  (Format.asprintf "%a" Epoch.pp (Replica.config st))
                  (Format.asprintf "%a" Epoch.pp exp)
              end)
            live_members
        else reconfig_done := false)
    expected_cfg;
  (* end-of-run: per-shard survivor logs identical; nothing lost or
     duplicated across the reconfiguration *)
  let logs_identical = ref true in
  let no_duplicates = ref true in
  for s = 0 to cfg.shards - 1 do
    let g = Cluster.group cluster s in
    if not (Net.Chaos.logs_identical (live s) ~log:(Group.applied_log g))
    then begin
      logs_identical := false;
      fail "end of run shard %d: survivor logs differ" s
    end;
    List.iter
      (fun p ->
        let values =
          List.filter_map
            (fun (_, (c : Replica.cmd)) ->
              match c.Cons.Smr.payload with
              | Replica.App a -> Some a.value
              | Replica.Reconfig _ -> None)
            (Group.applied_log g p)
        in
        if List.length values <> List.length (List.sort_uniq compare values)
        then begin
          no_duplicates := false;
          fail "end of run shard %d: replica %d applied a command twice" s p
        end)
      (live s)
  done;
  let all_applied = ref true in
  List.iter
    (fun (s, origin, _, value) ->
      let g = Cluster.group cluster s in
      let c = Group.config g in
      let member_live =
        List.filter (fun p -> Epoch.is_member c p) (Group.live g)
      in
      if
        (not (Group.crashed g origin))
        && List.length member_live >= Epoch.majority c
      then
        List.iter
          (fun p ->
            if
              not
                (List.exists
                   (fun (_, (cm : Replica.cmd)) ->
                     match cm.Cons.Smr.payload with
                     | Replica.App a -> a.value = value
                     | Replica.Reconfig _ -> false)
                   (Group.applied_log g p))
            then begin
              all_applied := false;
              fail "end of run shard %d: %s missing from replica %d" s value p
            end)
          member_live)
    !submitted;
  (* per-shard labeled metrics (Obs labels satellite) *)
  (match metrics with
  | None -> ()
  | Some m ->
    for s = 0 to cfg.shards - 1 do
      let labels = [ ("shard", string_of_int s) ] in
      Obs.Metrics.incr_l
        ~by:(Group.applied_max (Cluster.group cluster s))
        m "shard.applied" ~labels;
      Obs.Metrics.incr_l
        ~by:(Group.config (Cluster.group cluster s)).Epoch.epoch
        m "shard.epoch" ~labels
    done);
  {
    rounds_run = !r;
    submitted = !n_submitted;
    applied =
      Array.init cfg.shards (fun s ->
          Group.applied_max (Cluster.group cluster s));
    epochs =
      Array.init cfg.shards (fun s ->
          (Group.config (Cluster.group cluster s)).Epoch.epoch);
    reconfig_done = !reconfig_done;
    reads_ok = !reads_ok;
    reads_bad = !reads_bad;
    logs_identical = !logs_identical;
    all_applied = !all_applied;
    no_duplicates = !no_duplicates;
    failures = Net.Chaos.failed fs;
    nemesis = Array.map (fun f -> Net.Nemesis.stats (Net.Chaos.ctrl f)) faults;
    rel_retransmits =
      Array.fold_left (fun a f -> a + Net.Chaos.retransmits f) 0 faults;
  }
