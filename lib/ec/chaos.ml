(* The EC chaos harness: the Net.Chaos kernel pointed at the
   mixed-consistency node, with the invariants the EC paper's regime
   calls for — writes keep flowing in minority partitions while the
   quorum path freezes, replicas converge after heal, and a session
   pinned to one node reads its own writes. *)

module Nemesis = Net.Nemesis
module Local = Net.Local

type config = {
  n : int;
  seed : int;
  rounds : int;
  period : int;
  window : int;
  sync_every : int;
  schedule : Nemesis.schedule;
  puts_every : int;  (* every live node writes its session keys this often *)
  keys : int;  (* distinct keys per session *)
  lin_every : int;
  lin_cmds : int;
  check_every : int;
  watchdog : int;
  heal_bound : int;
  resend_every : int;
  grace : int;  (* rounds after the cut for in-flight decisions to land *)
}

(* Every node a singleton group: no majority component anywhere, so the
   quorum path provably cannot decide — the regime where only the EC
   path serves. *)
let default_schedule n =
  [
    (400, Nemesis.Partition (List.map Sim.Pidset.singleton (Sim.Pid.all n)));
    (1600, Nemesis.Heal);
  ]

let default ~n ~schedule =
  {
    n;
    seed = 0;
    (* The post-heal tail must cover the ARQ redelivery of the whole
       cut-era backlog (two towers' heartbeats from each of the n-1
       peers, drained at the model's one receive per round) before the
       stores can converge and the queued SMR commands can decide — so
       the tail, the watchdog and the convergence bound all scale with
       n-1. *)
    rounds = 1_600 + (1_200 * (n - 1));
    period = 16;
    window = 4;
    sync_every = 8;
    schedule;
    puts_every = 10;
    keys = 4;
    lin_every = 100;
    lin_cmds = 12;
    check_every = 50;
    watchdog = 600 * (n - 1);
    heal_bound = 500 * (n - 1);
    resend_every = 8;
    grace = 100;
  }

type heal = Net.Chaos.heal = { heal_round : int; reconverged_in : int option }

type report = {
  rounds_run : int;
  ec_puts : int array;  (* puts submitted per node *)
  ec_puts_in_partition : int;  (* store-rev growth inside the cut window *)
  smr_submitted : int;
  smr_applied : int array;
  smr_frozen_in_partition : bool;
  converged_in : int option;  (* rounds from last write to equal fingerprints *)
  heals : heal list;
  logs_identical : bool;
  all_applied : bool;
  failures : string list;
  nemesis : Nemesis.stats;
  rel_retransmits : int;
}

let ok r = r.failures = []

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>rounds      %d@,ec puts     %a  (in partition: %d)@,"
    r.rounds_run
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       Format.pp_print_int)
    (Array.to_list r.ec_puts)
    r.ec_puts_in_partition;
  Format.fprintf ppf "smr         submitted %d, applied %a%s@," r.smr_submitted
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       Format.pp_print_int)
    (Array.to_list r.smr_applied)
    (if r.smr_frozen_in_partition then ", frozen during partition" else "");
  (match r.converged_in with
  | Some d -> Format.fprintf ppf "converged   in %d rounds after last write@," d
  | None -> Format.fprintf ppf "converged   NOT within bound@,");
  List.iter
    (fun h ->
      match h.reconverged_in with
      | Some d ->
        Format.fprintf ppf "heal @@%d    EC leader re-agreed in %d rounds@,"
          h.heal_round d
      | None ->
        Format.fprintf ppf "heal @@%d    EC leader NOT re-agreed in bound@,"
          h.heal_round)
    r.heals;
  Format.fprintf ppf "logs        %s@,completion  %s@,"
    (if r.logs_identical then "identical" else "DIVERGED")
    (if r.all_applied then "all applied" else "MISSING COMMANDS");
  Net.Chaos.pp_tail ppf ~nemesis:[ r.nemesis ]
    ~rel_retransmits:r.rel_retransmits ~failures:r.failures;
  Format.fprintf ppf "@]"

(* The cut window of the schedule: the first partition/isolate command to
   the first Heal after it.  The partition-specific invariants (EC flows,
   SMR frozen) only fire when the schedule has one.  A directed Cut opens
   none: it can leave a majority component that still decides. *)
let cut_window schedule =
  let start =
    List.find_map
      (fun (t, c) ->
        match c with
        | Nemesis.Partition _ | Nemesis.Isolate _ -> Some t
        | _ -> None)
      schedule
  in
  match start with
  | None -> None
  | Some s -> (
    match
      List.find_map
        (fun (t, c) -> if c = Nemesis.Heal && t > s then Some t else None)
        schedule
    with
    | None -> None
    | Some h -> Some (s, h))

let run ?collector cfg =
  let sink = Option.map (fun (c : Obs.Collector.t) -> c.sink) collector in
  let metrics =
    Option.map (fun (c : Obs.Collector.t) -> c.metrics) collector
  in
  let fx =
    Net.Chaos.faults ?sink ?metrics ~seed:cfg.seed ~n:cfg.n
      ~resend_every:cfg.resend_every cfg.schedule
  in
  let ctrl = Net.Chaos.ctrl fx in
  let cluster =
    Local.make
      ~sink:(fun _ -> sink)
      ~wrap:(Net.Chaos.wrap fx)
      ~codec:(Codecs.mixed Net.Wire.string_c)
      ~n:cfg.n
      (Mixed.protocol ~window:cfg.window ~sync_every:cfg.sync_every
         ~period:cfg.period ())
  in
  let hub = Local.hub cluster in
  let alive p = not (Net.Loopback.crashed hub p) in
  let live () = List.filter alive (Sim.Pid.all cfg.n) in
  let state p = Local.state cluster p in
  let store_of p = Mixed.store (state p) in
  let smr_applied_at p = Cons.Smr.applied (Mixed.smr_state (state p)) in
  let ec_leader_of p =
    (Fd.Emulated.Omega_ec.detector ~period:cfg.period).Sim.Layered.current
      (Mixed.ec_detector (state p))
    |> fst
  in
  let ec_agreed () =
    match live () with
    | [] -> true
    | p :: rest ->
      let l = ec_leader_of p in
      alive l && List.for_all (fun q -> ec_leader_of q = l) rest
  in
  let decided_log p =
    List.filter_map
      (function Sim.Layered.Detector e -> Some e | Sim.Layered.Main _ -> None)
      (Local.outputs cluster p)
  in
  let fs = Net.Chaos.failures () in
  let fail fmt = Net.Chaos.fail fs fmt in
  (* workload bookkeeping *)
  let ec_puts = Array.make cfg.n 0 in
  let put_seq = Array.make cfg.n 0 in
  (* per node: key -> (value, node step-count at submit) for RYW *)
  let last_put = Array.init cfg.n (fun _ -> Hashtbl.create 8) in
  let lin_submitted = ref [] in
  let n_lin = ref 0 in
  let heals =
    Net.Chaos.heals ?metrics fs ~metric:"ec.heal_reagree_rounds"
      ~leader:"agreed live EC leader" ~until:"EC leader re-agreement"
      ~bound:cfg.heal_bound cfg.schedule
  in
  let dog = Net.Chaos.watchdog ~what:"SMR progress" fs ~bound:cfg.watchdog in
  let window = cut_window cfg.schedule in
  let stop_puts =
    match window with Some (_, h) -> h | None -> cfg.rounds / 2
  in
  let rev_total () = List.fold_left (fun a p -> a + Store.rev (store_of p)) 0 (live ()) in
  let smr_total () = List.fold_left (fun a p -> a + smr_applied_at p) 0 (live ()) in
  let rev_at_grace = ref 0 in
  let smr_at_grace = ref 0 in
  let ec_puts_in_partition = ref 0 in
  let smr_frozen = ref true in
  let converged_in = ref None in
  (* reference store: the join of every live replica's entries — what all
     of them will hold once anti-entropy finishes *)
  let reference () =
    List.fold_left
      (fun acc p ->
        let s = store_of p in
        List.fold_left
          (fun acc key ->
            match Store.get s key with
            | None -> acc
            | Some e -> (
              match List.assoc_opt key acc with
              | None -> (key, e) :: acc
              | Some held ->
                (key, Entry.join held e) :: List.remove_assoc key acc))
          acc (Store.keys s))
      [] (live ())
  in
  let sample_gauges () =
    match metrics with
    | None -> ()
    | Some m ->
      let reference = reference () in
      let divergent = ref 0 in
      let lags =
        List.map
          (fun p ->
            let s = store_of p in
            let lag =
              List.fold_left
                (fun lag (key, re) ->
                  match Store.get s key with
                  | Some held when Entry.equal held re -> lag
                  | _ -> lag + 1)
                0 reference
            in
            (p, lag))
          (live ())
      in
      List.iter
        (fun (key, re) ->
          if
            List.exists
              (fun p ->
                match Store.get (store_of p) key with
                | Some held -> not (Entry.equal held re)
                | None -> true)
              (live ())
          then incr divergent)
        reference;
      Obs.Metrics.set m "ec.divergent_keys" !divergent;
      List.iter
        (fun (p, lag) ->
          Obs.Metrics.set_l m "ec.replication_lag"
            ~labels:[ ("node", string_of_int p) ]
            lag)
        lags
  in
  let check_ryw r =
    List.iter
      (fun p ->
        Hashtbl.iter
          (fun key (value, at_step) ->
            if Local.now cluster p > at_step then
              match Store.get (store_of p) key with
              | Some e when String.equal e.Entry.value value -> ()
              | Some e ->
                fail "round %d: node %d reads %S for its own key %s, wrote %S"
                  r p e.Entry.value key value
              | None ->
                fail "round %d: node %d lost its own key %s" r p key)
          last_put.(p))
      (live ())
  in
  let check_online r =
    Net.Chaos.check_pairs (live ()) ~log:decided_log
      ~diverged:(fun p q ->
        fail "round %d: SMR logs of %d and %d not prefix-consistent" r p q)
      ();
    check_ryw r;
    sample_gauges ()
  in
  let fingerprints_equal () =
    match live () with
    | [] -> true
    | p :: rest ->
      let f = Store.fingerprint (store_of p) in
      List.for_all (fun q -> String.equal (Store.fingerprint (store_of q)) f) rest
  in
  for r = 1 to cfg.rounds do
    Net.Chaos.round fx r ~alive ~crash:(Local.crash cluster)
      ~step:(Local.step_one cluster);
    (* EC workload: every session writes its own namespace at every live
       node — including (especially) during the partition *)
    if r mod cfg.puts_every = 0 && r <= stop_puts then
      List.iter
        (fun p ->
          let i = put_seq.(p) in
          put_seq.(p) <- i + 1;
          let key = Printf.sprintf "s%d-k%d" p (i mod cfg.keys) in
          let value = Printf.sprintf "v%d-%d" p i in
          Local.submit cluster p
            (Sim.Layered.Main (Replica.Put { key; value }));
          Hashtbl.replace last_put.(p) key (value, Local.now cluster p);
          ec_puts.(p) <- ec_puts.(p) + 1;
          match metrics with
          | Some m ->
            Obs.Metrics.incr_l m "ec.puts"
              ~labels:[ ("node", string_of_int p) ]
          | None -> ())
        (live ());
    (* linearizable workload at the lowest live node *)
    if r mod cfg.lin_every = 0 && !n_lin < cfg.lin_cmds then begin
      match live () with
      | [] -> ()
      | p :: _ ->
        let payload = Printf.sprintf "lin-%d" !n_lin in
        Local.submit cluster p (Sim.Layered.Detector payload);
        lin_submitted := (p, payload) :: !lin_submitted;
        incr n_lin
    end;
    (* partition-window snapshots and assertions *)
    (match window with
    | None -> ()
    | Some (start, stop) ->
      if r = start + cfg.grace then begin
        rev_at_grace := rev_total ();
        smr_at_grace := smr_total ()
      end;
      if r = stop then begin
        ec_puts_in_partition := rev_total () - !rev_at_grace;
        if !ec_puts_in_partition <= 0 then
          fail
            "partition %d-%d: no EC write progress in the minority window"
            start stop;
        if smr_total () <> !smr_at_grace then begin
          smr_frozen := false;
          fail
            "partition %d-%d: SMR applied grew from %d to %d with no \
             majority component"
            start stop !smr_at_grace (smr_total ())
        end
      end);
    (* Ω-EC reconvergence after heal *)
    Net.Chaos.track heals r ~agreed:ec_agreed;
    (* store convergence after the last write *)
    if r > stop_puts && !converged_in = None && not (Nemesis.cut_active ctrl)
    then begin
      if fingerprints_equal () then begin
        converged_in := Some (r - stop_puts);
        match metrics with
        | Some m -> Obs.Metrics.set m "ec.converged_in" (r - stop_puts)
        | None -> ()
      end
      else if r - stop_puts > cfg.heal_bound then begin
        fail "stores not converged within %d rounds of the last write"
          cfg.heal_bound;
        converged_in := Some (-1)
      end
    end;
    (* SMR progress watchdog, only while the network is healthy *)
    Net.Chaos.progress dog r ~total:(smr_total ())
      ~healthy:(Nemesis.healthy ctrl)
      ~outstanding:(fun () ->
        let expected =
          List.length (List.filter (fun (o, _) -> alive o) !lin_submitted)
        in
        List.exists (fun p -> smr_applied_at p < expected) (live ()));
    if r mod cfg.check_every = 0 then check_online r
  done;
  check_online cfg.rounds;
  let converged_in =
    match !converged_in with
    | Some d when d >= 0 -> Some d
    | Some _ -> None
    | None ->
      if fingerprints_equal () then Some (cfg.rounds - stop_puts)
      else begin
        fail "end of run: stores never converged";
        None
      end
  in
  let heals = Net.Chaos.finish heals in
  let logs_identical, all_applied =
    Net.Chaos.check_survivors fs ~n:cfg.n ~survivors:(live ()) ~alive
      ~log:decided_log ~submitted:!lin_submitted ~logs:"SMR logs"
      ~cmds:"lin commands"
  in
  {
    rounds_run = max 0 cfg.rounds;
    ec_puts;
    ec_puts_in_partition = !ec_puts_in_partition;
    smr_submitted = !n_lin;
    smr_applied = Array.init cfg.n smr_applied_at;
    smr_frozen_in_partition = !smr_frozen;
    converged_in;
    heals;
    logs_identical;
    all_applied;
    failures = Net.Chaos.failed fs;
    nemesis = Nemesis.stats ctrl;
    rel_retransmits = Net.Chaos.retransmits fx;
  }
