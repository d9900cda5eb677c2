(* The deployable replica, Net.Smr_node at n = 3, driven round-robin over
   the loopback hub exactly as Net.Local drives it (one Net.Node step per
   live node per round), so every output is seen in the round it appears.

   smr_write   closed loop at replica 0 over the bare hub;
   smr_faults  open loop on the round clock, each transport stacked
               node -> Net.Rel -> Net.Nemesis -> hub as Net.Chaos builds it. *)

let n = 3
let period = 16

type node =
  ( string Net.Smr_node.pstate,
    string Net.Smr_node.pmsg,
    string,
    int * string Cons.Smr.cmd )
  Net.Node.t

(* Counted by the traced wrappers only. *)
type counts = {
  mutable bytes : int;  (* bytes handed to the hub *)
  mutable data_frames : int;  (* frames nodes handed to Rel for a peer *)
  mutable fd_frames : int;  (* decoded frames Smr_node.classify names *)
}

type cluster = {
  hub : Net.Loopback.hub;
  nodes : node array;
  rels : Net.Rel.t option array;
  ctrl : Net.Nemesis.ctrl option;
  traced : bool;
  cnt : counts;
  mutable round : int;
}

let build ~traced ?ctrl () =
  let hub = Net.Loopback.create ~n in
  let cnt = { bytes = 0; data_frames = 0; fd_frames = 0 } in
  let rels = Array.make n None in
  let traced_tr ?on_send ~send ~poll t =
    if traced then Trace.transport ?on_send ~send ~poll t else t
  in
  let wrap p raw =
    let raw =
      traced_tr raw ~send:Trace.k_send ~poll:Trace.k_poll ~on_send:(fun _ f ->
          cnt.bytes <- cnt.bytes + Bytes.length f)
    in
    match ctrl with
    | None -> raw
    | Some c ->
      let nem =
        traced_tr (Net.Nemesis.wrap c raw) ~send:Trace.k_nem_send
          ~poll:Trace.k_nem_poll
      in
      let r = Net.Rel.wrap ~resend_every:8 nem in
      rels.(p) <- Some r;
      traced_tr (Net.Rel.transport r) ~send:Trace.k_rel_send
        ~poll:Trace.k_rel_poll ~on_send:(fun dst _ ->
          if dst <> p then cnt.data_frames <- cnt.data_frames + 1)
  in
  let codec = Net.Codecs.pmsg Net.Wire.string_c in
  let proto = Net.Smr_node.protocol ~window:16 ~batch_max:1024 ~period () in
  let codec, proto =
    if not traced then (codec, proto)
    else
      ( Trace.codec codec ~on_dec:(fun msg _ ->
            if Net.Smr_node.classify msg <> None then
              cnt.fd_frames <- cnt.fd_frames + 1),
        Trace.protocol proto ~step:Trace.k_step ~input:Trace.k_input )
  in
  {
    hub;
    nodes =
      Array.init n (fun p ->
          Net.Node.create ~codec
            ~transport:(wrap p (Net.Loopback.endpoint hub p))
            proto);
    rels;
    ctrl;
    traced;
    cnt;
    round = 0;
  }

let alive c p = not (Net.Loopback.crashed c.hub p)
let live c = List.filter (alive c) (Sim.Pid.all n)
let pstate c p = Net.Node.state c.nodes.(p)
let smr c p = Net.Smr_node.smr_state (pstate c p)
let leader c p = Fd.Emulated.Omega.current (Net.Smr_node.omega_state (pstate c p))

let sigma_ready c p =
  Fd.Emulated.Sigma_majority.rounds (Net.Smr_node.sigma_state (pstate c p)) > 0

(* The leader every live replica agrees on, if it is live. *)
let agreed c =
  match live c with
  | [] -> None
  | p :: rest ->
    let l = leader c p in
    if alive c l && List.for_all (fun q -> leader c q = l) rest then Some l
    else None

(* One round: the nemesis clock ticks, then every live node takes one
   step; [on_outs p outs] sees each node's outputs right after its step. *)
let step c ~on_outs =
  Option.iter Net.Nemesis.tick c.ctrl;
  c.round <- c.round + 1;
  for p = 0 to n - 1 do
    if alive c p then begin
      let node = c.nodes.(p) in
      if c.traced then
        Trace.span Trace.k_node (fun nd -> ignore (Net.Node.step nd)) node
      else ignore (Net.Node.step node);
      match Net.Node.drain_outputs node with
      | [] -> ()
      | outs -> on_outs p outs
    end
  done

let no_outs _ _ = ()

(* Step until every replica agrees on a live leader and holds a Σ quorum,
   for [hold] consecutive rounds after at least [min_rounds]. *)
let warm_up ?(min_rounds = 200) ?(hold = 64) c =
  let stable = ref 0 in
  while c.round < min_rounds || !stable < hold do
    if c.round > 5_000 then failwith "warm-up: no stable leader in 5000 rounds";
    step c ~on_outs:no_outs;
    stable :=
      if agreed c <> None && List.for_all (sigma_ready c) (live c) then
        !stable + 1
      else 0
  done

(* Seeded payloads, 8 to 32 lowercase letters. *)
let payloads ~seed ~count =
  let rng = Random.State.make [| seed; 0x5eed |] in
  Array.init count (fun _ ->
      let len = 8 + Random.State.int rng 25 in
      String.init len (fun _ -> Char.chr (97 + Random.State.int rng 26)))

let errors_of l = List.rev l

(* ================================================================== *)
(* smr_write: closed loop, [outstanding] commands in flight at replica 0. *)

let outstanding = 512
let write_count = 100_000

type wtrial = {
  w_elapsed : float;  (* first submit to last apply at replica 0 *)
  w_time : Report.timing;
  w_lat_ms : float array;
  w_lat_rounds : float array;
  w_rounds : int;
  w_quarter_s : float array;  (* time for each quarter of the commands *)
  w_minor_words : float;
  w_major : int;
  w_backlog_max : int;
  w_cmds_per_instance : float;
  w_errors : string list;
}

let write_trial c ~setup ~payloads =
  let count = Array.length payloads in
  let node0 = c.nodes.(0) in
  let sub_ns = Array.make count 0 and sub_round = Array.make count 0 in
  let lat_ms = Array.make count nan and lat_rounds = Array.make count nan in
  let log_seq = Array.init n (fun _ -> Array.make count (-1)) in
  let log_pl = Array.init n (fun _ -> Array.make count "") in
  let len = Array.make n 0 in
  let errors = ref [] in
  let err s = if List.length !errors < 8 then errors := s :: !errors in
  let on_outs p outs =
    let now = if p = 0 then Trace.now_ns () else 0 in
    List.iter
      (fun (slot, (cmd : string Cons.Smr.cmd)) ->
        let i = len.(p) in
        if i >= count || slot <> i || cmd.origin <> 0 then
          err
            (Printf.sprintf "replica %d: unexpected entry slot %d origin %d" p
               slot cmd.origin)
        else begin
          log_seq.(p).(i) <- cmd.seq;
          log_pl.(p).(i) <- cmd.payload;
          len.(p) <- i + 1;
          if p = 0 && cmd.seq >= 0 && cmd.seq < count then begin
            lat_ms.(cmd.seq) <- float_of_int (now - sub_ns.(cmd.seq)) *. 1e-6;
            lat_rounds.(cmd.seq) <- float_of_int (c.round - sub_round.(cmd.seq))
          end
        end)
      outs
  in
  let quarter_ns = Array.make 4 0 in
  let next_q = ref 1 in
  let submitted = ref 0 in
  let backlog_max = ref 0 in
  let round0 = c.round in
  let round_cap = round0 + (2 * count) in
  let gc0 = Gc.quick_stat () in
  if c.traced then begin
    Trace.start ();
    Trace.enter Trace.k_trial
  end;
  let t0 = Trace.now_ns () in
  while len.(0) < count && c.round < round_cap do
    let now = Trace.now_ns () in
    while !submitted < count && !submitted - len.(0) < outstanding do
      sub_ns.(!submitted) <- now;
      sub_round.(!submitted) <- c.round;
      Net.Node.inject node0 payloads.(!submitted);
      incr submitted
    done;
    if c.traced then Trace.set_op c.round;
    step c ~on_outs;
    while !next_q <= 4 && len.(0) * 4 >= !next_q * count do
      quarter_ns.(!next_q - 1) <- Trace.now_ns ();
      incr next_q
    done;
    if c.traced then
      backlog_max := max !backlog_max (Cons.Smr.backlog (smr c 0))
  done;
  let t1 = Trace.now_ns () in
  if c.traced then begin
    Trace.leave ();
    Trace.stop ()
  end;
  let gc1 = Gc.quick_stat () in
  let rounds = c.round - round0 in
  (* let the followers catch up, then check the logs *)
  let drain_cap = c.round + 20_000 in
  while Array.exists (fun l -> l < count) len && c.round < drain_cap do
    step c ~on_outs
  done;
  Array.iteri
    (fun p l ->
      if l <> count then
        err (Printf.sprintf "replica %d applied %d of %d commands" p l count))
    len;
  let seen = Array.make count false in
  for i = 0 to len.(0) - 1 do
    let s = log_seq.(0).(i) in
    if s < 0 || s >= count || seen.(s) then
      err (Printf.sprintf "command seq %d applied twice or unknown" s)
    else begin
      seen.(s) <- true;
      if not (String.equal log_pl.(0).(i) payloads.(s)) then
        err (Printf.sprintf "command %d applied with a wrong payload" s)
    end
  done;
  for p = 1 to n - 1 do
    for i = 0 to min len.(0) len.(p) - 1 do
      if
        log_seq.(p).(i) <> log_seq.(0).(i)
        || not (String.equal log_pl.(p).(i) log_pl.(0).(i))
      then err (Printf.sprintf "replica %d log differs at slot %d" p i)
    done
  done;
  let st0 = smr c 0 in
  let prev = ref t0 in
  let quarter_s =
    Array.map
      (fun q ->
        let d = float_of_int (q - !prev) *. 1e-9 in
        prev := q;
        d)
      quarter_ns
  in
  {
    w_elapsed = float_of_int (t1 - t0) *. 1e-9;
    w_time = setup;
    w_lat_ms = lat_ms;
    w_lat_rounds = lat_rounds;
    w_rounds = rounds;
    w_quarter_s = quarter_s;
    w_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    w_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    w_backlog_max = !backlog_max;
    w_cmds_per_instance =
      float_of_int (Cons.Smr.applied st0)
      /. float_of_int (max 1 (Cons.Smr.applied_instances st0));
    w_errors = errors_of !errors;
  }

let setup_write ~traced () =
  Report.setup (fun () ->
      let c = build ~traced () in
      warm_up c;
      c)

let p50 = Stats.p50
let p99 = Stats.p99
let med = Stats.med

let hub_counts c count =
  let sent = Net.Loopback.sent c.hub in
  [
    Report.m "hub.frames_per_op" "frames/op"
      (float_of_int sent /. float_of_int count);
    Report.m "hub.undelivered" "frames"
      (float_of_int (sent - Net.Loopback.delivered c.hub));
  ]

let run_write ~seed ~seconds ~trace =
  let payloads = payloads ~seed ~count:write_count in
  let count = write_count in
  let live_words = ref 0 in
  let untraced_s = if trace then seconds /. 2. else seconds in
  let trials =
    Report.repeat ~seconds:untraced_s ~min:1 ~timing:(fun t -> t.w_time) (fun i ->
        let c, setup = setup_write ~traced:false () in
        let tr = write_trial c ~setup ~payloads in
        if i = 0 then begin
          (* the cluster is still reachable here *)
          live_words := Report.live_words ();
          ignore (Sys.opaque_identity c)
        end;
        tr)
  in
  let errors = List.concat_map (fun t -> t.w_errors) trials in
  let ops t = float_of_int count /. t.w_elapsed in
  let first = List.hd trials in
  let e2e, raw =
    Report.end_to_end trials ~live_words:!live_words
      ~timing:(fun t -> t.w_time)
      ~ops_per_s:ops
      ~p50_ms:(fun t -> p50 t.w_lat_ms)
      ~p99_ms:(fun t -> p99 t.w_lat_ms)
  in
  let detail =
    raw
    @ [
      Report.m "write_p50_ms" "ms" (med (fun t -> p50 t.w_lat_ms) trials);
      Report.m "write_p99_ms" "ms" (med (fun t -> p99 t.w_lat_ms) trials);
      Report.m "write_p50_rounds" "rounds" (p50 first.w_lat_rounds);
      Report.m "write_p99_rounds" "rounds" (p99 first.w_lat_rounds);
      Report.m "rounds_per_s" "rounds/s"
        (med (fun t -> float_of_int t.w_rounds /. t.w_elapsed) trials);
    ]
  in
  let layers, errors =
    if not trace then ([], errors)
    else begin
      let c, setup = setup_write ~traced:true () in
      let tr = write_trial c ~setup ~payloads in
      let per_op x = x /. float_of_int count in
      ( [
          Report.m "wire.decode_s" "s" (Trace.self_s Trace.k_decode);
          Report.m "wire.encode_s" "s" (Trace.self_s Trace.k_encode);
          Report.m "wire.bytes_per_op" "B/op" (per_op (float_of_int c.cnt.bytes));
          Report.m "smr.step_s" "s" (Trace.self_s Trace.k_step);
          Report.m "smr.input_s" "s" (Trace.self_s Trace.k_input);
          Report.m "smr.cmds_per_instance" "cmds" tr.w_cmds_per_instance;
          Report.m "smr.backlog_max" "cmds" (float_of_int tr.w_backlog_max);
          Report.m "smr.rate_q4_over_q1" "ratio"
            (med (fun t -> t.w_quarter_s.(0) /. t.w_quarter_s.(3)) trials);
          Report.m "gc.minor_words_per_op" "words/op" (per_op first.w_minor_words);
          Report.m "gc.live_words_per_op" "words/op"
            (per_op (float_of_int !live_words));
          Report.m "gc.major_collections" "count" (float_of_int first.w_major);
          Report.m "transport.send_s" "s" (Trace.self_s Trace.k_send);
          Report.m "transport.poll_s" "s" (Trace.self_s Trace.k_poll);
          Report.m "fd.frames_per_round" "frames/round"
            (float_of_int c.cnt.fd_frames /. float_of_int tr.w_rounds);
          Report.m "node.self_s" "s" (Trace.self_s Trace.k_node);
          Report.m "trace.overhead_pct" "%"
            (Report.overhead_pct tr trials ~timing:(fun t -> t.w_time)
               ~elapsed:(fun t -> t.w_elapsed));
        ]
        @ hub_counts c count
        @ Report.split (),
        errors @ tr.w_errors )
    end
  in
  {
    Report.errors;
    attempted = count * List.length trials;
    failed =
      List.fold_left
        (fun a t ->
          a + Array.fold_left (fun a l -> if Float.is_nan l then a + 1 else a) 0 t.w_lat_ms)
        0 trials;
    trials = List.length trials;
    e2e;
    detail;
    layers;
  }

(* ================================================================== *)
(* smr_faults: open loop on the round clock.  Command i is due at round
   1 + i * every after warm-up and is sent at its due round.  The fault schedule: 1% loss
   on every link throughout, replica 0 (the warmed-up leader) isolated at
   a quarter of the arrival phase and healed [heal_after] rounds later,
   then the leader of that moment killed at five eighths.  The client
   keeps sending to one replica while it can reach it, and otherwise
   moves to the lowest-numbered one it can reach.  When the replica
   holding a command becomes unreachable the client sends the command
   again to the replica it now uses (at-least-once), and a command
   counts as committed when some copy is applied at the replica it was
   sent to. *)

let warm_rounds = 400
let arrival = 32_000
let heal_after = 500
let drain_cap = 30_000
let nominal_every = 32
let sweep_every = [ 48; 40; 32; 24; 16 ]

(* p99 latency limit, in rounds from the due round *)
let round_limit = 500

type ftrial = {
  f_every : int;
  f_count : int;
  f_acked : int;
  f_time : Report.timing;
  f_elapsed : float;
  f_rounds : int;
  f_lat_rounds : float array;  (* infinity = never committed *)
  f_lat_ms : float array;
  f_backlog_end : int;
  f_failover : int;
  f_reconverge : int;
  f_leader_changes : int;
  f_minor_words : float;
  f_errors : string list;
}

let fault_schedule =
  let any = { Net.Nemesis.src = None; dst = None } in
  [
    (0, Net.Nemesis.Drop (any, 0.01));
    (warm_rounds + (arrival / 4), Net.Nemesis.Isolate 0);
    (warm_rounds + (arrival / 4) + heal_after, Net.Nemesis.Heal);
  ]

let setup_faults ~traced ~seed () =
  Report.setup (fun () ->
      let ctrl = Net.Nemesis.create ~seed ~n fault_schedule in
      let c = build ~traced ~ctrl () in
      warm_up ~min_rounds:warm_rounds ~hold:0 c;
      c)

let fault_trial c ~setup ~payloads ~every =
  let errors = ref [] in
  let err s = if List.length !errors < 8 then errors := s :: !errors in
  if agreed c <> Some 0 then err "warm-up did not settle on leader 0";
  let count = ((arrival - 1) / every) + 1 in
  let due i = 1 + (i * every) in
  let iso_at = arrival / 4 and kill_at = 5 * arrival / 8 in
  let heal_at = iso_at + heal_after in
  let base = c.round in
  let acked = Array.make count false and ack_round = Array.make count 0 in
  let copy_at = Array.make count (-1) in
  let subs = Array.init n (fun _ -> Stats.buf ()) in
  let logs = Array.init n (fun _ -> Stats.buf ()) in
  let n_acked = ref 0 and submitted = ref 0 in
  let ends = Array.make (arrival + drain_cap + 1) 0 in
  let reachable r p = alive c p && not (p = 0 && r >= iso_at && r < heal_at) in
  let current = ref 0 in
  let target r =
    if not (reachable r !current) then
      current :=
        Option.value ~default:!current
          (List.find_opt (reachable r) (Sim.Pid.all n));
    !current
  in
  let send r i =
    let p = target r in
    Net.Node.inject c.nodes.(p) payloads.(i);
    Stats.push subs.(p) i;
    copy_at.(i) <- p
  in
  let resend_from r q =
    for i = 0 to !submitted - 1 do
      if (not acked.(i)) && copy_at.(i) = q then send r i
    done
  in
  let on_outs p outs =
    let r = c.round - base in
    List.iter
      (fun (slot, (cmd : string Cons.Smr.cmd)) ->
        let o = cmd.origin in
        let idx =
          if o >= 0 && o < n && cmd.seq >= 0 && cmd.seq < subs.(o).Stats.len then
            subs.(o).Stats.data.(cmd.seq)
          else -1
        in
        if slot <> logs.(p).Stats.len || idx < 0 then
          err (Printf.sprintf "replica %d: unexpected entry at slot %d" p slot)
        else begin
          Stats.push logs.(p) idx;
          if o = p && not acked.(idx) then begin
            acked.(idx) <- true;
            ack_round.(idx) <- r;
            incr n_acked
          end
        end)
      outs
  in
  let leaders = Array.init n (fun p -> leader c p) in
  let leader_changes = ref 0 in
  let pending = ref [] and reconverge = ref 0 in
  let gc0 = Gc.quick_stat () in
  if c.traced then begin
    Trace.start ();
    Trace.enter Trace.k_trial
  end;
  ends.(0) <- Trace.now_ns ();
  let r = ref 0 in
  let backlog_end = ref 0 in
  let survivors_level () =
    match live c with
    | [] -> true
    | p :: rest -> List.for_all (fun q -> logs.(q).Stats.len = logs.(p).Stats.len) rest
  in
  while
    !r < arrival
    || ((!n_acked < count || not (survivors_level ())) && !r < arrival + drain_cap)
  do
    incr r;
    let r = !r in
    if r = iso_at then begin
      if agreed c <> Some 0 then err "isolated replica 0 was not the leader";
      resend_from r 0
    end;
    if r = kill_at then begin
      let l = leader c (List.hd (live c)) in
      Net.Loopback.crash c.hub l;
      resend_from r l
    end;
    while !submitted < count && due !submitted = r do
      send r !submitted;
      incr submitted
    done;
    if c.traced then Trace.set_op r;
    step c ~on_outs;
    ends.(r) <- Trace.now_ns ();
    if r = heal_at || r = kill_at then pending := r :: !pending;
    if !pending <> [] && agreed c <> None then begin
      List.iter (fun e -> reconverge := max !reconverge (r - e)) !pending;
      pending := []
    end;
    if r = arrival then backlog_end := count - !n_acked;
    if c.traced then
      List.iter
        (fun p ->
          let l = leader c p in
          if l <> leaders.(p) then begin
            leaders.(p) <- l;
            incr leader_changes
          end)
        (live c)
  done;
  let rounds = !r in
  if c.traced then begin
    Trace.leave ();
    Trace.stop ()
  end;
  let gc1 = Gc.quick_stat () in
  if !pending <> [] then err "no agreed leader after a fault by run end";
  (* survivors' logs are prefix-consistent and hold every committed
     command *)
  let surv = live c in
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          if q > p then
            for i = 0 to min logs.(p).Stats.len logs.(q).Stats.len - 1 do
              if logs.(p).Stats.data.(i) <> logs.(q).Stats.data.(i) then
                err (Printf.sprintf "logs of %d and %d differ at slot %d" p q i)
            done)
        surv;
      let present = Array.make count false in
      for i = 0 to logs.(p).Stats.len - 1 do
        present.(logs.(p).Stats.data.(i)) <- true
      done;
      Array.iteri
        (fun i a ->
          if a && not present.(i) then
            err (Printf.sprintf "committed command %d missing on replica %d" i p))
        acked)
    surv;
  let lat_rounds =
    Array.init count (fun i ->
        if acked.(i) then float_of_int (ack_round.(i) - due i) else infinity)
  in
  let lat_ms =
    Array.init count (fun i ->
        if acked.(i) then float_of_int (ends.(ack_round.(i)) - ends.(due i - 1)) *. 1e-6
        else infinity)
  in
  let failover =
    List.fold_left
      (fun acc f ->
        let i = (f - 1 + every - 1) / every in
        if i < count && acked.(i) then max acc (ack_round.(i) - f) else max_int)
      0 [ iso_at; kill_at ]
  in
  {
    f_every = every;
    f_count = count;
    f_acked = !n_acked;
    f_time = setup;
    f_elapsed = float_of_int (ends.(rounds) - ends.(0)) *. 1e-9;
    f_rounds = rounds;
    f_lat_rounds = lat_rounds;
    f_lat_ms = lat_ms;
    f_backlog_end = !backlog_end;
    f_failover = failover;
    f_reconverge = !reconverge;
    f_leader_changes = !leader_changes;
    f_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    f_errors = errors_of !errors;
  }

let rate_per_kround every = 1000. /. float_of_int every

(* A rate passes when its p99 meets the round limit and the backlog at
   the end of the arrival phase is no more than the limit's worth of
   arrivals (a queue that keeps every command under the limit). *)
let meets_limit t =
  p99 t.f_lat_rounds <= float_of_int round_limit
  && t.f_backlog_end * t.f_every <= round_limit

let run_faults ~seed ~seconds ~trace =
  let payloads = payloads ~seed ~count:((arrival / List.fold_left min max_int sweep_every) + 1) in
  let fresh ~traced every =
    let c, setup = setup_faults ~traced ~seed () in
    (c, fault_trial c ~setup ~payloads ~every)
  in
  let live_words = ref 0 in
  let t_start = Report.mono_s () in
  (* the rate sweep, once per run: counts only, no wall-clock metric *)
  let sweep =
    List.map (fun every -> (every, snd (fresh ~traced:false every))) sweep_every
  in
  let left =
    (if trace then seconds /. 2. else seconds) -. (Report.mono_s () -. t_start)
  in
  let trials =
    Report.repeat ~seconds:left ~min:1 ~timing:(fun t -> t.f_time) (fun i ->
        let c, t = fresh ~traced:false nominal_every in
        if i = 0 then begin
          live_words := Report.live_words ();
          ignore (Sys.opaque_identity c)
        end;
        t)
  in
  let first = List.hd trials in
  let all = List.map snd sweep @ trials in
  let errors = List.concat_map (fun t -> t.f_errors) all in
  let e2e, raw =
    Report.end_to_end trials ~live_words:!live_words
      ~timing:(fun t -> t.f_time)
      ~ops_per_s:(fun t -> float_of_int t.f_acked /. t.f_elapsed)
      ~p50_ms:(fun t -> p50 t.f_lat_ms)
      ~p99_ms:(fun t -> p99 t.f_lat_ms)
  in
  let max_rate =
    List.fold_left
      (fun acc (every, t) ->
        if meets_limit t then Float.max acc (rate_per_kround every) else acc)
      0. sweep
  in
  let detail =
    raw
    @ [
      Report.m "latency_p50_rounds" "rounds" (p50 first.f_lat_rounds);
      Report.m "latency_p99_rounds" "rounds" (p99 first.f_lat_rounds);
      Report.m "failover_rounds" "rounds" (float_of_int first.f_failover);
      Report.m "rounds_per_s" "rounds/s"
        (med (fun t -> float_of_int t.f_rounds /. t.f_elapsed) trials);
    ]
    @ Report.m "max_rate_per_kround" "cmds/kround" max_rate
      :: List.concat_map
           (fun (every, t) ->
             let at name = Printf.sprintf "%s@%g" name (rate_per_kround every) in
             [
               Report.m (at "latency_p50_rounds") "rounds" (p50 t.f_lat_rounds);
               Report.m (at "latency_p99_rounds") "rounds" (p99 t.f_lat_rounds);
               Report.m (at "backlog_end") "cmds" (float_of_int t.f_backlog_end);
             ])
           sweep
  in
  let layers, errors =
    if not trace then ([], errors)
    else begin
      let c, t = fresh ~traced:true nominal_every in
      let rel f =
        Array.fold_left
          (fun a r -> match r with Some r -> a + f (Net.Rel.stats r) | None -> a)
          0 c.rels
      in
      let retrans = rel (fun s -> s.Net.Rel.retransmits) in
      let ns = Net.Nemesis.stats (Option.get c.ctrl) in
      let per_op x = x /. float_of_int t.f_count in
      ( [
          Report.m "wire.decode_s" "s" (Trace.self_s Trace.k_decode);
          Report.m "wire.encode_s" "s" (Trace.self_s Trace.k_encode);
          Report.m "wire.bytes_per_op" "B/op" (per_op (float_of_int c.cnt.bytes));
          Report.m "smr.step_s" "s" (Trace.self_s Trace.k_step);
          Report.m "smr.input_s" "s" (Trace.self_s Trace.k_input);
          Report.m "gc.minor_words_per_op" "words/op" (per_op first.f_minor_words);
          Report.m "gc.live_words_per_op" "words/op"
            (per_op (float_of_int !live_words));
          Report.m "transport.send_s" "s" (Trace.self_s Trace.k_send);
          Report.m "transport.poll_s" "s" (Trace.self_s Trace.k_poll);
          Report.m "rel.self_s" "s"
            (Trace.self_s Trace.k_rel_send +. Trace.self_s Trace.k_rel_poll);
          Report.m "rel.retransmits" "count" (float_of_int retrans);
          Report.m "rel.retransmit_ratio" "ratio"
            (float_of_int retrans /. float_of_int (max 1 c.cnt.data_frames));
          Report.m "rel.dup_filtered" "count"
            (float_of_int (rel (fun s -> s.Net.Rel.dup_filtered)));
          Report.m "rel.resequenced" "count"
            (float_of_int (rel (fun s -> s.Net.Rel.resequenced)));
          Report.m "nemesis.dropped" "count" (float_of_int ns.Net.Nemesis.n_dropped);
          Report.m "nemesis.duplicated" "count"
            (float_of_int ns.Net.Nemesis.n_duplicated);
          Report.m "nemesis.self_s" "s"
            (Trace.self_s Trace.k_nem_send +. Trace.self_s Trace.k_nem_poll);
          Report.m "fd.leader_changes" "count" (float_of_int t.f_leader_changes);
          Report.m "fd.frames_per_round" "frames/round"
            (float_of_int c.cnt.fd_frames /. float_of_int t.f_rounds);
          Report.m "fd.reconverge_rounds" "rounds" (float_of_int t.f_reconverge);
          Report.m "faults.latency_p50_rounds" "rounds" (p50 t.f_lat_rounds);
          Report.m "faults.latency_p99_rounds" "rounds" (p99 t.f_lat_rounds);
          Report.m "faults.failover_rounds" "rounds" (float_of_int t.f_failover);
          Report.m "faults.max_rate_per_kround" "cmds/kround" max_rate;
          Report.m "node.self_s" "s" (Trace.self_s Trace.k_node);
          Report.m "trace.overhead_pct" "%"
            (Report.overhead_pct t trials ~timing:(fun t -> t.f_time)
               ~elapsed:(fun t -> t.f_elapsed));
        ]
        @ hub_counts c t.f_count
        @ Report.split (),
        errors @ t.f_errors )
    end
  in
  {
    Report.errors;
    attempted = List.fold_left (fun a t -> a + t.f_count) 0 all;
    failed = List.fold_left (fun a t -> a + t.f_count - t.f_acked) 0 all;
    trials = List.length trials;
    e2e;
    detail;
    layers;
  }
