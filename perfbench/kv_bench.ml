(* kv_shard_reads: the sharded service, Shard.Cluster with 4 shards of 3
   replicas, stepped sequentially, fronted by a Shard.Router built here so
   the world steps a read waits for can be counted.  One client, closed
   loop: Zipf keys, 90% linearizable reads and 10% writes.  A write is
   done when the replica it was submitted to has applied it. *)

let shards = 4
let replicas = 3
let keys = 1024
let write_share = 0.1
let ops_per_trial = 20_000
let write_wait_cap = 5_000
let trial_cap_ns = 60_000_000_000

type counts = {
  mutable rounds : int;  (* world steps *)
  mutable read_steps : int;  (* world steps taken inside Router.read *)
  mutable write_steps : int;  (* world steps waited for writes *)
}

type sys = {
  cl : Shard.Cluster.t;
  router : Shard.Router.t;
  traced : bool;
  cnt : counts;
}

let step_world ~traced cnt cl =
  cnt.rounds <- cnt.rounds + 1;
  if traced then Trace.span Trace.k_shard Shard.Cluster.step cl
  else Shard.Cluster.step cl

let step s = step_world ~traced:s.traced s.cnt s.cl

let build ~traced =
  let wrap =
    if traced then
      Some
        (fun ~shard:_ _ tr ->
          Trace.transport tr ~send:Trace.k_send ~poll:Trace.k_poll)
    else None
  in
  let cl = Shard.Cluster.create ?wrap ~shards ~replicas ~spares:0 () in
  let cnt = { rounds = 0; read_steps = 0; write_steps = 0 } in
  let router =
    Shard.Router.create ~ring:(Shard.Cluster.ring cl)
      ~ops:(Shard.Cluster.ops cl)
      ~step:(fun () ->
        cnt.read_steps <- cnt.read_steps + 1;
        step_world ~traced cnt cl)
  in
  { cl; router; traced; cnt }

(* Every shard's members agree on one leader for [hold] rounds. *)
let settled s =
  List.for_all
    (fun id ->
      let g = Shard.Cluster.group s.cl id in
      match Shard.Group.live g with
      | [] -> false
      | p :: rest ->
        let l st = Shard.Replica.leader ~n:(Shard.Group.universe g) st in
        let lp = l (Shard.Group.state g p) in
        List.for_all (fun q -> l (Shard.Group.state g q) = lp) rest)
    (List.init shards Fun.id)

let setup ~traced =
  Report.setup (fun () ->
      let s = build ~traced in
      let stable = ref 0 in
      while s.cnt.rounds < 200 || !stable < 64 do
        if s.cnt.rounds > 5_000 then failwith "warm-up: shards did not settle";
        step s;
        stable := if settled s then !stable + 1 else 0
      done;
      s)

(* The seeded client script: (is_write, key) per operation. *)
let script ~seed =
  let z = Shard.Zipf.create ~seed ~keys () in
  let rng = Random.State.make [| seed; 0xc11e |] in
  Array.init ops_per_trial (fun _ ->
      let w = Random.State.float rng 1.0 < write_share in
      (w, Shard.Zipf.next_key z))

type trial = {
  t_time : Report.timing;
  t_elapsed : float;
  t_read_ms : float array;
  t_write_ms : float array;
  t_all_ms : float array;
  t_reads : int;
  t_writes : int;
  t_failed : int;
  t_rounds : int;
  t_minor_words : float;
  t_errors : string list;
}

let trial s ~setup ~ops =
  let errors = ref [] in
  let err m = if List.length !errors < 8 then errors := m :: !errors in
  let last = Hashtbl.create keys in
  let reads = Stats.buf () and writes = Stats.buf () and all = Stats.buf () in
  let failed = ref 0 in
  let gc0 = Gc.quick_stat () in
  if s.traced then begin
    Trace.start ();
    Trace.enter Trace.k_trial
  end;
  let round0 = s.cnt.rounds in
  let t0 = Trace.now_ns () in
  let give_up = t0 + trial_cap_ns in
  Array.iteri
    (fun i (is_write, key) ->
      if s.traced then Trace.set_op i;
      if Trace.now_ns () > give_up then begin
        incr failed;
        if !failed = 1 then err "trial ran past its time cap"
      end
      else
      let start = Trace.now_ns () in
      if is_write then begin
        let value = Printf.sprintf "v%d" i in
        let routed =
          if s.traced then
            Trace.span Trace.k_write
              (fun () -> Shard.Router.write s.router ~key ~value)
              ()
          else Shard.Router.write s.router ~key ~value
        in
        match routed with
        | None ->
          incr failed;
          err (Printf.sprintf "op %d: write of %s not accepted" i key)
        | Some shard ->
          (* submit_any sends to the lowest live member *)
          let g = Shard.Cluster.group s.cl shard in
          let p = List.hd (Shard.Group.live g) in
          let applied () =
            match Shard.Group.sample g p ~key with
            | Some (_, _, Some (_, v)) -> String.equal v value
            | _ -> false
          in
          let waited = ref 0 in
          while (not (applied ())) && !waited < write_wait_cap do
            step s;
            incr waited
          done;
          s.cnt.write_steps <- s.cnt.write_steps + !waited;
          if applied () then begin
            Hashtbl.replace last key value;
            let ms = float_of_int (Trace.now_ns () - start) *. 1e-6 in
            Stats.push writes ms;
            Stats.push all ms
          end
          else begin
            incr failed;
            err (Printf.sprintf "op %d: write of %s not applied" i key)
          end
      end
      else begin
        let r =
          if s.traced then
            Trace.span Trace.k_read (fun () -> Shard.Router.read s.router ~key) ()
          else Shard.Router.read s.router ~key
        in
        let ms = float_of_int (Trace.now_ns () - start) *. 1e-6 in
        match r with
        | Error e ->
          incr failed;
          err (Printf.sprintf "op %d: read of %s failed: %s" i key e)
        | Ok v ->
          Stats.push reads ms;
          Stats.push all ms;
          if v <> Hashtbl.find_opt last key then begin
            incr failed;
            err (Printf.sprintf "op %d: read of %s missed the last write" i key)
          end
      end)
    ops;
  let t1 = Trace.now_ns () in
  if s.traced then begin
    Trace.leave ();
    Trace.stop ()
  end;
  let gc1 = Gc.quick_stat () in
  {
    t_time = setup;
    t_elapsed = float_of_int (t1 - t0) *. 1e-9;
    t_read_ms = Stats.contents reads;
    t_write_ms = Stats.contents writes;
    t_all_ms = Stats.contents all;
    t_reads = reads.Stats.len;
    t_writes = writes.Stats.len;
    t_failed = !failed;
    t_rounds = s.cnt.rounds - round0;
    t_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    t_errors = List.rev !errors;
  }

let p50 = Stats.p50
let p99 = Stats.p99
let med = Stats.med

let run ~seed ~seconds ~trace =
  let ops = script ~seed in
  let n_ops = Array.length ops in
  let live_words = ref 0 in
  let trials =
    Report.repeat ~timing:(fun t -> t.t_time)
      ~seconds:(if trace then seconds /. 2. else seconds)
      ~min:1
      (fun i ->
        let s, setup = setup ~traced:false in
        let t = trial s ~setup ~ops in
        if i = 0 then begin
          live_words := Report.live_words ();
          ignore (Sys.opaque_identity s)
        end;
        t)
  in
  let first = List.hd trials in
  let e2e, raw =
    Report.end_to_end trials ~live_words:!live_words
      ~timing:(fun t -> t.t_time)
      ~ops_per_s:(fun t -> float_of_int n_ops /. t.t_elapsed)
      ~p50_ms:(fun t -> p50 t.t_all_ms)
      ~p99_ms:(fun t -> p99 t.t_all_ms)
  in
  let detail =
    raw
    @ [
      Report.m "read_p50_ms" "ms" (med (fun t -> p50 t.t_read_ms) trials);
      Report.m "read_p99_ms" "ms" (med (fun t -> p99 t.t_read_ms) trials);
      Report.m "write_p50_ms" "ms" (med (fun t -> p50 t.t_write_ms) trials);
      Report.m "write_p99_ms" "ms" (med (fun t -> p99 t.t_write_ms) trials);
      Report.m "reads" "count" (float_of_int first.t_reads);
      Report.m "writes" "count" (float_of_int first.t_writes);
      Report.m "rounds_per_s" "rounds/s"
        (med (fun t -> float_of_int t.t_rounds /. t.t_elapsed) trials);
    ]
  in
  let errors = List.concat_map (fun t -> t.t_errors) trials in
  let layers, errors =
    if not trace then ([], errors)
    else begin
      let s, setup = setup ~traced:true in
      let t = trial s ~setup ~ops in
      let per_op x = x /. float_of_int n_ops in
      ( [
          Report.m "router.read_s" "s" (Trace.self_s Trace.k_read);
          Report.m "router.read_rounds" "rounds/read"
            (float_of_int s.cnt.read_steps /. float_of_int (max 1 t.t_reads));
          Report.m "router.write_s" "s" (Trace.self_s Trace.k_write);
          Report.m "shard.step_s" "s" (Trace.self_s Trace.k_shard);
          Report.m "shard.rounds_per_write" "rounds/write"
            (float_of_int s.cnt.write_steps /. float_of_int (max 1 t.t_writes));
          Report.m "transport.send_s" "s" (Trace.self_s Trace.k_send);
          Report.m "transport.poll_s" "s" (Trace.self_s Trace.k_poll);
          Report.m "gc.minor_words_per_op" "words/op" (per_op first.t_minor_words);
          Report.m "gc.live_words_per_op" "words/op"
            (per_op (float_of_int !live_words));
          Report.m "trace.overhead_pct" "%"
            (Report.overhead_pct t trials ~timing:(fun t -> t.t_time)
               ~elapsed:(fun t -> t.t_elapsed));
        ]
        @ Report.split (),
        errors @ t.t_errors )
    end
  in
  {
    Report.errors;
    attempted = n_ops * List.length trials;
    failed = List.fold_left (fun a t -> a + t.t_failed) 0 trials;
    trials = List.length trials;
    e2e;
    detail;
    layers;
  }
