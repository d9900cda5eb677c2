(* One shard's replica group: Replica.protocol over its own loopback hub
   (Net.Local generic core), guarded by a mutex so Cluster can drive each
   group from its own domain while the workload thread submits commands
   and samples state.  All derived helpers take the lock exactly once —
   the mutex is not reentrant. *)

type t = {
  id : int;
  universe : int;
  cl :
    (Replica.state, Replica.msg, Replica.payload, Replica.entry)
    Net.Local.cluster;
  mu : Mutex.t;
}

let create ?(period = 16) ?detector ?snap_every ?lag_gap ?sink ?wrap ~id
    ~universe ~members () =
  if universe < Sim.Pidset.cardinal members then
    invalid_arg "Group.create: members exceed universe";
  let proto =
    Replica.protocol ?snap_every ?lag_gap ?detector ~period ~members ()
  in
  {
    id;
    universe;
    cl = Net.Local.make ?sink ?wrap ~n:universe proto;
    mu = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let id t = t.id
let universe t = t.universe

let step t = locked t (fun () -> Net.Local.step t.cl)
let step_one t p = locked t (fun () -> Net.Local.step_one t.cl p)

let run t ~rounds =
  locked t (fun () -> Net.Local.run t.cl ~rounds)

let submit t p c = locked t (fun () -> Net.Local.submit t.cl p c)
let crash t p = locked t (fun () -> Net.Local.crash t.cl p)

let crashed t p =
  locked t (fun () -> Net.Loopback.crashed (Net.Local.hub t.cl) p)

let applied_log t p = locked t (fun () -> Net.Local.outputs t.cl p)
let state t p = locked t (fun () -> Net.Local.state t.cl p)
let now t p = locked t (fun () -> Net.Local.now t.cl p)

(* -- helpers used by the router; single lock acquisition each -- *)

let live_unlocked t =
  let hub = Net.Local.hub t.cl in
  List.filter
    (fun p -> not (Net.Loopback.crashed hub p))
    (Sim.Pid.all t.universe)

let live t = locked t (fun () -> live_unlocked t)

(* The group's configuration as the router sees it: the highest epoch
   any live replica has installed (replicas mid-catch-up may lag). *)
let config t =
  locked t (fun () ->
      match
        live_unlocked t
        |> List.map (fun p -> Replica.config (Net.Local.state t.cl p))
        |> List.sort (fun a b -> compare b.Epoch.epoch a.Epoch.epoch)
      with
      | cfg :: _ -> cfg
      | [] -> Replica.config (Net.Local.state t.cl 0))

(* ABD-style sample of replica [p]: epoch, applied prefix length, and the
   tagged last write to [key].  None if [p] is crashed. *)
let sample t p ~key =
  locked t (fun () ->
      if Net.Loopback.crashed (Net.Local.hub t.cl) p then None
      else
        let st = Net.Local.state t.cl p in
        Some (Replica.epoch st, Replica.applied st, Replica.kv_find st key))

(* Submit at the lowest live member of the current configuration (any
   member disseminates to the leader).  False if no member is live. *)
let submit_any t c =
  locked t (fun () ->
      let cfg =
        match
          live_unlocked t
          |> List.map (fun p ->
                 Replica.config (Net.Local.state t.cl p))
          |> List.sort (fun a b -> compare b.Epoch.epoch a.Epoch.epoch)
        with
        | cfg :: _ -> cfg
        | [] -> Replica.config (Net.Local.state t.cl 0)
      in
      match
        List.filter (fun p -> Epoch.is_member cfg p) (live_unlocked t)
      with
      | p :: _ ->
        Net.Local.submit t.cl p c;
        true
      | [] -> false)

let applied_min t =
  locked t (fun () ->
      match
        live_unlocked t
        |> List.map (fun p ->
               Replica.applied (Net.Local.state t.cl p))
      with
      | [] -> 0
      | xs -> List.fold_left min max_int xs)

let applied_max t =
  locked t (fun () ->
      live_unlocked t
      |> List.fold_left
           (fun acc p ->
             max acc (Replica.applied (Net.Local.state t.cl p)))
           0)
