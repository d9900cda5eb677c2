(* Generic core: any protocol, one loopback hub, round-robin driving.
   [create] below instantiates it with Smr_node.protocol; Shard.Group
   instantiates it with the reconfigurable shard replica. *)

type ('st, 'msg, 'inp, 'out) cluster = {
  hub : Loopback.hub;
  nodes : ('st, 'msg, 'inp, 'out) Node.t array;
  logs : 'out list ref array;  (* newest first *)
}

let make ?(sink = fun _ -> None) ?(wrap = fun _ t -> t) ?codec ?metrics
    ?classify ~n proto =
  let hub = Loopback.create ~n in
  {
    hub;
    nodes =
      Array.init n (fun p ->
          Node.create ?sink:(sink p) ?codec ?metrics ?classify
            ~transport:(wrap p (Loopback.endpoint hub p))
            proto);
    logs = Array.init n (fun _ -> ref []);
  }

let hub t = t.hub

let step_one t p =
  if not (Loopback.crashed t.hub p) then begin
    let node = t.nodes.(p) in
    ignore (Node.step node);
    match Node.drain_outputs node with
    | [] -> ()
    | outs -> t.logs.(p) := List.rev_append outs !(t.logs.(p))
  end

let step t = Array.iteri (fun p _ -> step_one t p) t.nodes

let run t ~rounds =
  for _ = 1 to rounds do
    step t
  done

let submit t p c = Node.inject t.nodes.(p) c
let crash t p = Loopback.crash t.hub p
let outputs t p = List.rev !(t.logs.(p))
let state t p = Node.state t.nodes.(p)
let now t p = Node.now t.nodes.(p)

(* ------------------------------------------------- the SMR instance *)

type 'c t =
  ('c Smr_node.pstate, 'c Smr_node.pmsg, 'c, int * 'c Cons.Smr.cmd) cluster

(* The string SMR cluster runs the same binary codec tower as the
   deployed node: the hub carries encoded frames, so loopback benches
   measure the real encode/decode cost. *)
let create ?(period = 16) ?window ?batch_max ?detector ?sigma_period ?sink
    ?wrap ?metrics ~n () =
  make ?sink ?wrap
    ~codec:(Codecs.pmsg Wire.string_c)
    ?metrics ~classify:Smr_node.classify ~n
    (Smr_node.protocol ?window ?batch_max ?detector ?sigma_period ~period ())
