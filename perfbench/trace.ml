(* Spans recorded by the benchmark's own wrappers around calls into the
   library's layers.  One process, one thread: a single global recorder.

   A span is (kind, start, end, parent, op).  Self time — the span's
   duration minus the part covered by its children — is derived when the
   span closes, from the same start/end pair that is stored, so the
   per-layer totals and the written trace agree.  At most [capacity]
   spans are kept in memory (the written trace is a prefix of the run);
   the self-time totals cover every span. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Span kinds.  The name is what the trace file shows; the layer is the
   row of the per-layer split the span's self time is charged to. *)
type kind = {
  name : string;
  layer : string;
}

let kinds =
  [|
    { name = "bench.trial"; layer = "bench" };
    { name = "node.step"; layer = "node" };
    { name = "wire.decode"; layer = "wire_decode" };
    { name = "wire.encode"; layer = "wire_encode" };
    { name = "smr.step"; layer = "smr_step" };
    { name = "smr.input"; layer = "smr_input" };
    { name = "rel.send"; layer = "rel" };
    { name = "rel.poll"; layer = "rel" };
    { name = "nemesis.send"; layer = "nemesis" };
    { name = "nemesis.poll"; layer = "nemesis" };
    { name = "transport.send"; layer = "transport" };
    { name = "transport.poll"; layer = "transport" };
    { name = "router.read"; layer = "router" };
    { name = "router.write"; layer = "router" };
    { name = "shard.step"; layer = "shard" };
    { name = "mc.verdict"; layer = "mc_explore" };
    { name = "mc.step"; layer = "mc_step" };
    { name = "mc.invariant"; layer = "mc_invariant" };
  |]

let kind_index name =
  let rec go i =
    if i >= Array.length kinds then invalid_arg ("Trace: unknown span " ^ name)
    else if kinds.(i).name = name then i
    else go (i + 1)
  in
  go 0

let k_trial = kind_index "bench.trial"
let k_node = kind_index "node.step"
let k_decode = kind_index "wire.decode"
let k_encode = kind_index "wire.encode"
let k_step = kind_index "smr.step"
let k_input = kind_index "smr.input"
let k_rel_send = kind_index "rel.send"
let k_rel_poll = kind_index "rel.poll"
let k_nem_send = kind_index "nemesis.send"
let k_nem_poll = kind_index "nemesis.poll"
let k_send = kind_index "transport.send"
let k_poll = kind_index "transport.poll"
let k_read = kind_index "router.read"
let k_write = kind_index "router.write"
let k_shard = kind_index "shard.step"
let k_verdict = kind_index "mc.verdict"
let k_mc_step = kind_index "mc.step"
let k_mc_inv = kind_index "mc.invariant"

let capacity = 100_000
let max_depth = 64

type t = {
  mutable on : bool;  (* wrappers call straight through while off *)
  self_ns : int array;  (* per kind, every span *)
  count : int array;
  (* open spans *)
  mutable depth : int;
  st_kind : int array;
  st_start : int array;
  st_child : int array;  (* ns covered by closed children *)
  st_id : int array;
  mutable next_id : int;
  mutable op : int;  (* operation id stamped on new spans *)
  (* kept spans, the first [capacity] to close *)
  mutable kept : int;
  r_kind : int array;
  r_start : int array;
  r_end : int array;
  r_id : int array;
  r_parent : int array;
  r_op : int array;
}

let make () =
  let nk = Array.length kinds in
  {
    on = false;
    self_ns = Array.make nk 0;
    count = Array.make nk 0;
    depth = 0;
    st_kind = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_id = Array.make max_depth 0;
    next_id = 1;
    op = 0;
    kept = 0;
    r_kind = Array.make capacity 0;
    r_start = Array.make capacity 0;
    r_end = Array.make capacity 0;
    r_id = Array.make capacity 0;
    r_parent = Array.make capacity 0;
    r_op = Array.make capacity 0;
  }

let g = make ()

let set_op op = g.op <- op

let enter k =
  let d = g.depth in
  g.st_kind.(d) <- k;
  g.st_id.(d) <- g.next_id;
  g.next_id <- g.next_id + 1;
  g.st_child.(d) <- 0;
  g.depth <- d + 1;
  g.st_start.(d) <- now_ns ()

let leave () =
  let stop = now_ns () in
  let d = g.depth - 1 in
  g.depth <- d;
  let k = g.st_kind.(d) and start = g.st_start.(d) in
  let dur = stop - start in
  g.self_ns.(k) <- g.self_ns.(k) + dur - g.st_child.(d);
  g.count.(k) <- g.count.(k) + 1;
  if d > 0 then g.st_child.(d - 1) <- g.st_child.(d - 1) + dur;
  if g.kept < capacity then begin
    let i = g.kept in
    g.r_kind.(i) <- k;
    g.r_start.(i) <- start;
    g.r_end.(i) <- stop;
    g.r_id.(i) <- g.st_id.(d);
    g.r_parent.(i) <- (if d > 0 then g.st_id.(d - 1) else 0);
    g.r_op.(i) <- g.op;
    g.kept <- i + 1
  end

let span k f x =
  if not g.on then f x
  else begin
  enter k;
  match f x with
  | v ->
    leave ();
    v
  | exception e ->
    leave ();
    raise e
  end

(* Clear the totals and the kept spans and start recording. *)
let start () =
  Array.fill g.self_ns 0 (Array.length g.self_ns) 0;
  Array.fill g.count 0 (Array.length g.count) 0;
  g.depth <- 0;
  g.kept <- 0;
  g.op <- 0;
  g.on <- true

let stop () = g.on <- false

let self_s k = float_of_int g.self_ns.(k) *. 1e-9

(* Wall time of everything recorded: the sum of all self times. *)
let total_s () = float_of_int (Array.fold_left ( + ) 0 g.self_ns) *. 1e-9

(* Self time per layer, in kind order of first appearance. *)
let layers () =
  let acc = ref [] in
  Array.iteri
    (fun k { layer; _ } ->
      let s = self_s k in
      match List.assoc_opt layer !acc with
      | Some v -> acc := (layer, v +. s) :: List.remove_assoc layer !acc
      | None -> acc := (layer, s) :: !acc)
    kinds;
  List.rev !acc

(* The kept spans as JSON lines: times in ns from the first kept span. *)
let write path =
  let oc = open_out path in
  let t0 = if g.kept > 0 then g.r_start.(0) else 0 in
  for i = 0 to g.kept - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d}\n"
      g.r_id.(i)
      kinds.(g.r_kind.(i)).name
      (g.r_start.(i) - t0)
      (g.r_end.(i) - t0)
      g.r_parent.(i) g.r_op.(i)
  done;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Wrappers: each takes a library value and returns one of the same
   type whose calls open spans. *)

let codec (c : 'a Net.Wire.codec) ~on_dec : 'a Net.Wire.codec =
  {
    Net.Wire.enc = (fun b v -> span k_encode (c.Net.Wire.enc b) v);
    dec =
      (fun buf ~pos ~len ->
        if not g.on then c.Net.Wire.dec buf ~pos ~len
        else begin
        enter k_decode;
        match c.Net.Wire.dec buf ~pos ~len with
        | v ->
          leave ();
          on_dec v len;
          v
        | exception e ->
          leave ();
          raise e
        end);
  }

let transport ?(on_send = fun _ _ -> ()) ~send ~poll (t : Net.Transport.t) :
    Net.Transport.t =
  {
    t with
    Net.Transport.send =
      (fun dst frame ->
        if g.on then on_send dst frame;
        span send (t.send dst) frame);
    poll = (fun ~timeout_ms -> span poll (fun () -> t.poll ~timeout_ms) ());
  }

let protocol ~step ~input (p : ('st, 'msg, 'fd, 'inp, 'out) Sim.Protocol.t) =
  {
    p with
    Sim.Protocol.on_step =
      (fun ctx st m -> span step (fun () -> p.on_step ctx st m) ());
    on_input = (fun ctx st i -> span input (fun () -> p.on_input ctx st i) ());
  }
