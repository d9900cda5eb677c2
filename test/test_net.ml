(* Tests for the net runtime: wire framing, the loopback cluster (SMR
   agreement with and without a crash, detector behaviour over a real
   message path), and the socket transport itself.  The point being
   checked throughout: the protocols are the *same automata* the simulator
   runs, so what the paper's model promises (agreement under crashes,
   eventual leader election from heartbeats) must survive the trip onto a
   transport. *)

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)

let feed_chunked dec bytes sizes =
  (* feed [bytes] to [dec] in chunks of the given sizes (cycled) *)
  let n = Bytes.length bytes in
  let sizes = if sizes = [] then [ n ] else sizes in
  let rec go off sz =
    if off < n then begin
      let k = min (List.nth sizes (sz mod List.length sizes)) (n - off) in
      let k = max k 1 in
      Net.Wire.Decoder.feed dec (Bytes.sub bytes off k) k;
      go (off + k) (sz + 1)
    end
  in
  go 0 0

let drain dec =
  let rec go acc =
    match Net.Wire.Decoder.next dec with
    | None -> List.rev acc
    | Some f -> go (f :: acc)
  in
  go []

let test_decoder_reassembles () =
  let payloads = [ "a"; ""; String.make 300 'x'; "end" ] in
  let stream =
    Bytes.concat Bytes.empty
      (List.map (fun s -> Net.Wire.frame (Bytes.of_string s)) payloads)
  in
  List.iter
    (fun sizes ->
      let dec = Net.Wire.Decoder.create () in
      feed_chunked dec stream sizes;
      let got = List.map Bytes.to_string (drain dec) in
      Alcotest.(check (list string)) "frames survive rechunking" payloads got)
    [ [ 1 ]; [ 2; 3 ]; [ 7 ]; [ 1000 ]; [ 3; 1; 4; 1; 5 ] ]

let prop_decoder_roundtrip =
  QCheck.Test.make ~name:"wire: decoder round-trips any chunking" ~count:200
    QCheck.(pair (small_list (string_of_size Gen.(0 -- 200))) (small_list (1 -- 64)))
    (fun (payloads, sizes) ->
      let stream =
        Bytes.concat Bytes.empty
          (List.map (fun s -> Net.Wire.frame (Bytes.of_string s)) payloads)
      in
      let dec = Net.Wire.Decoder.create () in
      feed_chunked dec stream sizes;
      List.map Bytes.to_string (drain dec) = payloads)

(* A little hand-rolled payload codec, as a host protocol would write
   one: the envelope treats it as an opaque tail. *)
let pair_codec =
  Net.Wire.codec
    ~write:(fun buf (s, i) ->
      Net.Wire.W.string buf s;
      Net.Wire.W.varint buf i)
    ~read:(fun r ->
      let s = Net.Wire.R.string r in
      (s, Net.Wire.R.varint r))

let encode_env c env =
  let buf = Buffer.create 64 in
  Net.Wire.encode_envelope_into c buf env;
  Buffer.to_bytes buf

let test_envelope_roundtrip () =
  List.iter
    (fun codec ->
      let env =
        { Net.Wire.env_src = 2; env_sent_at = 41; env_vc = Some [ 1; 0; 7 ];
          env_msg = ("hello", 13) }
      in
      let env' = Net.Wire.decode_envelope_with codec (encode_env codec env) in
      Alcotest.(check bool) "envelope round-trips" true (env = env');
      let bare = { env with Net.Wire.env_vc = None } in
      let bare' = Net.Wire.decode_envelope_with codec (encode_env codec bare) in
      Alcotest.(check bool) "vc-less envelope round-trips" true (bare = bare'))
    [ pair_codec; Net.Wire.marshal_codec () ]

let test_envelope_version_rejected () =
  (* a frame stamped with a future wire version must be refused before
     any payload decoding — byte 0 is the version tag *)
  let env =
    { Net.Wire.env_src = 0; env_sent_at = 1; env_vc = None;
      env_msg = ("x", 0) }
  in
  let b = encode_env pair_codec env in
  Alcotest.(check int)
    "version byte leads the frame"
    Net.Wire.envelope_version
    (Char.code (Bytes.get b 0));
  Bytes.set b 0 (Char.chr (Net.Wire.envelope_version + 1));
  match Net.Wire.decode_envelope_with pair_codec b with
  | _ -> Alcotest.fail "future version accepted"
  | exception Net.Wire.Decode_error _ -> ()

let test_envelope_truncation_rejected () =
  let env =
    { Net.Wire.env_src = 3; env_sent_at = 9; env_vc = Some [ 2; 2; 2 ];
      env_msg = ("payload", 77) }
  in
  let b = encode_env pair_codec env in
  for cut = 0 to Bytes.length b - 1 do
    match Net.Wire.decode_envelope_with pair_codec (Bytes.sub b 0 cut) with
    | _ -> Alcotest.fail (Printf.sprintf "truncation at %d accepted" cut)
    | exception Net.Wire.Decode_error _ -> ()
  done

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"wire: varint round-trips any int" ~count:1000
    QCheck.(
      oneof
        [ int; oneofl [ 0; 1; -1; max_int; min_int; 127; 128; 16384 ] ])
    (fun i ->
      let i' = Net.Wire.(of_bytes varint_c (to_bytes varint_c i)) in
      i = i')

let string_cmd : string -> int -> int -> string Cons.Smr.cmd =
 fun payload origin seq -> { Cons.Smr.origin; seq; payload }

let gen_cmd =
  QCheck.map
    (fun (payload, origin, seq) -> string_cmd payload origin seq)
    QCheck.(triple (string_of_size QCheck.Gen.(0 -- 64)) (0 -- 15) small_nat)

let gen_qp =
  let open Cons.Quorum_paxos in
  QCheck.(
    map
      (fun (tag, b, cmds, acc) ->
        match tag mod 6 with
        | 0 -> Prepare b
        | 1 -> Promise (b, if acc then Some (b + 1, cmds) else None)
        | 2 -> Propose (b, cmds)
        | 3 -> Accept b
        | 4 -> Nack b
        | _ -> Decide cmds)
      (quad small_nat small_nat (small_list gen_cmd) bool))

let gen_smr =
  QCheck.(
    map
      (fun (inner, k, cmds) ->
        match inner with
        | None -> Cons.Smr.Submit cmds
        | Some qp -> Cons.Smr.Inner (k, qp))
      (triple (option gen_qp) small_nat (small_list gen_cmd)))

let prop_smr_codec_roundtrip =
  let c = Net.Codecs.smr_msg Net.Wire.string_c in
  QCheck.Test.make ~name:"codecs: smr message round-trips" ~count:500 gen_smr
    (fun m -> Net.Wire.of_bytes c (Net.Wire.to_bytes c m) = m)

let prop_pmsg_codec_roundtrip =
  let codec = Net.Codecs.pmsg Net.Wire.string_c in
  let gen =
    QCheck.(
      map
        (fun (det, smr) ->
          match det with
          | None -> Sim.Layered.Main smr
          | Some (0, k) ->
            Sim.Layered.Detector
              (Sim.Layered.Main (Fd.Emulated.Sigma_majority.Join k))
          | Some (1, k) ->
            Sim.Layered.Detector
              (Sim.Layered.Main (Fd.Emulated.Sigma_majority.Ack k))
          | Some (2, _) ->
            Sim.Layered.Detector
              (Sim.Layered.Detector
                 (Fd.Emulated.Omega.R Fd.Emulated.Omega_ring.Hb))
          | Some (3, k) ->
            Sim.Layered.Detector
              (Sim.Layered.Detector
                 (Fd.Emulated.Omega.R (Fd.Emulated.Omega_ring.Suspect k)))
          | Some (4, k) ->
            Sim.Layered.Detector
              (Sim.Layered.Detector
                 (Fd.Emulated.Omega.R (Fd.Emulated.Omega_ring.Refute k)))
          | Some (_, _) ->
            Sim.Layered.Detector
              (Sim.Layered.Detector
                 (Fd.Emulated.Omega.H Fd.Emulated.Omega_heartbeat.Alive)))
        (pair (option (pair (int_bound 5) small_nat)) gen_smr))
  in
  QCheck.Test.make ~name:"codecs: full node message round-trips" ~count:500
    gen (fun m -> Net.Wire.of_bytes codec (Net.Wire.to_bytes codec m) = m)

(* A node fed corrupt frames drops them with a typed [Decode_error] and,
   when [metrics] is set, counts each in [net.decode_errors]; a good
   frame afterwards is still delivered.  Run under the binary pmsg codec
   and the Marshal codec (truncation raises [Invalid_argument] inside
   Marshal, garbage [Failure]: both must surface as [Decode_error]). *)
let decode_drops (type m) ~(codec : m Net.Wire.codec) (good : m) garbage =
  let hub = Net.Loopback.create ~n:2 in
  let raw = Net.Loopback.endpoint hub 0 in
  let echo : (unit, m, unit, unit, m) Sim.Protocol.t =
    {
      init = (fun ~n:_ _ -> ());
      on_step =
        (fun _ () recv ->
          match recv with
          | Some (_, m) -> ((), [ Sim.Protocol.Output m ])
          | None -> ((), []));
      on_input = Sim.Protocol.no_input;
    }
  in
  let run metrics =
    let node =
      Net.Node.create ~codec ?metrics
        ~transport:(Net.Loopback.endpoint hub 1) echo
    in
    let frame =
      encode_env codec
        { Net.Wire.env_src = 0; env_sent_at = 0; env_vc = None;
          env_msg = good }
    in
    let bad =
      List.init (Bytes.length frame) (fun cut -> Bytes.sub frame 0 cut)
      @ List.map Bytes.of_string garbage
    in
    List.iter (raw.Net.Transport.send 1) bad;
    raw.Net.Transport.send 1 frame;
    List.iter (fun _ -> ignore (Net.Node.step node)) bad;
    Alcotest.(check int) "corrupt frames deliver nothing" 0
      (List.length (Net.Node.drain_outputs node));
    ignore (Net.Node.step node);
    Alcotest.(check bool) "a good frame still gets through" true
      (Net.Node.drain_outputs node = [ good ]);
    List.length bad
  in
  let m = Obs.Metrics.create () in
  let bad = run (Some m) in
  Alcotest.(check int) "every drop counted" bad
    (Obs.Metrics.counter m "net.decode_errors");
  ignore (run None)

let test_node_decode_drops_pmsg () =
  let good =
    Sim.Layered.Main (Cons.Smr.Submit [ string_cmd "pay" 0 1 ])
  in
  decode_drops ~codec:(Net.Codecs.pmsg Net.Wire.string_c) good
    [ "\x07"; "\x01\x00\x00\x00\x09"; "\x01\x00\x00\x00\x00\x00\xff" ]

let test_node_decode_drops_marshal () =
  (match
     Net.Wire.of_bytes (Net.Wire.marshal_codec ())
       (Bytes.sub (Net.Wire.encode ("abc", 1)) 0 10)
   with
  | (_ : string * int) -> Alcotest.fail "truncated Marshal frame accepted"
  | exception Net.Wire.Decode_error _ -> ());
  decode_drops ~codec:(Net.Wire.marshal_codec ()) ("x", 3)
    [ "\x01\x00\x00\x00not a marshal header at all" ]

let test_hello () =
  (match Net.Wire.parse_hello (Net.Wire.hello ~self:3) with
  | Ok p -> Alcotest.(check int) "hello names the sender" 3 p
  | Error e -> Alcotest.fail e);
  (match Net.Wire.parse_hello (Bytes.of_string "garbage") with
  | Ok _ -> Alcotest.fail "garbage accepted as hello"
  | Error _ -> ());
  (* a frame cut short is refused, not raised *)
  let truncated b = Bytes.sub b 0 (Bytes.length b - 3) in
  (match Net.Wire.parse_hello (truncated (Net.Wire.hello ~self:3)) with
  | Ok _ -> Alcotest.fail "truncated hello accepted"
  | Error _ -> ());
  match Net.Wire.parse_hello_ack (truncated (Net.Wire.hello_ack ~self:3)) with
  | Ok _ -> Alcotest.fail "truncated hello-ack accepted"
  | Error _ -> ()

(* The max-frame guard: an adversarial length prefix must raise the
   typed exception as soon as the 4 header bytes are buffered — before
   any frame-sized allocation — while a frame exactly at the cap still
   passes.  The per-connection handlers rely on this being [Frame_too_large]
   (not Out_of_memory, not a silent giant allocation). *)
let test_decoder_frame_cap () =
  let limit = 1024 in
  (* a 4-byte prefix announcing 2 GiB: refused at feed time *)
  let evil = Bytes.create 4 in
  Bytes.set_int32_be evil 0 0x7fffffffl;
  let dec = Net.Wire.Decoder.create ~max_frame:limit () in
  (match Net.Wire.Decoder.feed dec evil 4 with
  | () -> Alcotest.fail "2 GiB prefix accepted"
  | exception Net.Wire.Frame_too_large { size; limit = l } ->
    Alcotest.(check int) "reported size" 0x7fffffff size;
    Alcotest.(check int) "reported limit" limit l);
  (* a negative prefix is refused the same way *)
  let neg = Bytes.create 4 in
  Bytes.set_int32_be neg 0 (-1l);
  let dec = Net.Wire.Decoder.create ~max_frame:limit () in
  (match Net.Wire.Decoder.feed dec neg 4 with
  | () -> Alcotest.fail "negative prefix accepted"
  | exception Net.Wire.Frame_too_large _ -> ());
  (* exactly at the cap: fine *)
  let ok = Net.Wire.frame (Bytes.make limit 'x') in
  let dec = Net.Wire.Decoder.create ~max_frame:limit () in
  Net.Wire.Decoder.feed dec ok (Bytes.length ok);
  (match Net.Wire.Decoder.next dec with
  | Some f -> Alcotest.(check int) "cap-sized frame passes" limit (Bytes.length f)
  | None -> Alcotest.fail "cap-sized frame lost");
  (* one byte over: refused, and the header alone is enough to know *)
  let over = Net.Wire.frame (Bytes.make (limit + 1) 'x') in
  let dec = Net.Wire.Decoder.create ~max_frame:limit () in
  (match Net.Wire.Decoder.feed dec over 4 with
  | () -> Alcotest.fail "oversized frame accepted"
  | exception Net.Wire.Frame_too_large { size; limit = l } ->
    Alcotest.(check int) "size is limit+1" (limit + 1) size;
    Alcotest.(check int) "limit echoed" limit l);
  (* default cap is the documented module constant *)
  let dec = Net.Wire.Decoder.create () in
  let big = Bytes.create 4 in
  Bytes.set_int32_be big 0 (Int32.of_int (Net.Wire.max_frame + 1));
  match Net.Wire.Decoder.feed dec big 4 with
  | () -> Alcotest.fail "default cap not enforced"
  | exception Net.Wire.Frame_too_large { limit = l; _ } ->
    Alcotest.(check int) "default limit" Net.Wire.max_frame l

(* ------------------------------------------------------------------ *)
(* Loopback SMR cluster                                                *)

let log_view l =
  List.map
    (fun (slot, (c : string Cons.Smr.cmd)) ->
      (slot, c.Cons.Smr.origin, c.Cons.Smr.seq, c.Cons.Smr.payload))
    l

let run_until ?(cap = 20_000) cluster pred =
  let rec go r =
    if pred () then r
    else if r >= cap then Alcotest.fail "cluster did not converge"
    else begin
      Net.Local.step cluster;
      go (r + 1)
    end
  in
  go 0

let applied_at cluster p = List.length (Net.Local.outputs cluster p)

let test_loopback_agreement () =
  let n = 3 in
  let cluster = Net.Local.create ~n () in
  let cmds = [ (0, "a"); (1, "b"); (2, "c"); (0, "d"); (1, "e") ] in
  List.iter (fun (p, c) -> Net.Local.submit cluster p c) cmds;
  let k = List.length cmds in
  ignore
    (run_until cluster (fun () ->
         List.for_all (fun p -> applied_at cluster p >= k) (Sim.Pid.all n)));
  let logs = List.map (fun p -> log_view (Net.Local.outputs cluster p)) (Sim.Pid.all n) in
  (match logs with
  | l0 :: rest ->
    List.iteri
      (fun i l ->
        Alcotest.(check bool)
          (Printf.sprintf "log %d equals log 0" (i + 1))
          true (l = l0))
      rest;
    (* every submitted command decided exactly once *)
    let decided =
      List.map (fun (_, origin, _, payload) -> (origin, payload)) l0
      |> List.sort compare
    in
    Alcotest.(check bool) "all commands decided once" true
      (decided = List.sort compare cmds)
  | [] -> assert false)

let test_loopback_crash () =
  let n = 3 in
  let cluster = Net.Local.create ~n () in
  Net.Local.submit cluster 0 "pre0";
  Net.Local.submit cluster 1 "pre1";
  ignore
    (run_until cluster (fun () ->
         List.for_all (fun p -> applied_at cluster p >= 2) (Sim.Pid.all n)));
  (* kill node 2 mid-run; the survivors are a majority and must keep going *)
  Net.Local.crash cluster 2;
  Net.Local.submit cluster 0 "post0";
  Net.Local.submit cluster 1 "post1";
  ignore
    (run_until cluster (fun () ->
         applied_at cluster 0 >= 4 && applied_at cluster 1 >= 4));
  let l0 = log_view (Net.Local.outputs cluster 0) in
  let l1 = log_view (Net.Local.outputs cluster 1) in
  Alcotest.(check bool) "surviving logs identical" true (l0 = l1);
  Alcotest.(check bool) "post-crash commands decided" true
    (List.exists (fun (_, _, _, p) -> p = "post0") l0
    && List.exists (fun (_, _, _, p) -> p = "post1") l0)

(* Pipelined + batched configuration: many commands submitted at once
   must come out as one gapless, duplicate-free log, identical
   everywhere, regardless of how they were cut into instances. *)
let test_loopback_pipelined_agreement () =
  let n = 3 in
  let k = 60 in
  let cluster = Net.Local.create ~window:8 ~batch_max:4 ~n () in
  for i = 0 to k - 1 do
    Net.Local.submit cluster (i mod n) (Printf.sprintf "c%03d" i)
  done;
  ignore
    (run_until cluster (fun () ->
         List.for_all (fun p -> applied_at cluster p >= k) (Sim.Pid.all n)));
  let logs =
    List.map (fun p -> log_view (Net.Local.outputs cluster p)) (Sim.Pid.all n)
  in
  let l0 = List.hd logs in
  List.iter
    (fun l -> Alcotest.(check bool) "pipelined logs identical" true (l = l0))
    (List.tl logs);
  (* indices consecutive from 0, every command exactly once *)
  List.iteri
    (fun i (slot, _, _, _) ->
      Alcotest.(check int) "log indices consecutive" i slot)
    l0;
  let keys = List.map (fun (_, o, s, _) -> (o, s)) l0 in
  Alcotest.(check int) "no duplicates" k
    (List.length (List.sort_uniq compare keys));
  Alcotest.(check int) "all commands applied" k (List.length l0);
  (* batching really happened: fewer instances than commands *)
  let touched =
    Cons.Smr.instances_touched
      (Net.Smr_node.smr_state (Net.Local.state cluster 0))
  in
  Alcotest.(check bool)
    (Printf.sprintf "batches amortise instances (%d for %d cmds)" touched k)
    true
    (touched < k)

(* A batch in flight at the proposer's crash applies exactly once on the
   survivors — or not at all — never twice, and never divergently. *)
let test_loopback_batch_crash_boundary () =
  let n = 3 in
  let cluster = Net.Local.create ~window:4 ~batch_max:8 ~n () in
  (* leader 0 gets a pile of commands and a short head start, so some
     instances are mid-flight when it dies *)
  for i = 0 to 19 do
    Net.Local.submit cluster 0 (Printf.sprintf "pre%02d" i)
  done;
  for _ = 1 to 40 do
    Net.Local.step cluster
  done;
  Net.Local.crash cluster 0;
  for i = 0 to 9 do
    Net.Local.submit cluster 1 (Printf.sprintf "post%02d" i)
  done;
  (* survivors must still decide everything submitted at node 1 *)
  ignore
    (run_until cluster (fun () ->
         let applied p =
           List.map
             (fun (_, _, _, payload) -> payload)
             (log_view (Net.Local.outputs cluster p))
         in
         List.for_all
           (fun i ->
             List.mem (Printf.sprintf "post%02d" i) (applied 1)
             && List.mem (Printf.sprintf "post%02d" i) (applied 2))
           [ 0; 9 ]));
  let l1 = log_view (Net.Local.outputs cluster 1) in
  let l2 = log_view (Net.Local.outputs cluster 2) in
  Alcotest.(check bool) "survivor logs identical" true (l1 = l2);
  List.iteri
    (fun i (slot, _, _, _) ->
      Alcotest.(check int) "survivor log gapless" i slot)
    l1;
  (* exactly-once across the crash boundary: no (origin, seq) twice *)
  let keys = List.map (fun (_, o, s, _) -> (o, s)) l1 in
  Alcotest.(check int) "no command applied twice" (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* An idle cluster must not burn consensus instances: no commands, no
   ballots, no empty batches nailed into the log. *)
let test_loopback_idle_burns_no_instances () =
  let n = 3 in
  let cluster = Net.Local.create ~window:8 ~n () in
  Net.Local.run cluster ~rounds:600;
  List.iter
    (fun p ->
      let smr = Net.Smr_node.smr_state (Net.Local.state cluster p) in
      Alcotest.(check int)
        (Printf.sprintf "node %d touched no instance" p)
        0
        (Cons.Smr.instances_touched smr);
      Alcotest.(check int)
        (Printf.sprintf "node %d applied nothing" p)
        0
        (Cons.Smr.applied smr))
    (Sim.Pid.all n)

(* Out-of-order snapshot install: a batch for instance 1 alone applies
   nothing (the log would have a gap); once instance 0 arrives, both
   emerge in slot order with consecutive indices. *)
let test_install_out_of_order () =
  let proto = Cons.Smr.make ~window:4 () in
  let st = proto.Sim.Protocol.init ~n:3 2 in
  let cmd origin seq payload = { Cons.Smr.origin; seq; payload } in
  let b0 = [ cmd 0 0 "a"; cmd 0 1 "b" ] in
  let b1 = [ cmd 1 0 "c" ] in
  let st, out_of_order = Cons.Smr.install st [ (1, b1) ] in
  Alcotest.(check int) "gapped install applies nothing" 0
    (List.length out_of_order);
  Alcotest.(check int) "nothing applied yet" 0 (Cons.Smr.applied st);
  let st, entries = Cons.Smr.install st [ (0, b0) ] in
  Alcotest.(check int) "both instances drain" 3 (List.length entries);
  Alcotest.(check bool) "entries in slot order" true
    (List.map
       (fun (i, c) -> (i, c.Cons.Smr.origin, c.Cons.Smr.seq, c.Cons.Smr.payload))
       entries
    = [ (0, 0, 0, "a"); (1, 0, 1, "b"); (2, 1, 0, "c") ]);
  Alcotest.(check int) "applied counter advanced" 3 (Cons.Smr.applied st);
  Alcotest.(check int) "two instances applied" 2
    (Cons.Smr.applied_instances st);
  (* idempotent: re-installing either batch is a no-op *)
  let st, dup = Cons.Smr.install st [ (0, b0); (1, b1) ] in
  Alcotest.(check int) "re-install applies nothing" 0 (List.length dup);
  Alcotest.(check int) "counter unchanged" 3 (Cons.Smr.applied st)

(* ------------------------------------------------------------------ *)
(* Detectors over the loopback transport (satellite: Fd.Emulated       *)
(* hardening asserted on a real message path, not just the simulator)  *)

let test_omega_converges_on_loopback () =
  let n = 3 in
  let cluster = Net.Local.create ~n () in
  Net.Local.run cluster ~rounds:500;
  List.iter
    (fun p ->
      let om = Net.Smr_node.omega_state (Net.Local.state cluster p) in
      Alcotest.(check bool)
        (Printf.sprintf "node %d trusts nobody falsely" p)
        true
        (Sim.Pidset.is_empty (Fd.Emulated.Omega.suspects om)))
    (Sim.Pid.all n)

let test_omega_crash_detection_on_loopback () =
  let n = 3 in
  let cluster = Net.Local.create ~n () in
  Net.Local.run cluster ~rounds:300;
  Net.Local.crash cluster 0;
  Net.Local.run cluster ~rounds:2_000;
  List.iter
    (fun p ->
      let om = Net.Smr_node.omega_state (Net.Local.state cluster p) in
      Alcotest.(check bool)
        (Printf.sprintf "node %d suspects the crashed node" p)
        true
        (Sim.Pidset.mem 0 (Fd.Emulated.Omega.suspects om)))
    [ 1; 2 ]

let test_omega_timeout_adapts_on_loopback () =
  (* Block node 0's outbound frames long enough to provoke a false
     suspicion at node 1, then unblock: node 1 must re-trust 0, and its
     timeout for 0 must have grown (the adaptation that gives eventual
     accuracy after GST). *)
  let n = 3 in
  let cluster = Net.Local.create ~n () in
  Net.Local.run cluster ~rounds:300;
  let suspects_0 p =
    Sim.Pidset.mem 0
      (Fd.Emulated.Omega.suspects
         (Net.Smr_node.omega_state (Net.Local.state cluster p)))
  in
  Alcotest.(check bool) "initially trusted" false (suspects_0 1);
  Net.Loopback.block (Net.Local.hub cluster) 0;
  ignore (run_until cluster (fun () -> suspects_0 1));
  Net.Loopback.unblock (Net.Local.hub cluster) 0;
  ignore (run_until cluster (fun () -> not (suspects_0 1)));
  Net.Loopback.block (Net.Local.hub cluster) 0;
  (* the grown timeout makes the second suspicion strictly later *)
  let r1 = run_until cluster (fun () -> suspects_0 1) in
  ignore r1;
  Net.Loopback.unblock (Net.Local.hub cluster) 0;
  ignore (run_until cluster (fun () -> not (suspects_0 1)))

let test_sigma_quorums_on_loopback () =
  let n = 5 in
  let cluster = Net.Local.create ~n () in
  Net.Local.run cluster ~rounds:800;
  let quorums =
    List.map
      (fun p ->
        let si = Net.Smr_node.sigma_state (Net.Local.state cluster p) in
        Alcotest.(check bool)
          (Printf.sprintf "node %d completed join-quorum rounds" p)
          true
          (Fd.Emulated.Sigma_majority.rounds si > 0);
        (Fd.Emulated.Sigma_majority.detector.Sim.Layered.current si))
      (Sim.Pid.all n)
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool) "quorums intersect" true
            (Sim.Pidset.intersects a b))
        quorums)
    quorums

(* ------------------------------------------------------------------ *)
(* Tcp transport                                                       *)

let tmp_addr =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Unix.ADDR_UNIX
      (Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "wfd-test-%d-%d.sock" (Unix.getpid ()) !counter))

let test_tcp_pair () =
  let addrs = [| tmp_addr (); tmp_addr () |] in
  let t0 = Net.Tcp.create ~self:0 ~addrs () in
  let t1 = Net.Tcp.create ~self:1 ~addrs () in
  let sent = List.init 20 (fun i -> Printf.sprintf "msg-%d" i) in
  List.iter (fun m -> t0.Net.Transport.send 1 (Bytes.of_string m)) sent;
  let received = ref [] in
  let deadline = Unix.gettimeofday () +. 5. in
  while List.length !received < 20 && Unix.gettimeofday () < deadline do
    (* both ends must pump their event loops *)
    ignore (t0.Net.Transport.poll ~timeout_ms:10);
    match t1.Net.Transport.poll ~timeout_ms:10 with
    | Some (src, frame) -> received := (src, Bytes.to_string frame) :: !received
    | None -> ()
  done;
  let received = List.rev !received in
  Alcotest.(check bool) "all frames arrive in order from 0" true
    (received = List.map (fun m -> (0, m)) sent);
  t0.Net.Transport.close ();
  t1.Net.Transport.close ()

let test_tcp_self_send () =
  let addrs = [| tmp_addr () |] in
  let t = Net.Tcp.create ~self:0 ~addrs () in
  t.Net.Transport.send 0 (Bytes.of_string "loop");
  (match t.Net.Transport.poll ~timeout_ms:0 with
  | Some (0, b) -> Alcotest.(check string) "self frame" "loop" (Bytes.to_string b)
  | _ -> Alcotest.fail "self-send not delivered");
  t.Net.Transport.close ()

let test_tcp_reconnect () =
  let addrs = [| tmp_addr (); tmp_addr () |] in
  let t0 = Net.Tcp.create ~self:0 ~addrs () in
  (* peer 1 not up yet: frames queue, peer goes down, stats notice *)
  t0.Net.Transport.send 1 (Bytes.of_string "early");
  let pump t ms = ignore (t.Net.Transport.poll ~timeout_ms:ms) in
  pump t0 30;
  pump t0 30;
  Alcotest.(check bool) "peer 1 reported down before it exists" true
    (Sim.Pidset.mem 1 (t0.Net.Transport.stats ()).Net.Transport.down);
  (* bring peer 1 up: the queued frame must arrive (reconnect + flush) *)
  let t1 = Net.Tcp.create ~self:1 ~addrs () in
  let got = ref None in
  let deadline = Unix.gettimeofday () +. 5. in
  while !got = None && Unix.gettimeofday () < deadline do
    pump t0 10;
    match t1.Net.Transport.poll ~timeout_ms:10 with
    | Some (src, b) -> got := Some (src, Bytes.to_string b)
    | None -> ()
  done;
  Alcotest.(check (option (pair int string)))
    "frame queued while down arrives after connect" (Some (0, "early")) !got;
  (* [down] clears only once the hello-ack completes the handshake, which
     may trail the first frame delivery by a pump or two *)
  let deadline = Unix.gettimeofday () +. 5. in
  while
    Sim.Pidset.mem 1 (t0.Net.Transport.stats ()).Net.Transport.down
    && Unix.gettimeofday () < deadline
  do
    pump t0 10;
    pump t1 10
  done;
  Alcotest.(check bool) "peer 1 no longer down" true
    (not (Sim.Pidset.mem 1 (t0.Net.Transport.stats ()).Net.Transport.down));
  t0.Net.Transport.close ();
  t1.Net.Transport.close ()

let test_tcp_backoff_needs_handshake () =
  (* Regression: reconnect backoff used to reset on any successful
     [connect], even if the hello handshake then failed — an accepting
     listener that drops connections turned the dialer into a tight
     reconnect loop.  Backoff now resets only on a completed hello/
     hello-ack exchange, so against an accept-and-close listener the
     attempt count over a fixed window stays logarithmic (the buggy
     dialer retried every [backoff_min] = 50ms, ~20+ attempts in 1.2s;
     the fixed one doubles 0.05 → 0.1 → 0.2 → ..., ~5). *)
  let addrs = [| tmp_addr (); tmp_addr () |] in
  let lfd = Unix.socket (Unix.domain_of_sockaddr addrs.(1)) Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.set_nonblock lfd;
  Unix.bind lfd addrs.(1);
  Unix.listen lfd 16;
  let t0 = Net.Tcp.create ~self:0 ~addrs () in
  t0.Net.Transport.send 1 (Bytes.of_string "probe");
  let attempts = ref 0 in
  let deadline = Unix.gettimeofday () +. 1.2 in
  while Unix.gettimeofday () < deadline do
    ignore (t0.Net.Transport.poll ~timeout_ms:5);
    let continue = ref true in
    while !continue do
      match Unix.accept lfd with
      | fd, _ ->
        incr attempts;
        (try Unix.close fd with Unix.Unix_error _ -> ())
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        continue := false
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done
  done;
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  t0.Net.Transport.close ();
  Alcotest.(check bool)
    (Printf.sprintf "backoff grows without a handshake (%d attempts)"
       !attempts)
    true
    (!attempts >= 2 && !attempts <= 8)

(* ------------------------------------------------------------------ *)
(* ARQ edge cases on the deterministic hub                             *)

(* [Net.Rel] driven directly over [Net.Det]: each scenario scripts a
   hub fault and a fixed scheduler resolves every delivery pick, so
   the runs are deterministic and replayable by construction — the
   reorder case records its choices and replays them to prove it.
   These are the frame-level edge cases [Mc.Net_harness] explores
   exhaustively, pinned here as unit tests with the Rel counters
   asserted. *)

let det_rel_pair ?reorder ?(resend_every = 64) ~sched () =
  let hub = Net.Det.create ?reorder ~n:2 ~sched () in
  let r0 = Net.Rel.wrap ~resend_every (Net.Det.endpoint hub 0) in
  let r1 = Net.Rel.wrap ~resend_every (Net.Det.endpoint hub 1) in
  (hub, r0, r1)

let drain_rel tr =
  let rec go acc =
    match tr.Net.Transport.poll ~timeout_ms:0 with
    | None -> List.rev acc
    | Some (src, b) -> go ((src, Bytes.to_string b) :: acc)
  in
  go []

let deliveries = Alcotest.(list (pair int string))

(* A duplicated data frame: both copies enqueue, the receiver's
   delivery cursor filters the second. *)
let test_det_dup_data_filtered () =
  let hub, r0, r1 = det_rel_pair ~sched:Sim.Scheduler.first () in
  let t0 = Net.Rel.transport r0 and t1 = Net.Rel.transport r1 in
  Net.Det.dup_next hub 0;
  t0.Net.Transport.send 1 (Bytes.of_string "once");
  Alcotest.check deliveries "delivered exactly once" [ (0, "once") ]
    (drain_rel t1);
  Alcotest.(check bool) "duplicate filtered" true
    ((Net.Rel.stats r1).Net.Rel.dup_filtered >= 1);
  ignore (drain_rel t0)

(* A duplicated cumulative ack: processing it twice must be idempotent
   — the sender's unacked queue drains and the link keeps working. *)
let test_det_dup_ack_flood () =
  let hub, r0, r1 = det_rel_pair ~sched:Sim.Scheduler.first () in
  let t0 = Net.Rel.transport r0 and t1 = Net.Rel.transport r1 in
  t0.Net.Transport.send 1 (Bytes.of_string "pay");
  Net.Det.dup_next hub 1 (* the receiver's next outbound frame: its ack *);
  Alcotest.check deliveries "payload delivered once" [ (0, "pay") ]
    (drain_rel t1);
  ignore (drain_rel t0) (* both ack copies processed *);
  Alcotest.(check int) "unacked drained by the duplicated ack" 0
    (Net.Rel.stats r0).Net.Rel.unacked;
  t0.Net.Transport.send 1 (Bytes.of_string "after");
  Alcotest.check deliveries "link still in order afterwards"
    [ (0, "after") ] (drain_rel t1)

(* A retransmission racing its late original: the link blocks before
   the first send, the sender's resend scan fires while the ack cannot
   come back, then unblock releases original and resend back to back —
   the receiver must deliver once and filter the straggler. *)
let test_det_resend_races_blocked_original () =
  let hub, r0, r1 =
    det_rel_pair ~resend_every:2 ~sched:Sim.Scheduler.first ()
  in
  let t0 = Net.Rel.transport r0 and t1 = Net.Rel.transport r1 in
  Net.Det.block hub 0;
  t0.Net.Transport.send 1 (Bytes.of_string "m0");
  (* unackable: polling p0 ticks the resend clock until the scan
     retransmits (the copy is held behind the original) *)
  let rec tick k =
    if k > 0 && (Net.Rel.stats r0).Net.Rel.retransmits = 0 then begin
      ignore (t0.Net.Transport.poll ~timeout_ms:0);
      tick (k - 1)
    end
  in
  tick 8;
  Alcotest.(check bool) "resend scan fired while blocked" true
    ((Net.Rel.stats r0).Net.Rel.retransmits >= 1);
  Net.Det.unblock hub 0;
  Alcotest.check deliveries "delivered exactly once after unblock"
    [ (0, "m0") ] (drain_rel t1);
  Alcotest.(check bool) "retransmitted copy filtered" true
    ((Net.Rel.stats r1).Net.Rel.dup_filtered >= 1);
  ignore (drain_rel t0);
  Alcotest.(check int) "ack finally drains the sender" 0
    (Net.Rel.stats r0).Net.Rel.unacked

(* Frame reordering: with [reorder:true] the scheduler can deliver a
   link's newer frame first; Rel buffers it and releases in sequence
   order.  The choice list is recorded and replayed to show the
   scenario is a replayable seed, not a fluke of the driver. *)
let test_det_reorder_resequenced_and_replayed () =
  let run sched =
    let hub, r0, r1 = det_rel_pair ~reorder:true ~sched () in
    ignore hub;
    let t0 = Net.Rel.transport r0 and t1 = Net.Rel.transport r1 in
    t0.Net.Transport.send 1 (Bytes.of_string "a");
    t0.Net.Transport.send 1 (Bytes.of_string "b");
    let got = drain_rel t1 in
    ignore (drain_rel t0);
    (got, (Net.Rel.stats r1).Net.Rel.resequenced)
  in
  (* always pick the newest pending frame: #1 overtakes #0 *)
  let newest =
    Sim.Scheduler.of_fun (function
      | Sim.Scheduler.Deliver_pick { candidates; _ } ->
        List.length candidates - 1
      | _ -> 0)
  in
  let sched, choices = Sim.Scheduler.recording newest in
  let got, reseq = run sched in
  Alcotest.check deliveries "in order despite frame reordering"
    [ (0, "a"); (0, "b") ] got;
  Alcotest.(check bool) "out-of-order frame was buffered" true (reseq >= 1);
  let seed = choices () in
  Alcotest.(check bool) "the run actually made delivery choices" true
    (seed <> []);
  let got', reseq' =
    run (Sim.Scheduler.replay seed ~rest:Sim.Scheduler.first)
  in
  Alcotest.check deliveries "replayed seed reproduces the deliveries" got
    got';
  Alcotest.(check int) "replayed seed reproduces the resequencing" reseq
    reseq'

(* ------------------------------------------------------------------ *)
(* Rel over the loopback hub                                           *)

(* [Net.Rel] pair on a lossless loopback hub; [drop] sees every frame
   p0 hands the hub and returns [true] to lose it. *)
let rel_pair ?metrics ?(drop = fun _ -> false) ~resend_every () =
  let hub = Net.Loopback.create ~n:2 in
  let raw0 = Net.Loopback.endpoint hub 0 in
  let lossy =
    { raw0 with
      Net.Transport.send =
        (fun dst f -> if not (drop f) then raw0.Net.Transport.send dst f) }
  in
  let r0 = Net.Rel.wrap ~resend_every lossy in
  let r1 = Net.Rel.wrap ~resend_every ?metrics (Net.Loopback.endpoint hub 1) in
  (raw0, r0, r1)

(* Stream the payloads 1..[total] from p0 to p1, one send per round,
   each side polling once a round as a node steps, and run
   3 * [resend_every] rounds past the last send.  Returns p0's Rel and
   the deliveries as (payload, round). *)
let rel_stream ?drop ~resend_every ~total () =
  let _, r0, r1 = rel_pair ?drop ~resend_every () in
  let t0 = Net.Rel.transport r0 and t1 = Net.Rel.transport r1 in
  let got = ref [] in
  for i = 1 to total + (3 * resend_every) do
    if i <= total then
      t0.Net.Transport.send 1 (Bytes.of_string (string_of_int i));
    ignore (t0.Net.Transport.poll ~timeout_ms:0);
    match t1.Net.Transport.poll ~timeout_ms:0 with
    | Some (_, b) -> got := (int_of_string (Bytes.to_string b), i) :: !got
    | None -> ()
  done;
  (r0, List.rev !got)

(* Acks keep advancing on a lossless link, so every scan finds only
   frames in flight and nothing is resent. *)
let test_rel_lossless_stream_no_retransmits () =
  let total = 400 in
  let r0, got = rel_stream ~resend_every:8 ~total () in
  Alcotest.(check (list int)) "stream delivered in order"
    (List.init total (fun i -> i + 1)) (List.map fst got);
  Alcotest.(check int) "no retransmission on a lossless link" 0
    (Net.Rel.stats r0).Net.Rel.retransmits

(* One data frame of that stream is lost on its first send.  The ack
   stalls at the gap, so the skip rule stops holding and the frame is
   resent and delivered within 2 * resend_every polls of its send.  Each
   of the [resend_every] drop positions meets the scan clock at a
   different phase. *)
let test_rel_lost_frame_resent () =
  let every = 8 and total = 200 in
  for lost = 100 to 100 + every - 1 do
    let dropped = ref false in
    let drop f =
      let hit =
        (not !dropped)
        && Bytes.get f 0 = 'D'
        && Int64.to_int (Bytes.get_int64_be f 1) = lost - 1
      in
      if hit then dropped := true;
      hit
    in
    let r0, got = rel_stream ~drop ~resend_every:every ~total () in
    Alcotest.(check bool) "the frame was lost" true !dropped;
    Alcotest.(check (list int)) "stream delivered in order, exactly once"
      (List.init total (fun i -> i + 1)) (List.map fst got);
    let delay = List.assoc lost got - lost in
    Alcotest.(check bool)
      (Printf.sprintf "frame %d delivered %d polls after its send" lost delay)
      true
      (delay <= (2 * every) + 2);
    Alcotest.(check bool) "recovered by retransmission" true
      ((Net.Rel.stats r0).Net.Rel.retransmits >= 1)
  done

(* Frames shorter than the header, or with an unknown tag, are dropped
   and counted as [net.rel_malformed]; the link keeps working. *)
let test_rel_malformed_counted () =
  let m = Obs.Metrics.create () in
  let raw0, r0, r1 = rel_pair ~metrics:m ~resend_every:8 () in
  let t0 = Net.Rel.transport r0 and t1 = Net.Rel.transport r1 in
  raw0.Net.Transport.send 1 (Bytes.of_string "D\x00");
  raw0.Net.Transport.send 1 (Bytes.of_string "X\x00\x00\x00\x00\x00\x00\x00\x00tail");
  t0.Net.Transport.send 1 (Bytes.of_string "ok");
  Alcotest.check deliveries "the good frame behind them is delivered"
    [ (0, "ok") ] (drain_rel t1);
  Alcotest.(check int) "short and unknown-tag frames counted" 2
    (Obs.Metrics.counter m "net.rel_malformed")

let () =
  Alcotest.run "net"
    [
      ( "wire",
        [
          Alcotest.test_case "decoder reassembles chunked frames" `Quick
            test_decoder_reassembles;
          Alcotest.test_case "envelope round-trip" `Quick
            test_envelope_roundtrip;
          Alcotest.test_case "envelope: future version refused" `Quick
            test_envelope_version_rejected;
          Alcotest.test_case "envelope: truncation refused" `Quick
            test_envelope_truncation_rejected;
          Alcotest.test_case "hello" `Quick test_hello;
          Alcotest.test_case "node drops corrupt pmsg frames, counted" `Quick
            test_node_decode_drops_pmsg;
          Alcotest.test_case "node drops corrupt Marshal frames, counted"
            `Quick test_node_decode_drops_marshal;
          Alcotest.test_case "oversized frames refused at the header" `Quick
            test_decoder_frame_cap;
          QCheck_alcotest.to_alcotest prop_decoder_roundtrip;
          QCheck_alcotest.to_alcotest prop_varint_roundtrip;
          QCheck_alcotest.to_alcotest prop_smr_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_pmsg_codec_roundtrip;
        ] );
      ( "loopback-smr",
        [
          Alcotest.test_case "three replicas agree" `Quick
            test_loopback_agreement;
          Alcotest.test_case "agreement survives a crash" `Quick
            test_loopback_crash;
        ] );
      ( "batching-pipelining",
        [
          Alcotest.test_case "pipelined window: gapless identical logs"
            `Quick test_loopback_pipelined_agreement;
          Alcotest.test_case "batch at crash boundary applies exactly once"
            `Quick test_loopback_batch_crash_boundary;
          Alcotest.test_case "idle ticks burn no instances" `Quick
            test_loopback_idle_burns_no_instances;
          Alcotest.test_case "out-of-order install applies in slot order"
            `Quick test_install_out_of_order;
        ] );
      ( "detectors-on-loopback",
        [
          Alcotest.test_case "omega: no false suspicion at steady state"
            `Quick test_omega_converges_on_loopback;
          Alcotest.test_case "omega: crash detected" `Quick
            test_omega_crash_detection_on_loopback;
          Alcotest.test_case "omega: timeout adapts across false suspicion"
            `Quick test_omega_timeout_adapts_on_loopback;
          Alcotest.test_case "sigma: rounds complete, quorums intersect"
            `Quick test_sigma_quorums_on_loopback;
        ] );
      ( "det-rel-arq",
        [
          Alcotest.test_case "duplicate data frame filtered" `Quick
            test_det_dup_data_filtered;
          Alcotest.test_case "duplicate-ack flood is idempotent" `Quick
            test_det_dup_ack_flood;
          Alcotest.test_case "resend races its blocked original" `Quick
            test_det_resend_races_blocked_original;
          Alcotest.test_case "reorder resequenced; seed replays" `Quick
            test_det_reorder_resequenced_and_replayed;
        ] );
      ( "rel-arq",
        [
          Alcotest.test_case "lossless stream: no retransmits" `Quick
            test_rel_lossless_stream_no_retransmits;
          Alcotest.test_case "lost frame resent within two intervals" `Quick
            test_rel_lost_frame_resent;
          Alcotest.test_case "malformed frames dropped, counted" `Quick
            test_rel_malformed_counted;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "ordered delivery between two endpoints" `Quick
            test_tcp_pair;
          Alcotest.test_case "self send" `Quick test_tcp_self_send;
          Alcotest.test_case "queue while down, flush on connect" `Quick
            test_tcp_reconnect;
          Alcotest.test_case "backoff resets only on completed handshake"
            `Quick test_tcp_backoff_needs_handshake;
        ] );
    ]
