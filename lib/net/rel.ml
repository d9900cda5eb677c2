(* Header: 1 tag byte ('D' data / 'A' ack) + 8-byte big-endian sequence
   number.  Data seqs are per directed pair, from 0; an ack carries the
   receiver's cumulative delivery cursor (highest seq delivered in order). *)

let header_len = 9

let frame_of tag seq payload =
  let b = Bytes.create (header_len + Bytes.length payload) in
  Bytes.set b 0 tag;
  Bytes.set_int64_be b 1 (Int64.of_int seq);
  Bytes.blit payload 0 b header_len (Bytes.length payload);
  b

let data_frame seq payload = frame_of 'D' seq payload
let ack_frame seq = frame_of 'A' seq Bytes.empty

type send_state = {
  mutable next_seq : int;
  unacked : (int * bytes) Queue.t;  (* seq, full frame; ascending *)
  mutable acked : bool;  (* cumulative ack advanced since the last scan *)
  mutable mark : int;  (* [next_seq] at the last scan *)
  mutable mark2 : int;  (* [next_seq] at the scan before that *)
}

module Int_map = Map.Make (Int)

type recv_state = {
  mutable next_expect : int;  (* lowest seq not yet delivered *)
  mutable ooo : bytes Int_map.t;  (* buffered out-of-order payloads *)
}

type t = {
  inner : Transport.t;
  resend_every : int;
  metrics : Obs.Metrics.t option;
  out : send_state array;
  inbox : recv_state array;
  ready : (Sim.Pid.t * bytes) Queue.t;
  mutable polls : int;
  mutable retransmits : int;
  mutable dup_filtered : int;
  mutable resequenced : int;
}

type stats = {
  retransmits : int;
  dup_filtered : int;
  resequenced : int;
  unacked : int;
}

let stats (t : t) : stats =
  {
    retransmits = t.retransmits;
    dup_filtered = t.dup_filtered;
    resequenced = t.resequenced;
    unacked =
      Array.fold_left
        (fun acc (s : send_state) -> acc + Queue.length s.unacked)
        0 t.out;
  }

let bump ?(by = 1) t name =
  match t.metrics with None -> () | Some m -> Obs.Metrics.incr ~by m name

(* Resend the oldest unacknowledged frames of every peer.  The per-peer
   burst is capped: in-order delivery means the front of the queue is what
   unblocks the receiver, and the walk stops at the cap (a crashed peer's
   queue grows without bound).

   The retransmission timer restarts on ack progress (RFC 6298 §5.3): a
   peer whose cumulative ack advanced since the last scan, and whose
   oldest unacked frame was first sent after the scan before that (so it
   is at most two intervals old), is skipped — its frames are in flight,
   not lost.  A lost frame stops the ack at the gap: it is resent at the
   first scan where the ack did not advance, and at the third scan after
   its first send at the latest. *)
let resend_cap = 64

let resend_scan t =
  Array.iteri
    (fun dst (s : send_state) ->
      if dst <> t.inner.Transport.self then begin
        (match Queue.peek_opt s.unacked with
        | Some (oldest, _) when not (s.acked && oldest >= s.mark2) ->
          let k = ref 0 in
          (try
             Queue.iter
               (fun (_, frame) ->
                 if !k = resend_cap then raise_notrace Exit;
                 incr k;
                 t.inner.Transport.send dst frame)
               s.unacked
           with Exit -> ());
          t.retransmits <- t.retransmits + !k;
          bump ~by:!k t "net.retransmits"
        | _ -> ());
        s.acked <- false;
        s.mark2 <- s.mark;
        s.mark <- s.next_seq
      end)
    t.out

let handle_ack t src seq =
  let s = t.out.(src) in
  let rec drop () =
    match Queue.peek_opt s.unacked with
    | Some (sq, _) when sq <= seq ->
      ignore (Queue.pop s.unacked);
      s.acked <- true;
      drop ()
    | _ -> ()
  in
  drop ()

let send_ack t dst =
  t.inner.Transport.send dst (ack_frame (t.inbox.(dst).next_expect - 1))

let handle_data t src seq payload =
  let r = t.inbox.(src) in
  if seq < r.next_expect then begin
    (* duplicate (retransmission of something delivered): re-ack so the
       sender stops resending even if our previous ack was lost *)
    t.dup_filtered <- t.dup_filtered + 1;
    bump t "net.dup_filtered";
    send_ack t src
  end
  else if seq = r.next_expect then begin
    Queue.push (src, payload) t.ready;
    r.next_expect <- r.next_expect + 1;
    let rec drain () =
      match Int_map.find_opt r.next_expect r.ooo with
      | Some p ->
        r.ooo <- Int_map.remove r.next_expect r.ooo;
        Queue.push (src, p) t.ready;
        r.next_expect <- r.next_expect + 1;
        drain ()
      | None -> ()
    in
    drain ();
    send_ack t src
  end
  else begin
    if not (Int_map.mem seq r.ooo) then begin
      r.ooo <- Int_map.add seq payload r.ooo;
      t.resequenced <- t.resequenced + 1;
      bump t "net.resequenced"
    end;
    send_ack t src
  end

(* A frame shorter than the header or with an unknown tag is dropped and
   counted: it can only come from a peer that does not speak this layer. *)
let process t src frame =
  if Bytes.length frame < header_len then bump t "net.rel_malformed"
  else
    let seq = Int64.to_int (Bytes.get_int64_be frame 1) in
    let payload () =
      Bytes.sub frame header_len (Bytes.length frame - header_len)
    in
    match Bytes.get frame 0 with
    | 'A' -> handle_ack t src seq
    | 'D' -> handle_data t src seq (payload ())
    | _ -> bump t "net.rel_malformed"

let wrap ?(resend_every = 64) ?metrics (inner : Transport.t) =
  {
    inner;
    resend_every = max 1 resend_every;
    metrics;
    out =
      Array.init inner.Transport.n (fun _ ->
          {
            next_seq = 0;
            unacked = Queue.create ();
            acked = false;
            mark = 0;
            mark2 = 0;
          });
    inbox =
      Array.init inner.Transport.n (fun _ ->
          { next_expect = 0; ooo = Int_map.empty });
    ready = Queue.create ();
    polls = 0;
    retransmits = 0;
    dup_filtered = 0;
    resequenced = 0;
  }

let transport t =
  let inner = t.inner in
  let n = inner.Transport.n in
  let self = inner.Transport.self in
  let send dst payload =
    if dst = self then inner.Transport.send dst payload
    else if Sim.Pid.valid ~n dst then begin
      let s = t.out.(dst) in
      let seq = s.next_seq in
      s.next_seq <- seq + 1;
      let frame = data_frame seq payload in
      Queue.push (seq, frame) s.unacked;
      inner.Transport.send dst frame
    end
  in
  let poll ~timeout_ms =
    t.polls <- t.polls + 1;
    if t.polls mod t.resend_every = 0 then resend_scan t;
    match Queue.take_opt t.ready with
    | Some r -> Some r
    | None ->
      let rec go timeout =
        match inner.Transport.poll ~timeout_ms:timeout with
        | None -> None
        | Some (src, frame) ->
          if src = self then Some (src, frame)
          else begin
            process t src frame;
            match Queue.take_opt t.ready with
            | Some r -> Some r
            | None -> go 0 (* consumed an ack / dup / gap: retry, no wait *)
          end
      in
      go timeout_ms
  in
  {
    Transport.self;
    n;
    send;
    poll;
    stats = inner.Transport.stats;
    close = inner.Transport.close;
  }

(* Deep digest of the ARQ state machine, for model-checking visited-state
   pruning: send cursors + unacked frames + resend-timer state, delivery
   cursors + reorder buffers, the ready queue, and the poll counter (it
   clocks the resend scan, so it is behaviourally relevant state).  A scan
   mark matters only against the oldest unacked frame, which can never
   fall below the first unacked seq: marks are clamped there and taken
   relative to [next_seq], so states that differ only in marks the future
   cannot tell apart still merge. *)
let digest t =
  let project =
    ( Array.map
        (fun (s : send_state) ->
          let lo =
            match Queue.peek_opt s.unacked with
            | Some (sq, _) -> sq
            | None -> s.next_seq
          in
          let rel m = s.next_seq - max m lo in
          ( s.next_seq,
            List.map
              (fun (sq, f) -> (sq, Bytes.to_string f))
              (List.of_seq (Queue.to_seq s.unacked)),
            (s.acked, rel s.mark, rel s.mark2) ))
        t.out,
      Array.map
        (fun (r : recv_state) ->
          ( r.next_expect,
            List.map
              (fun (sq, p) -> (sq, Bytes.to_string p))
              (Int_map.bindings r.ooo) ))
        t.inbox,
      List.map
        (fun (src, p) -> ((src : Sim.Pid.t), Bytes.to_string p))
        (List.of_seq (Queue.to_seq t.ready)),
      t.polls mod t.resend_every )
  in
  Hashtbl.hash (Digest.bytes (Marshal.to_bytes project []))
