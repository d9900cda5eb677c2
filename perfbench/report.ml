(* What a workload hands back to bench.ml. *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

type outcome = {
  errors : string list;  (** failed correctness checks; [] = correct *)
  attempted : int;
  failed : int;
  trials : int;  (** untraced trials the end-to-end medians come from *)
  e2e : metric list;  (** the gated end-to-end metrics, untraced *)
  detail : metric list;  (** workload-specific end-to-end numbers *)
  layers : metric list;  (** per-layer numbers, traced run only *)
}

let mono_s () = float_of_int (Trace.now_ns ()) *. 1e-9

let timed f =
  let t0 = mono_s () in
  let v = f () in
  (v, mono_s () -. t0)

(* Host speed.  On a host whose cores are shared with other tenants the
   speed drifts by tens of percent over minutes (20-40% on a 2-vCPU KVM
   guest); one run's trials all see the same phase, so medians within a
   run cannot remove it.  The probe is fixed work that uses only the
   standard library, of the kinds the library's hot paths do: polymorphic
   hashing into a Hashtbl, Map updates, byte building, Marshal round
   trips, sorting.  It runs on a compacted heap before every trial, and a
   trial's host estimate is the mean of the probes before and after it.
   Wall-clock end-to-end metrics are scaled to a host where one probe
   round takes [probe_ref_s]; the raw values are printed beside them.
   Nothing under lib/ runs in the probe, so its time does not depend on
   the library. *)
let probe_ref_s = 0.005

module Imap = Map.Make (Int)

let probe_work () =
  let acc = ref 0 in
  let h = Hashtbl.create 64 in
  let m = ref Imap.empty in
  let b = Buffer.create 256 in
  for i = 0 to 8_000 do
    let key = (i land 1023, i land 7) in
    Hashtbl.replace h key i;
    acc := !acc + Option.value ~default:0 (Hashtbl.find_opt h key);
    m := Imap.add ((i * 7919) land 4095) i !m;
    acc := !acc + Option.value ~default:0 (Imap.find_opt (i land 4095) !m);
    Buffer.add_string b (string_of_int i);
    if i land 31 = 0 then begin
      let l = List.init 16 (fun j -> (j land 5, Buffer.length b - j)) in
      let l' : (int * int) list =
        Marshal.from_string (Marshal.to_string l []) 0
      in
      acc := !acc + List.length (List.sort compare l');
      Buffer.clear b
    end
  done;
  !acc

(* Median of three timed rounds of the probe, on a compacted heap. *)
let probe () =
  Gc.compact ();
  let once () =
    let t0 = mono_s () in
    ignore (Sys.opaque_identity (probe_work ()));
    mono_s () -. t0
  in
  let a = once () in
  let b = once () in
  let c = once () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

type timing = {
  setup_s : float;  (** building the system and warming it up *)
  mutable probe_s : float;  (** host probe around the trial *)
}

(* Run [f i] for trial i = 0, 1, ... until [seconds] have passed since
   the call, at least [min] times; results in trial order.  Each trial's
   probe becomes the mean of its own and the next trial's (or a last
   one's). *)
let repeat ~seconds ~min ~timing f =
  let t0 = mono_s () in
  let rec go i acc =
    if i >= min && mono_s () -. t0 >= seconds then acc
    else go (i + 1) (f i :: acc)
  in
  let newest_first = go 0 [] in
  let after = ref (probe ()) in
  List.iter
    (fun t ->
      let tm = timing t in
      let before = tm.probe_s in
      tm.probe_s <- (before +. !after) /. 2.;
      after := before)
    newest_first;
  List.rev newest_first

(* How much slower than the reference host this trial ran: divide a
   duration by it, multiply a rate by it. *)
let slow t = t.probe_s /. probe_ref_s

(* Build a fresh system for one trial, timed, right after the probe has
   compacted the heap: the garbage of earlier trials must not decide when
   the collector runs during this one. *)
let setup f =
  let probe_s = probe () in
  let v, setup_s = timed f in
  (v, { setup_s; probe_s })

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let words_to_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

(* Self-time share of each layer in the traced trial, in percent. *)
let split () =
  let total = Trace.total_s () in
  List.map
    (fun (layer, s) -> m ("split." ^ layer ^ "_pct") "%" (100. *. s /. total))
    (Trace.layers ())

(* The gated end-to-end metrics, medians over the trials of each trial's
   value scaled to the reference host, and the raw medians with the probe
   for the table.  [ops_per_s], [p50_ms] and [p99_ms] read one trial. *)
let end_to_end ~timing ~ops_per_s ~p50_ms ~p99_ms ~live_words trials =
  let raw f = Stats.med f trials in
  let dur f = Stats.med (fun t -> f t /. slow (timing t)) trials in
  let rate f = Stats.med (fun t -> f t *. slow (timing t)) trials in
  let setup t = (timing t).setup_s in
  ( [
      m "setup_s" "s" (dur setup);
      m "ops_per_s" "ops/s" (rate ops_per_s);
      m "p50_ms" "ms" (dur p50_ms);
      m "p99_ms" "ms" (dur p99_ms);
      m "live_heap_mb" "MB" (words_to_mb live_words);
    ],
    [
      m "raw.setup_s" "s" (raw setup);
      m "raw.ops_per_s" "ops/s" (raw ops_per_s);
      m "raw.p50_ms" "ms" (raw p50_ms);
      m "raw.p99_ms" "ms" (raw p99_ms);
      m "host.probe_ms" "ms" (raw (fun t -> 1e3 *. (timing t).probe_s));
    ] )

(* How much longer the traced trial ran than the untraced median, in
   percent, both scaled to the reference host. *)
let overhead_pct ~timing ~elapsed traced trials =
  let d t = elapsed t /. slow (timing t) in
  100. *. ((d traced /. Stats.med d trials) -. 1.)
