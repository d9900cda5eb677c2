(* The crash-injection adversary quantifies over failure patterns: every
   subset of at most [max_crashes] processes, crashing at every combination
   of times on the grid [0, stride, 2*stride, ... <= horizon].  For each
   pattern an inner explorer searches over schedules.  Patterns are visited
   fewest-crashes-first (starting with the failure-free pattern), so a
   reported counterexample uses the fewest failures the bug needs — crashes
   can also *mask* bugs that live in specific processes. *)

type inner = Harness.explorer

type report = {
  counterexample : Harness.counterexample option;
  patterns : int;
  schedules : int;
  steps : int;
  complete : bool;
}

(* All sublists of [xs] of size <= k, smaller subsets first. *)
let subsets_le k xs =
  let rec go = function
    | [] -> [ [] ]
    | x :: tl ->
      let rest = go tl in
      List.map (fun s -> x :: s) rest @ rest
  in
  go xs
  |> List.filter (fun s -> List.length s <= k)
  |> List.stable_sort (fun a b -> compare (List.length a) (List.length b))

(* All assignments of a grid time to each pid of [pids]. *)
let time_assignments grid pids =
  List.fold_left
    (fun acc pid ->
      List.concat_map (fun asn -> List.map (fun t -> (pid, t) :: asn) grid) acc)
    [ [] ] pids
  |> List.map List.rev

let patterns ~n ~max_crashes ~horizon ~stride =
  let stride = max 1 stride in
  let rec grid t = if t > horizon then [] else t :: grid (t + stride) in
  let grid = match grid 0 with [] -> [ 0 ] | g -> g in
  (* never crash everyone: the model requires a correct process *)
  let subsets = subsets_le (min max_crashes (n - 1)) (Sim.Pid.all n) in
  List.concat_map
    (fun pids ->
      List.map (fun crashes -> Sim.Failure_pattern.make ~n crashes)
        (time_assignments grid pids))
    subsets

let search ?(max_crashes = 1) ?(horizon = 4) ?(stride = 2)
    ?(inner = `Exhaustive) ?(budget = 20_000) ?(inner_budget = 2_000)
    ?(d = 3) ?(shrink = true) ?(seed = 1) target ~n =
  let fps = patterns ~n ~max_crashes ~horizon ~stride in
  let patterns_tried = ref 0 in
  let schedules = ref 0 in
  let steps = ref 0 in
  let found = ref None in
  let complete = ref true in
  let remaining () = budget - !schedules in
  List.iter
    (fun fp ->
      if !found = None && remaining () > 0 then begin
        incr patterns_tried;
        let b = min inner_budget (remaining ()) in
        match inner with
        | `Exhaustive | `Dpor ->
          let search =
            if inner = `Dpor then Dpor.search else Exhaustive.search
          in
          let r = search ~budget:b ~shrink ~seed target ~fp in
          schedules := !schedules + r.Exhaustive.schedules;
          steps := !steps + r.Exhaustive.steps;
          if not r.Exhaustive.complete then complete := false;
          found := r.Exhaustive.counterexample
        | `Pct ->
          let r = Pct.search ~budget:b ~d ~shrink ~seed target ~fp in
          schedules := !schedules + r.Pct.schedules;
          steps := !steps + r.Pct.steps;
          complete := false;
          found := r.Pct.counterexample
        | `Random ->
          let rng = Sim.Rng.make (Hashtbl.hash (seed, !patterns_tried)) in
          let i = ref 0 in
          while !found = None && !i < b do
            incr i;
            incr schedules;
            let r =
              Harness.run ~seed target ~fp
                (Sim.Scheduler.random (Sim.Rng.split rng !i))
            in
            steps := !steps + r.Harness.steps;
            match r.Harness.violation with
            | Some reason ->
              found :=
                Some
                  (Harness.counterexample ~shrink
                     ~violates:(Harness.violates ~seed target ~n)
                     ~target:target.Harness.name ~n ~seed ~reason
                     (Schedule.of_fp fp r.Harness.choices))
            | None -> ()
          done;
          complete := false
      end
      else if !found = None then complete := false)
    fps;
  {
    counterexample = !found;
    patterns = !patterns_tried;
    schedules = !schedules;
    steps = !steps;
    complete = !complete && !found = None;
  }
