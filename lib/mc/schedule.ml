type t = {
  crashes : (Sim.Pid.t * int) list;
  choices : int list;
}

let empty = { crashes = []; choices = [] }

let make ?(crashes = []) choices = { crashes; choices }

let of_fp fp choices =
  let n = Sim.Failure_pattern.n fp in
  let crashes =
    List.filter_map
      (fun p ->
        Option.map (fun t -> (p, t)) (Sim.Failure_pattern.crash_time fp p))
      (Sim.Pid.all n)
  in
  { crashes; choices }

let fp ~n t = Sim.Failure_pattern.make ~n t.crashes

let length t = List.length t.choices

let take_prefix choices i = Array.to_list (Array.sub choices 0 i)

let to_string t =
  let crashes =
    String.concat ","
      (List.map (fun (p, at) -> Printf.sprintf "%d@%d" p at) t.crashes)
  in
  let choices = String.concat "," (List.map string_of_int t.choices) in
  Printf.sprintf "crashes=%s;choices=%s" crashes choices

let of_string s =
  let fail () = invalid_arg ("Schedule.of_string: cannot parse " ^ s) in
  let parse_crash part =
    match String.split_on_char '@' part with
    | [ p; at ] -> (
      match (int_of_string_opt p, int_of_string_opt at) with
      | Some p, Some at -> (p, at)
      | _ -> fail ())
    | _ -> fail ()
  in
  let parse_list f = function
    | "" -> []
    | body -> List.map f (String.split_on_char ',' body)
  in
  match String.split_on_char ';' s with
  | [ c; ch ] ->
    let strip prefix part =
      match String.index_opt part '=' with
      | Some i when String.sub part 0 i = prefix ->
        String.sub part (i + 1) (String.length part - i - 1)
      | _ -> fail ()
    in
    {
      crashes = parse_list parse_crash (strip "crashes" c);
      choices =
        parse_list
          (fun x -> match int_of_string_opt x with Some v -> v | None -> fail ())
          (strip "choices" ch);
    }
  | _ -> fail ()

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* Polymorphic [Hashtbl.hash] stops after ~10 list cells, so prefixes
   sharing a long start collide; fold every element, then mix the high
   bits down (Hashtbl.Make buckets by the low bits). *)
module Prefix_tbl = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal

  let hash l =
    let h = List.fold_left (fun h x -> (h lxor x) * 0x100000001b3) 0 l in
    h lxor (h lsr 29)
end)
