(* Order statistics over float samples. *)

(* Nearest-rank percentile of an ascending array, [q] in [0, 1]. *)
let percentile sorted q =
  match Array.length sorted with
  | 0 -> nan
  | len ->
    let i = int_of_float (ceil (q *. float_of_int len)) - 1 in
    sorted.(max 0 (min (len - 1) i))

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Median with the two middle samples averaged, as Python's
   statistics.median does. *)
let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let p50 a = percentile (sorted a) 0.50
let p99 a = percentile (sorted a) 0.99

(* Median of [f] over a list of trials. *)
let med f l = median (Array.of_list (List.map f l))

(* A growable array. *)
type 'a buf = { mutable data : 'a array; mutable len : int }

let buf () = { data = [||]; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (max 256 (2 * b.len)) x in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len
