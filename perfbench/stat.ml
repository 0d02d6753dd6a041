(* Quantiles and the metric lines every report prints. *)

(* Linear interpolation between closest ranks; [nan] when empty. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* [ratio num den] is 0 when nothing was measured ([den = 0]). *)
let ratio num den = if den = 0. then 0. else num /. den

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

let print_metric m =
  Printf.printf "%-28s %16.6f %-6s %s\n" m.name m.value m.unit_ m.note
