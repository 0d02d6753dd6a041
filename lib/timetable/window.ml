let pivots ~horizon ~m =
  if m <= 0 then invalid_arg "Window.pivots: m must be positive";
  let rec go t acc = if t >= horizon then List.rev acc else go (t + m) (t :: acc) in
  go (m - 1) []

let interval ~horizon ~m pivot = (max 0 (pivot - m + 1), min (horizon - 1) (pivot + m - 1))

(* The unique t in [start, start+m-1] with (t+1) mod m = 0. *)
let pivot_of ~m start = ((start + m) / m * m) - 1
