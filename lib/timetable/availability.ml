type t = Bitset.t

let create ~horizon = Bitset.create horizon
let of_bitset b = b
let bits t = t
let horizon = Bitset.length
let copy = Bitset.copy
let available = Bitset.mem
let set_free = Bitset.set_range
let set_busy = Bitset.clear_range
let free_count = Bitset.count

let window_free t ~start ~len =
  start >= 0
  && start + len <= horizon t
  && (len <= 0 || Bitset.next_clear t start >= start + len)

let common = function
  | [] -> invalid_arg "Availability.common: empty list"
  | first :: rest ->
      let acc = Bitset.copy first in
      List.iter (fun t -> Bitset.inter_into ~dst:acc t) rest;
      acc

let windows t ~len =
  let n = horizon t in
  let acc = ref [] in
  for start = n - len downto 0 do
    if window_free t ~start ~len then acc := start :: !acc
  done;
  !acc

let check_schedules ~n schedules =
  if Array.length schedules <> n then
    invalid_arg "Timetable.Availability.check_schedules: need one schedule per vertex";
  Array.iter
    (fun a ->
      if horizon a <> horizon schedules.(0) then
        invalid_arg "Timetable.Availability.check_schedules: schedules disagree on horizon")
    schedules

let run_around = Bitset.run_containing
let has_run_in t ~len ~lo ~hi = Bitset.has_run_of t ~len ~lo ~hi
let pp = Bitset.pp
