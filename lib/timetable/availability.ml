type t = Bitset.t

let create ~horizon = Bitset.create horizon
let horizon = Bitset.length
let copy = Bitset.copy
let equal = Bitset.equal
let available = Bitset.mem
let bits_per_word = Bitset.bits_per_word
let free_bits = Bitset.bits
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

let mask_bytes ~horizon = (horizon + 7) / 8

let add_mask b t =
  let h = horizon t in
  for byte = 0 to mask_bytes ~horizon:h - 1 do
    let v = ref 0 in
    for bit = 0 to 7 do
      let slot = (byte * 8) + bit in
      if slot < h && Bitset.mem t slot then v := !v lor (1 lsl bit)
    done;
    Buffer.add_char b (Char.chr !v)
  done

let of_mask s ~pos ~horizon =
  let nbytes = mask_bytes ~horizon in
  if horizon < 0 || pos < 0 || nbytes > String.length s - pos then
    invalid_arg "Timetable.Availability.of_mask: mask truncated";
  let t = Bitset.create horizon in
  for byte = 0 to nbytes - 1 do
    let v = Char.code s.[pos + byte] in
    if v <> 0 then
      for bit = 0 to 7 do
        let slot = (byte * 8) + bit in
        if slot < horizon && v land (1 lsl bit) <> 0 then Bitset.set t slot
      done
  done;
  t
