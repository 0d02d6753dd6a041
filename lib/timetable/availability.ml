(* Free slots are bits packed into an int array, 62 per word: one less
   than an OCaml int's 63, so no word uses the sign bit.  Bits past the
   horizon in the last word stay clear, so [free_count] and [equal] read
   whole words with no masking. *)

let bits_per_word = Sys.int_size - 1

type t = {
  horizon : int;
  words : int array;
}

let create ~horizon =
  if horizon < 0 then invalid_arg "Timetable.Availability.create: negative horizon";
  { horizon; words = Array.make (max 1 ((horizon + bits_per_word - 1) / bits_per_word)) 0 }

let horizon t = t.horizon
let copy t = { t with words = Array.copy t.words }
let equal a b = a.horizon = b.horizon && a.words = b.words

let check t slot =
  if slot < 0 || slot >= t.horizon then
    invalid_arg
      (Printf.sprintf "Timetable.Availability: slot %d out of [0,%d)" slot t.horizon)

(* Unchecked: callers keep [slot] inside the horizon. *)
let is_free t slot = t.words.(slot / bits_per_word) land (1 lsl (slot mod bits_per_word)) <> 0

let set_bit t slot value =
  let w = slot / bits_per_word and mask = 1 lsl (slot mod bits_per_word) in
  t.words.(w) <- (if value then t.words.(w) lor mask else t.words.(w) land lnot mask)

let available t slot =
  check t slot;
  is_free t slot

let free_bits t ~pos ~len =
  if len < 0 || len > bits_per_word || pos < 0 || pos > t.horizon - len then
    invalid_arg
      (Printf.sprintf
         "Timetable.Availability.free_bits: %d slots from %d leave [0,%d) or exceed %d" len
         pos t.horizon bits_per_word);
  if len = 0 then 0
  else
    let w = pos / bits_per_word and b = pos mod bits_per_word in
    let low = t.words.(w) lsr b in
    (* A range past the word's end continues in the next word; [lsl]
       drops what it shifts past the int's top bit, and the mask keeps
       [len] bits. *)
    let x =
      if b + len > bits_per_word then low lor (t.words.(w + 1) lsl (bits_per_word - b))
      else low
    in
    x land ((1 lsl len) - 1)

let set_range t lo hi value =
  if lo <= hi then begin
    check t lo;
    check t hi;
    for slot = lo to hi do
      set_bit t slot value
    done
  end

let set_free t lo hi = set_range t lo hi true
let set_busy t lo hi = set_range t lo hi false

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let free_count t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

(* The first busy slot in [i, stop), or [stop]. *)
let rec next_busy t i stop = if i < stop && is_free t i then next_busy t (i + 1) stop else i

let window_free t ~start ~len =
  start >= 0
  && start + len <= t.horizon
  && (len <= 0 || next_busy t start (start + len) = start + len)

let common = function
  | [] -> invalid_arg "Availability.common: empty list"
  | first :: rest ->
      let acc = copy first in
      List.iter
        (fun t ->
          if t.horizon <> acc.horizon then
            invalid_arg "Availability.common: horizons differ";
          Array.iteri (fun i w -> acc.words.(i) <- acc.words.(i) land w) t.words)
        rest;
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

let run_around t slot =
  if slot < 0 || slot >= t.horizon || not (is_free t slot) then None
  else
    let rec down i = if i > 0 && is_free t (i - 1) then down (i - 1) else i in
    Some (down slot, next_busy t slot t.horizon - 1)

let has_run_in t ~len ~lo ~hi =
  len <= 0
  ||
  let hi = min hi (t.horizon - 1) in
  (* [run] free slots end just before [i]. *)
  let rec scan i run =
    run >= len || (i <= hi && scan (i + 1) (if is_free t i then run + 1 else 0))
  in
  scan (max lo 0) 0

let mask_bytes ~horizon = (horizon + 7) / 8

let add_mask b t =
  let h = horizon t in
  for byte = 0 to mask_bytes ~horizon:h - 1 do
    let v = ref 0 in
    for bit = 0 to 7 do
      let slot = (byte * 8) + bit in
      if slot < h && is_free t slot then v := !v lor (1 lsl bit)
    done;
    Buffer.add_char b (Char.chr !v)
  done

let of_mask s ~pos ~horizon =
  let nbytes = mask_bytes ~horizon in
  if horizon < 0 || pos < 0 || nbytes > String.length s - pos then
    invalid_arg "Timetable.Availability.of_mask: mask truncated";
  let t = create ~horizon in
  for byte = 0 to nbytes - 1 do
    let v = Char.code s.[pos + byte] in
    if v <> 0 then
      for bit = 0 to 7 do
        let slot = (byte * 8) + bit in
        if slot < horizon && v land (1 lsl bit) <> 0 then set_bit t slot true
      done
  done;
  t
