(* Bits are packed into an int array, 62 per word: one less than an
   OCaml int's 63, so no word uses the sign bit.  Unused bits of the
   last word are kept at zero so that word-level operations (count,
   equal, is_empty) need no masking. *)

let bits_per_word = Sys.int_size - 1

type t = {
  len : int;
  words : int array;
}

let word_count len = (len + bits_per_word - 1) / bits_per_word

let create len =
  if len < 0 then invalid_arg "Bitset.create: negative length";
  { len; words = Array.make (max 1 (word_count len)) 0 }

let length t = t.len

let copy t = { len = t.len; words = Array.copy t.words }

let check t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Bitset: index %d out of [0,%d)" i t.len)

let set t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let clear t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let bits t ~pos ~len =
  if len < 0 || len > bits_per_word || pos < 0 || pos > t.len - len then
    invalid_arg
      (Printf.sprintf "Bitset.bits: %d bits from %d leave [0,%d) or exceed %d" len pos t.len
         bits_per_word);
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

let set_range t lo hi =
  if lo <= hi then begin
    check t lo;
    check t hi;
    for i = lo to hi do
      let w = i / bits_per_word and b = i mod bits_per_word in
      t.words.(w) <- t.words.(w) lor (1 lsl b)
    done
  end

let clear_range t lo hi =
  if lo <= hi then begin
    check t lo;
    check t hi;
    for i = lo to hi do
      let w = i / bits_per_word and b = i mod bits_per_word in
      t.words.(w) <- t.words.(w) land lnot (1 lsl b)
    done
  end

let fill t b =
  if not b then Array.fill t.words 0 (Array.length t.words) 0
  else begin
    Array.fill t.words 0 (Array.length t.words) 0;
    if t.len > 0 then set_range t 0 (t.len - 1)
  end

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let count t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let equal a b = a.len = b.len && a.words = b.words

let check_same a b =
  if a.len <> b.len then invalid_arg "Bitset: length mismatch"

let map2 op a b =
  check_same a b;
  { len = a.len; words = Array.map2 op a.words b.words }

let inter a b = map2 ( land ) a b
let union a b = map2 ( lor ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

let inter_into ~dst a =
  check_same dst a;
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) land w) a.words

let subset a b =
  check_same a b;
  let n = Array.length a.words in
  let rec go i = i >= n || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1)) in
  go 0

let inter_count a b =
  check_same a b;
  let acc = ref 0 in
  Array.iteri (fun i w -> acc := !acc + popcount (w land b.words.(i))) a.words;
  !acc

let iter f t =
  Array.iteri
    (fun wi w ->
      if w <> 0 then
        for b = 0 to bits_per_word - 1 do
          if w land (1 lsl b) <> 0 then f ((wi * bits_per_word) + b)
        done)
    t.words

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list n l =
  let t = create n in
  List.iter (fun i -> set t i) l;
  t

let next_clear t i =
  let rec go j = if j >= t.len then t.len else if mem t j then go (j + 1) else j in
  go (max i 0)

let prev_clear t i =
  let rec go j = if j < 0 then -1 else if mem t j then go (j - 1) else j in
  go (min i (t.len - 1))

let run_containing t i =
  if i < 0 || i >= t.len || not (mem t i) then None
  else
    let lo = prev_clear t i + 1 in
    let hi = next_clear t i - 1 in
    Some (lo, hi)

let longest_run_in t lo hi =
  let lo = max lo 0 and hi = min hi (t.len - 1) in
  let best = ref 0 and cur = ref 0 in
  for i = lo to hi do
    if mem t i then begin
      incr cur;
      if !cur > !best then best := !cur
    end
    else cur := 0
  done;
  !best

let has_run_of t ~len ~lo ~hi = len <= 0 || longest_run_in t lo hi >= len

let pp ppf t =
  for i = 0 to t.len - 1 do
    Format.pp_print_char ppf (if mem t i then '1' else '0')
  done
