(* Order statistics over samples. *)

let sorted l = List.sort compare l |> Array.of_list

(* Quartiles as Python's [statistics.quantiles(data, n=4)] computes them
   (the default "exclusive" method), so spreads printed here match those
   computed by any script over the same result files. *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stat.quartiles: no samples";
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.percentile: no samples";
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l))
