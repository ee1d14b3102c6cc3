(* Span sets: ascending, disjoint, non-empty [lo, hi) ranges of a
   launch's dimension-0 work items, flat in one int array.  Every
   constructor checks the invariant, so an engine can trust a value and
   only compare its last end with the NDRange ([check]).  A room's span
   set holds one span per row (30,000 on the paper's smallest room), so
   the operations work on the flat array directly. *)

type t = int array

let length s = Array.length s / 2
let lo s i = s.(2 * i)
let hi s i = s.((2 * i) + 1)

let of_flat a ~n =
  let s = if Array.length a = 2 * n then a else Array.sub a 0 (2 * n) in
  let prev = ref 0 in
  for i = 0 to n - 1 do
    if lo s i < !prev || hi s i <= lo s i then
      invalid_arg
        (Printf.sprintf "Vgpu.Spans: [%d, %d) is empty or reversed, or starts below 0 or before \
                         the span before it ends" (lo s i) (hi s i));
    prev := hi s i
  done;
  s

let of_list ranges =
  let ranges = List.filter (fun (a, b) -> a <> b) ranges in
  of_flat (Array.of_list (List.concat_map (fun (a, b) -> [ a; b ]) ranges)) ~n:(List.length ranges)

let full n = if n <= 0 then [||] else [| 0; n |]

let items s =
  let n = ref 0 in
  for i = 0 to length s - 1 do
    n := !n + hi s i - lo s i
  done;
  !n

let to_list s = List.init (length s) (fun i -> (lo s i, hi s i))

(* The first span [i] in [from, n) with [p i], for [p] false and then
   true along the set, by bisection. *)
let search n p ~from =
  let l = ref from and h = ref n in
  while !l < !h do
    let m = (!l + !h) / 2 in
    if p m then h := m else l := m + 1
  done;
  !l

(* The spans that meet [a, b) are consecutive, from the first ending
   after [a] to the last starting before [b]; only those two can need
   clipping.  A range holding every span returns the set itself. *)
let inter s ~lo:a ~hi:b =
  let n = if a < b then length s else 0 in
  let first = search n (fun i -> hi s i > a) ~from:0 in
  let k = search n (fun i -> lo s i >= b) ~from:first - first in
  if k = length s && (k = 0 || (lo s 0 >= a && hi s (k - 1) <= b)) then s
  else begin
    let r = Array.sub s (2 * first) (2 * k) in
    if k > 0 then begin
      r.(0) <- max a r.(0);
      r.((2 * k) - 1) <- min b r.((2 * k) - 1)
    end;
    r
  end

let shift s d = if d = 0 then s else of_flat (Array.map (fun x -> x + d) s) ~n:(length s)

let check s ~n =
  let k = Array.length s in
  if k > 0 && s.(k - 1) > n then
    invalid_arg
      (Printf.sprintf "Vgpu.Spans: a span ends at %d, past the NDRange's %d work items" s.(k - 1) n)
