(* Interval / affine abstract domain shared by Check and Footprint. *)

(* -- Intervals ------------------------------------------------------- *)

type itv = { lo : int option; hi : int option }

let top_itv = { lo = None; hi = None }
let point n = { lo = Some n; hi = Some n }
let bool_itv = { lo = Some 0; hi = Some 1 }

let map2_opt f a b = match (a, b) with Some x, Some y -> Some (f x y) | _ -> None

let itv_add a b = { lo = map2_opt ( + ) a.lo b.lo; hi = map2_opt ( + ) a.hi b.hi }
let itv_neg a = { lo = Option.map (fun h -> -h) a.hi; hi = Option.map (fun l -> -l) a.lo }
let itv_sub a b = itv_add a (itv_neg b)

let itv_mul a b =
  match (a.lo, a.hi, b.lo, b.hi) with
  | Some al, Some ah, Some bl, Some bh ->
      let ps = [ al * bl; al * bh; ah * bl; ah * bh ] in
      { lo = Some (List.fold_left min max_int ps); hi = Some (List.fold_left max min_int ps) }
  | _ -> top_itv

(* Truncating division by a positive constant, non-negative operand. *)
let itv_div_pos a c =
  match a.lo with
  | Some l when l >= 0 -> { lo = Some (l / c); hi = Option.map (fun h -> h / c) a.hi }
  | _ -> top_itv

let itv_join a b =
  {
    lo = map2_opt min a.lo b.lo;
    hi = map2_opt max a.hi b.hi;
  }

let itv_within a ~lo ~hi =
  match (a.lo, a.hi) with Some l, Some h -> l >= lo && h <= hi | _ -> false

let pp_itv ppf a =
  let s = function Some n -> string_of_int n | None -> "?" in
  Fmt.pf ppf "[%s, %s]" (s a.lo) (s a.hi)

(* -- Affine forms ---------------------------------------------------- *)

type term =
  | Tgid of int
  | Tloop of int  (* unique id per syntactic loop *)
  | Tparam of string  (* unknown but launch-uniform scalar parameter *)

(* [coeffs] sorted by term, all coefficients non-zero. *)
type aff = { base : int; coeffs : (term * int) list }

let aff_const n = { base = n; coeffs = [] }
let aff_of_term t = { base = 0; coeffs = [ (t, 1) ] }

let aff_add a b =
  let rec merge xs ys =
    match (xs, ys) with
    | [], r | r, [] -> r
    | (tx, cx) :: xs', (ty, cy) :: ys' ->
        if tx = ty then
          let c = cx + cy in
          if c = 0 then merge xs' ys' else (tx, c) :: merge xs' ys'
        else if compare tx ty < 0 then (tx, cx) :: merge xs' ys
        else (ty, cy) :: merge xs ys'
  in
  { base = a.base + b.base; coeffs = merge a.coeffs b.coeffs }

let aff_scale k a =
  if k = 0 then aff_const 0
  else { base = k * a.base; coeffs = List.map (fun (t, c) -> (t, k * c)) a.coeffs }

let aff_neg a = aff_scale (-1) a
let aff_sub a b = aff_add a (aff_neg b)

let aff_coeff t a = Option.value ~default:0 (List.assoc_opt t a.coeffs)
let aff_shift t k a = { a with base = a.base + (k * aff_coeff t a) }
let is_const a = a.coeffs = []

let pp_term ppf = function
  | Tgid d -> Fmt.pf ppf "gid%d" d
  | Tloop id -> Fmt.pf ppf "loop%d" id
  | Tparam v -> Fmt.string ppf v

let pp_aff ppf a =
  Fmt.pf ppf "%d" a.base;
  List.iter (fun (t, c) -> Fmt.pf ppf " %s %d*%a" (if c < 0 then "-" else "+") (abs c) pp_term t) a.coeffs

(* -- Abstract values -------------------------------------------------- *)

type absval = {
  v_itv : itv;
  v_aff : aff option;
  v_tainted : bool;  (* depends on data loaded from memory *)
}

let top = { v_itv = top_itv; v_aff = None; v_tainted = false }
let taint v = { v with v_tainted = true }

let known n = { v_itv = point n; v_aff = Some (aff_const n); v_tainted = false }

let join a b =
  {
    v_itv = itv_join a.v_itv b.v_itv;
    v_aff = (match (a.v_aff, b.v_aff) with Some x, Some y when x = y -> Some x | _ -> None);
    v_tainted = a.v_tainted || b.v_tainted;
  }

(* -- The abstract transfer function ------------------------------------ *)

type launch = {
  l_global : int option array;  (* 3 dims; missing dims are 1 *)
  l_param : string -> int option;
}

let term_itv l = function
  | Tgid d when d < 3 -> { lo = Some 0; hi = Option.map (fun n -> n - 1) l.l_global.(d) }
  | Tparam v -> ( match l.l_param v with Some n -> point n | None -> top_itv)
  | Tgid _ | Tloop _ -> top_itv

let of_term l t = { v_itv = term_itv l t; v_aff = Some (aff_of_term t); v_tainted = false }
let const v = match v.v_aff with Some { base; coeffs = [] } -> Some base | _ -> None

(* The untainted result of [a op b]; the caller adds the operands' taint. *)
let binop (op : Cast.binop) a b =
  match (op, const b) with
  | Add, _ ->
      { top with v_itv = itv_add a.v_itv b.v_itv; v_aff = map2_opt aff_add a.v_aff b.v_aff }
  | Sub, _ ->
      { top with v_itv = itv_sub a.v_itv b.v_itv; v_aff = map2_opt aff_sub a.v_aff b.v_aff }
  | Mul, kb ->
      let v_aff =
        match (const a, kb) with
        | Some k, _ -> Option.map (aff_scale k) b.v_aff
        | None, Some k -> Option.map (aff_scale k) a.v_aff
        | None, None -> None
      in
      { top with v_itv = itv_mul a.v_itv b.v_itv; v_aff }
  | Div, Some c when c > 0 -> { top with v_itv = itv_div_pos a.v_itv c }
  | Mod, Some c when c > 0 ->
      let lo = match a.v_itv.lo with Some l when l >= 0 -> 0 | _ -> -(c - 1) in
      { top with v_itv = { lo = Some lo; hi = Some (c - 1) } }
  | Shr, Some k when k >= 0 && k < 62 -> { top with v_itv = itv_div_pos a.v_itv (1 lsl k) }
  | BAnd, kb -> (
      match (const a, kb) with
      | Some m, _ when m >= 0 -> { top with v_itv = { lo = Some 0; hi = Some m } }
      | _, Some m when m >= 0 -> { top with v_itv = { lo = Some 0; hi = Some m } }
      | _ -> top)
  | (Eq | Ne | Lt | Le | Gt | Ge | And | Or), _ -> { top with v_itv = bool_itv }
  | (Div | Mod | Shr), _ -> top

(* Operands are evaluated left to right, so the hooks see accesses in
   program order. *)
let rec eval l ~var ~load (expr : Cast.expr) =
  let eval = eval l ~var ~load in
  match expr with
  | Int_lit n -> known n
  | Real_lit _ -> top
  | Global_id d -> of_term l (Tgid d)
  | Global_size d -> (
      match if d < 3 then l.l_global.(d) else None with
      | Some n -> known n
      | None -> { top with v_itv = { lo = Some 1; hi = None } })
  | Var v -> (
      match var v with
      | Some av -> av
      | None -> (
          match l.l_param v with
          | Some n -> known n
          | None ->
              (* an unresolved scalar parameter: unknown but launch-uniform,
                 so keep it symbolic *)
              of_term l (Tparam v)))
  | Load (b, i) ->
      load b (eval i);
      taint top
  | Unop (op, a) -> (
      let av = eval a in
      match op with
      | Neg -> { av with v_itv = itv_neg av.v_itv; v_aff = Option.map aff_neg av.v_aff }
      | Not -> { top with v_itv = bool_itv; v_tainted = av.v_tainted }
      | To_real | To_int -> { top with v_tainted = av.v_tainted })
  | Ternary (c, a, b) ->
      let cv = eval c in
      let av = eval a in
      let j = join av (eval b) in
      { j with v_tainted = cv.v_tainted || j.v_tainted }
  | Call (_, args) ->
      let vs = List.map eval args in
      { top with v_tainted = List.exists (fun v -> v.v_tainted) vs }
  | Binop (op, a, b) ->
      let av = eval a in
      let bv = eval b in
      { (binop op av bv) with v_tainted = av.v_tainted || bv.v_tainted }

let rec assigned_vars acc : Cast.stmt list -> string list = function
  | [] -> acc
  | Assign (v, _) :: tl -> assigned_vars (v :: acc) tl
  | If (_, t, f) :: tl -> assigned_vars (assigned_vars (assigned_vars acc t) f) tl
  | For l :: tl -> assigned_vars (assigned_vars (l.var :: acc) l.body) tl
  | _ :: tl -> assigned_vars acc tl
