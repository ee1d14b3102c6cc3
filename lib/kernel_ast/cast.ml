(* C-like abstract syntax for GPU kernels.

   This is the target of the Lift code generator and the program
   representation executed by the virtual GPU.  It covers the subset of
   OpenCL C needed by FDTD room-acoustics kernels: scalar int/real
   arithmetic, global-memory buffers, private (register) arrays, sequential
   [for] loops, conditionals and NDRange work-item identifiers. *)

type ty =
  | Int
  | Real

(* A kernel is generated once per floating-point precision; [Real] stands
   for [float] or [double] depending on [kernel.precision]. *)
type precision =
  | Single
  | Double

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
  | Shr   (* arithmetic shift right; produced by strength reduction only *)
  | BAnd  (* bitwise and; produced by strength reduction only *)

type unop =
  | Neg
  | Not
  | To_real (* int -> real conversion *)
  | To_int  (* real -> int truncation *)

(* Math builtins kept abstract so the interpreter, the C renderer and the
   printer agree on the supported set. *)
type builtin =
  | Sqrt
  | Fabs
  | Exp
  | Log
  | Sin
  | Cos
  | Floor
  | Fmin
  | Fmax

type expr =
  | Int_lit of int
  | Real_lit of float
  | Var of string
  | Load of string * expr          (* name[idx]; global buffer or private array *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Ternary of expr * expr * expr  (* cond ? a : b *)
  | Call of builtin * expr list
  | Global_id of int               (* get_global_id(d) *)
  | Global_size of int             (* get_global_size(d) *)

type stmt =
  | Decl of ty * string * expr option
  | Decl_arr of ty * string * int         (* private array of static length *)
  | Assign of string * expr
  | Store of string * expr * expr         (* name[idx] = value *)
  | If of expr * stmt list * stmt list
  | For of for_loop
  | Comment of string

and for_loop = {
  var : string;
  init : expr;
  bound : expr;   (* loop while var < bound *)
  step : expr;
  body : stmt list;
}

type param_kind =
  | Global_buf   (* __global pointer *)
  | Scalar_param

(* How a global buffer is stored on the device.  [U8] holds an [Int]
   buffer as unsigned bytes (OpenCL [uchar *]): loads zero-extend,
   stores keep the low 8 bits.  The values a kernel computes with are
   the same ints either way, so only the engines and renderers look at
   it. *)
type storage =
  | Word
  | U8

type param = {
  p_name : string;
  p_ty : ty;
  p_kind : param_kind;
  p_storage : storage;
}

type kernel = {
  name : string;
  params : param list;
  body : stmt list;
  precision : precision;
  (* Global work size per dimension, as expressions over scalar params.
     Dimension list may be shorter than 3. *)
  global_size : expr list;
  (* Always [[]]: every kernel runs as a flat NDRange.  The field stays
     so existing record literals keep compiling; [launch_dims] refuses
     any other value. *)
  local_size : int list;
}

let int_lit n = Int_lit n
let real_lit r = Real_lit r
let var v = Var v
let load buf idx = Load (buf, idx)

let ( +: ) a b = Binop (Add, a, b)
let ( -: ) a b = Binop (Sub, a, b)
let ( *: ) a b = Binop (Mul, a, b)
let ( /: ) a b = Binop (Div, a, b)
let ( %: ) a b = Binop (Mod, a, b)
let ( <: ) a b = Binop (Lt, a, b)
let ( <=: ) a b = Binop (Le, a, b)
let ( >: ) a b = Binop (Gt, a, b)
let ( >=: ) a b = Binop (Ge, a, b)
let ( =: ) a b = Binop (Eq, a, b)
let ( <>: ) a b = Binop (Ne, a, b)
let ( &&: ) a b = Binop (And, a, b)
let ( ||: ) a b = Binop (Or, a, b)

let for_ var ~from ~below ?(step = Int_lit 1) body =
  For { var; init = from; bound = below; step; body }

let param ?(kind = Global_buf) name ty =
  { p_name = name; p_ty = ty; p_kind = kind; p_storage = Word }

(* Whether any statement of [body], at any depth, stores to [name]. *)
let rec stores_to name body =
  List.exists
    (function
      | Store (b, _, _) -> b = name
      | If (_, t, f) -> stores_to name t || stores_to name f
      | For l -> stores_to name l.body
      | Decl _ | Decl_arr _ | Assign _ | Comment _ -> false)
    body

(* The kernel with global int buffer [name] stored as bytes; unchanged
   when it has no such parameter. *)
let with_u8 name k =
  {
    k with
    params =
      List.map
        (fun p ->
          if p.p_name = name && p.p_kind = Global_buf && p.p_ty = Int then
            { p with p_storage = U8 }
          else p)
        k.params;
  }

(* The NDRange rank rule every engine and [Check] apply: a kernel
   declares as many dimensions as its [global_size] has entries, at most
   three, and a launch may add only trailing 1s beyond them.  A missing
   dimension counts as 1.  A kernel with a work-group size is refused
   first: every kernel runs as a flat NDRange. *)

exception Ndrange_rank of { kernel : string; dims : int; global : int list }
exception Work_group_size of { kernel : string; local_size : int list }

let ints l = String.concat "; " (List.map string_of_int l)

let () =
  Printexc.register_printer (function
    | Ndrange_rank { kernel; dims; global } ->
        Some
          (Printf.sprintf "Ndrange_rank: kernel %s declares %d NDRange dimension(s), launched with [%s]"
             kernel dims (ints global))
    | Work_group_size { kernel; local_size } ->
        Some
          (Printf.sprintf
             "Work_group_size: kernel %s declares local_size [%s]; kernels run as flat NDRanges \
              (local_size = [])"
             kernel (ints local_size))
    | _ -> None)

let launch_dims k =
  if k.local_size <> [] then
    raise (Work_group_size { kernel = k.name; local_size = k.local_size });
  min 3 (List.length k.global_size)

(* Top-level, so a check on a steady launch allocates nothing. *)
let rec ndrange_ok dims d = function
  | [] -> true
  | n :: rest -> (d < dims || n = 1) && ndrange_ok dims (d + 1) rest

let check_ndrange k ~global =
  let dims = launch_dims k in
  if not (ndrange_ok dims 0 global) then raise (Ndrange_rank { kernel = k.name; dims; global })

(* Syntactic proof that an expression is a non-negative integer.  Only
   shapes whose leaves are non-negative int literals, NDRange ids/sizes or
   comparison results qualify, so a [true] answer also implies the
   expression is int-typed.  This gates the [Div]/[Mod] by power-of-two
   strength reductions: C truncating division disagrees with shifts and
   masks on negative operands. *)
let rec is_nonneg e =
  match e with
  | Int_lit n -> n >= 0
  | Global_id _ | Global_size _ -> true
  | Unop (Not, _) -> true
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) -> true
  | Binop ((Add | Mul | Div | Mod), a, b) -> is_nonneg a && is_nonneg b
  | Binop (Shr, a, Int_lit k) -> is_nonneg a && k >= 0
  | Binop (BAnd, a, b) -> is_nonneg a || is_nonneg b
  | Ternary (_, a, b) -> is_nonneg a && is_nonneg b
  | _ -> false

let is_pow2_int y = y > 1 && y land (y - 1) = 0

let ilog2 y =
  let rec go k n = if n <= 1 then k else go (k + 1) (n lsr 1) in
  go 0 y

(* [c] is an exact (finite, non-zero) power of two whose reciprocal is
   also finite; dividing by such a constant and multiplying by its
   reciprocal are both correctly rounded scalings by the same exact
   value, hence bit-identical. *)
let is_pow2_real c =
  c <> 0. && Float.is_finite c
  && Float.abs (fst (Float.frexp c)) = 0.5
  && Float.is_finite (1. /. c)

(* Constant folding and light algebraic simplification.  The code
   generator produces index expressions with many [x + 0] / [x * 1]
   patterns; folding them keeps the emitted OpenCL readable and speeds up
   the interpreter.  This is the algebraic-rule layer of the optimizer
   pipeline ([Opt]); strength reductions that change the operator
   ([Div]/[Mod] by powers of two, real division by an exact power of two)
   live here too, gated so they stay bit-for-bit exact. *)
let rec simplify e =
  match e with
  | Int_lit _ | Real_lit _ | Var _ | Global_id _ | Global_size _ -> e
  | Load (b, i) -> Load (b, simplify i)
  | Unop (op, a) -> (
      let a = simplify a in
      match (op, a) with
      | Neg, Int_lit n -> Int_lit (-n)
      | Neg, Real_lit r -> Real_lit (-.r)
      | To_real, Int_lit n -> Real_lit (float_of_int n)
      | To_int, Real_lit r -> Int_lit (int_of_float r)
      | Not, Int_lit n -> Int_lit (if n = 0 then 1 else 0)
      | _ -> Unop (op, a))
  | Ternary (c, a, b) -> (
      let c = simplify c in
      match c with
      | Int_lit 0 -> simplify b
      | Int_lit _ -> simplify a
      | _ -> Ternary (c, simplify a, simplify b))
  | Call (f, args) -> Call (f, List.map simplify args)
  | Binop (op, a, b) -> (
      let a = simplify a and b = simplify b in
      match (op, a, b) with
      | Add, Int_lit x, Int_lit y -> Int_lit (x + y)
      | Sub, Int_lit x, Int_lit y -> Int_lit (x - y)
      | Mul, Int_lit x, Int_lit y -> Int_lit (x * y)
      | Div, Int_lit x, Int_lit y when y <> 0 -> Int_lit (x / y)
      | Mod, Int_lit x, Int_lit y when y <> 0 -> Int_lit (x mod y)
      | Add, Real_lit x, Real_lit y -> Real_lit (x +. y)
      | Sub, Real_lit x, Real_lit y -> Real_lit (x -. y)
      | Mul, Real_lit x, Real_lit y -> Real_lit (x *. y)
      | Shr, Int_lit x, Int_lit y when y >= 0 && y < 62 -> Int_lit (x asr y)
      | BAnd, Int_lit x, Int_lit y -> Int_lit (x land y)
      | Add, Int_lit 0, e | Add, e, Int_lit 0 -> e
      | Sub, e, Int_lit 0 -> e
      | Mul, Int_lit 1, e | Mul, e, Int_lit 1 -> e
      | Mul, Int_lit 0, _ | Mul, _, Int_lit 0 -> Int_lit 0
      | Div, e, Int_lit 1 -> e
      | Add, Binop (Add, e, Int_lit x), Int_lit y -> simplify (Binop (Add, e, Int_lit (x + y)))
      (* Literal-chain reassociation over mixed +/- , int only
         (reassociating real sums is not bit-exact); [is_nonneg] doubles
         as the int-typed proof. *)
      | Sub, Binop (Add, e, Int_lit x), Int_lit y when is_nonneg e ->
          simplify (Binop (Add, e, Int_lit (x - y)))
      | Add, Binop (Sub, e, Int_lit x), Int_lit y when is_nonneg e ->
          simplify (Binop (Add, e, Int_lit (y - x)))
      | Sub, Binop (Sub, e, Int_lit x), Int_lit y when is_nonneg e ->
          simplify (Binop (Sub, e, Int_lit (x + y)))
      (* Strength reduction; the [is_nonneg] proof keeps truncating
         division/modulo semantics intact (see above) and implies the
         operand is int-typed. *)
      | Div, e, Int_lit y when is_pow2_int y && is_nonneg e ->
          Binop (Shr, e, Int_lit (ilog2 y))
      | Mod, e, Int_lit y when is_pow2_int y && is_nonneg e ->
          Binop (BAnd, e, Int_lit (y - 1))
      | Div, e, Real_lit c when is_pow2_real c && c <> 1. ->
          Binop (Mul, e, Real_lit (1. /. c))
      | Lt, Int_lit x, Int_lit y -> Int_lit (if x < y then 1 else 0)
      | Le, Int_lit x, Int_lit y -> Int_lit (if x <= y then 1 else 0)
      | Gt, Int_lit x, Int_lit y -> Int_lit (if x > y then 1 else 0)
      | Ge, Int_lit x, Int_lit y -> Int_lit (if x >= y then 1 else 0)
      | Eq, Int_lit x, Int_lit y -> Int_lit (if x = y then 1 else 0)
      | Ne, Int_lit x, Int_lit y -> Int_lit (if x <> y then 1 else 0)
      | And, Int_lit 0, _ | And, _, Int_lit 0 -> Int_lit 0
      | And, Int_lit _, e | And, e, Int_lit _ -> e
      | Or, Int_lit 0, e | Or, e, Int_lit 0 -> e
      | _ -> Binop (op, a, b))

let rec simplify_stmt s =
  match s with
  | Decl (t, v, e) -> Decl (t, v, Option.map simplify e)
  | Decl_arr _ | Comment _ -> s
  | Assign (v, e) -> Assign (v, simplify e)
  | Store (b, i, e) -> Store (b, simplify i, simplify e)
  | If (c, t, f) -> (
      match simplify c with
      | Int_lit 0 -> If (Int_lit 0, [], List.map simplify_stmt f)
      | c -> If (c, List.map simplify_stmt t, List.map simplify_stmt f))
  | For l ->
      For
        {
          l with
          init = simplify l.init;
          bound = simplify l.bound;
          step = simplify l.step;
          body = List.map simplify_stmt l.body;
        }

let simplify_kernel k =
  {
    k with
    body = List.map simplify_stmt k.body;
    global_size = List.map simplify k.global_size;
  }

(* The one evaluator of integer size expressions (NDRange extents, loop
   bounds): no simplification, so per-launch callers pay none. *)
let rec eval_int lookup = function
  | Int_lit n -> Some n
  | Var v -> lookup v
  | Binop (((Add | Sub | Mul | Div | Mod) as op), a, b) -> (
      match (eval_int lookup a, eval_int lookup b, op) with
      | Some x, Some y, Add -> Some (x + y)
      | Some x, Some y, Sub -> Some (x - y)
      | Some x, Some y, Mul -> Some (x * y)
      | Some x, Some y, Div when y <> 0 -> Some (x / y)
      | Some x, Some y, Mod when y <> 0 -> Some (x mod y)
      | _ -> None)
  | _ -> None

(* Ranged-launch variant of a 1-D kernel: append a scalar int parameter
   (default ["goff"]) and rewrite every [get_global_id(0)] to
   [get_global_id(0) + goff], so launching [count] work-items with
   [goff = lo] covers exactly the flat index range [lo, lo + count).
   This is how the sharded backend cuts a volume kernel into an interior
   launch plus thin frontier launches without touching its body logic.
   The variant must be launched with an explicit NDRange ([count]); its
   [global_size] field is a placeholder variable that no scalar
   resolves, so accidentally launching it full-range fails loudly. *)
let offset_global_id ?(param_name = "goff") (k : kernel) =
  if List.exists (fun p -> p.p_name = param_name) k.params then
    invalid_arg
      (Printf.sprintf "Cast.offset_global_id: kernel %s already has a parameter %s" k.name
         param_name);
  let rec rw e =
    match e with
    | Global_id 0 -> Binop (Add, Global_id 0, Var param_name)
    | Int_lit _ | Real_lit _ | Var _ | Global_id _ | Global_size _ -> e
    | Load (b, i) -> Load (b, rw i)
    | Binop (op, a, b) -> Binop (op, rw a, rw b)
    | Unop (op, a) -> Unop (op, rw a)
    | Ternary (c, a, b) -> Ternary (rw c, rw a, rw b)
    | Call (f, args) -> Call (f, List.map rw args)
  in
  let rec rws s =
    match s with
    | Decl (t, v, e) -> Decl (t, v, Option.map rw e)
    | Decl_arr _ | Comment _ -> s
    | Assign (v, e) -> Assign (v, rw e)
    | Store (b, i, e) -> Store (b, rw i, rw e)
    | If (c, t, f) -> If (rw c, List.map rws t, List.map rws f)
    | For l ->
        For
          {
            l with
            init = rw l.init;
            bound = rw l.bound;
            step = rw l.step;
            body = List.map rws l.body;
          }
  in
  {
    k with
    params = k.params @ [ param ~kind:Scalar_param param_name Int ];
    body = List.map rws k.body;
    global_size = [ Var (param_name ^ "_range") ];
  }
