(** C-like abstract syntax for GPU kernels.

    This is the target language of the Lift code generator and the
    program representation executed by the virtual GPU ({!module:Vgpu}).
    It covers the subset of OpenCL C needed by FDTD kernels: scalar
    int/real arithmetic, global-memory buffers, private (register)
    arrays, sequential loops, conditionals and NDRange work-item
    identifiers. *)

(** Scalar types.  [Real] stands for [float] or [double] depending on
    the kernel's {!type:precision}. *)
type ty =
  | Int
  | Real

(** Floating-point width of a kernel; a kernel is generated once per
    precision. *)
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
  | Shr   (** arithmetic shift right; produced by strength reduction *)
  | BAnd  (** bitwise and; produced by strength reduction *)

(** Unary operators.  None of them rounds to float32: a
    [Single]-precision kernel rounds only where it stores to a global real
    buffer, so register values always carry double precision. *)
type unop =
  | Neg
  | Not
  | To_real  (** int -> real conversion *)
  | To_int   (** real -> int truncation *)

(** Math builtins, kept abstract so the interpreter, the C renderer and
    the printer agree on the supported set. *)
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
  | Load of string * expr  (** [name[idx]]: global buffer or private array *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Ternary of expr * expr * expr  (** [cond ? a : b] *)
  | Call of builtin * expr list
  | Global_id of int    (** [get_global_id(d)] *)
  | Global_size of int  (** [get_global_size(d)] *)
  | Group_id of int     (** [get_group_id(d)] *)
  | Local_id of int     (** [get_local_id(d)] *)
  | Local_size of int   (** [get_local_size(d)] *)

type stmt =
  | Decl of ty * string * expr option
  | Decl_arr of ty * string * int  (** private array of static length *)
  | Decl_local of ty * string * int
      (** work-group local array of static length; must appear at the
          top level of the body before any use, and is zeroed once per
          work-group *)
  | Assign of string * expr
  | Store of string * expr * expr  (** [name[idx] = value] *)
  | If of expr * stmt list * stmt list
  | For of for_loop
  | Barrier
      (** work-group barrier (local memory fence): every work-item of a
          group must reach the same dynamic barrier instance *)
  | Comment of string

and for_loop = {
  var : string;
  init : expr;
  bound : expr;  (** loop while [var < bound] *)
  step : expr;
  body : stmt list;
}

type param_kind =
  | Global_buf    (** [__global] pointer *)
  | Scalar_param

(** Device storage of a global buffer.  [U8] stores an [Int] buffer as
    unsigned bytes, like an OpenCL [uchar *] parameter: a load
    zero-extends and a store keeps the low 8 bits (it wraps mod 256).
    The values a kernel computes with are the same ints either way, so
    {!module:Opt}, {!module:Check} and {!module:Footprint} ignore the
    attribute; the engines and the C renderers honour it, and it is
    part of the kernel value, hence of every digest-keyed cache. *)
type storage =
  | Word  (** one word per element (the default) *)
  | U8  (** one unsigned byte per element *)

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
  global_size : expr list;
      (** NDRange extent per dimension, as expressions over scalar
          parameters; may have fewer than 3 entries. *)
  local_size : int list;
      (** Work-group size per dimension, as static ints.  [[]] selects
          the flat execution model (no groups, no local memory, barriers
          are no-ops, [Group_id d = Global_id d] and [Local_id d = 0]);
          when non-empty, every launch dimension must be divisible by
          the corresponding entry (missing trailing dimensions default
          to 1). *)
}

(** {1 Construction helpers} *)

val int_lit : int -> expr
val real_lit : float -> expr
val var : string -> expr
val load : string -> expr -> expr

val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( *: ) : expr -> expr -> expr
val ( /: ) : expr -> expr -> expr
val ( %: ) : expr -> expr -> expr
val ( <: ) : expr -> expr -> expr
val ( <=: ) : expr -> expr -> expr
val ( >: ) : expr -> expr -> expr
val ( >=: ) : expr -> expr -> expr
val ( =: ) : expr -> expr -> expr
val ( <>: ) : expr -> expr -> expr
val ( &&: ) : expr -> expr -> expr
val ( ||: ) : expr -> expr -> expr

(** [for_ v ~from ~below ?step body] builds a counted loop. *)
val for_ : string -> from:expr -> below:expr -> ?step:expr -> stmt list -> stmt

(** [param ?kind name ty] builds a kernel parameter (a global buffer by
    default) with [Word] storage. *)
val param : ?kind:param_kind -> string -> ty -> param

val with_u8 : string -> kernel -> kernel
(** [with_u8 name k] is [k] with its global [Int] buffer parameter
    [name] stored as [U8]; [k] unchanged (a copy) when it has no such
    parameter. *)

(** {1 Work-group geometry} *)

val grouped : kernel -> bool
(** [local_size <> []]: the kernel uses the work-group execution tier. *)

val local3 : kernel -> int array
(** Work-group size padded to 3 dimensions (1 for missing entries).
    @raise Invalid_argument on more than 3 dims or a non-positive
    entry. *)

val group_counts : kernel -> global:int array -> int array
(** Per-dimension work-group counts for a padded 3-wide launch size.
    @raise Invalid_argument when a launch dimension is not divisible by
    the work-group size. *)

val contains_barrier : stmt list -> bool
(** Whether any statement (at any depth) is a [Barrier]. *)

val stores_to : string -> stmt list -> bool
(** Whether any statement (at any depth) stores to the named array. *)

(** {1 Simplification}

    Constant folding, light algebraic identities ([x+0], [x*1], constant
    conditionals) and bit-exact strength reduction ([Div]/[Mod] by a
    power of two on provably non-negative int operands, real division by
    an exact power of two); keeps generated index expressions readable
    and fast to interpret.  Semantics-preserving (property-tested).
    This is the algebraic-rule layer of the {!module:Opt} pass
    pipeline. *)

val is_nonneg : expr -> bool
(** Syntactic proof that an expression is a non-negative integer (and
    hence int-typed); gates the truncating-division strength
    reductions. *)

val simplify : expr -> expr
val simplify_stmt : stmt -> stmt
val simplify_kernel : kernel -> kernel

val eval_int : (string -> int option) -> expr -> int option
(** [eval_int lookup e] is the value of an integer size expression:
    literals, names through [lookup], and [+ - * / %].  [None] for any
    other form, an unresolved name or a zero divisor.  [e] is not
    simplified first; callers that accept unsimplified forms apply
    {!simplify} themselves. *)

val offset_global_id : ?param_name:string -> kernel -> kernel
(** Ranged-launch variant of a 1-D kernel: appends a scalar int
    parameter (default ["goff"]) and rewrites every [get_global_id(0)]
    to [get_global_id(0) + goff], so launching [count] work-items with
    [goff = lo] covers exactly the flat index range [lo, lo + count) —
    the interior/frontier decomposition of the sharded backend.  The
    variant must be launched with an explicit NDRange; its [global_size]
    is a deliberately unresolvable placeholder.
    @raise Invalid_argument if the kernel already has such a parameter. *)
