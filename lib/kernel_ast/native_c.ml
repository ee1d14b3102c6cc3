(* Portable-C rendering of kernel ASTs for the native compiled backend.

   Where [Print] emits the OpenCL C *artifact* (the paper's listings),
   this module emits a kernel as a self-contained C99 translation unit
   that the system C compiler turns into a shared object ([Vgpu.Native]
   compiles, caches and dlopens it).  The rendering is semantics-exact
   against the reference interpreter:

   - all real arithmetic is IEEE double ([Vgpu.Buffer] stores doubles
     even for single-precision kernels); single precision rounds on
     store to a global real buffer, exactly like [Exec];
   - ints are [int64_t] (OCaml's 63-bit ints embed exactly); [/], [%],
     [>>] and real->int casts truncate the same way on both sides;
   - global int buffers are OCaml int arrays read and written in place,
     as tagged words: a load untags with an arithmetic shift
     ([(b[i] >> 1)], OCaml's [Long_val]) and a store retags
     ([(int64_t)(((uint64_t)(v) << 1) | 1u)], [Val_long]), so a stored
     value wraps to 63 bits exactly as an OCaml int does.  A byte-stored
     int buffer ([Cast.U8]) is a [uint8_t] vector read and written in
     place: a load zero-extends ([(int64_t)b[i]]) and a store truncates
     ([(uint8_t)(v)], wrapping mod 256 like OpenCL [uchar]).  Private
     int arrays are plain untagged [int64_t];
   - real [Mod] is C [fmod] (= OCaml [Float.rem]); [Fmin]/[Fmax] are
     emitted as helpers replicating OCaml's [Float.min]/[Float.max]
     branch-for-branch (NaN propagation, [-0. < +0.]), not C's
     [fmin]/[fmax] whose NaN behaviour differs;
   - wherever the engines truncate a real to an int ([as_int]), the
     emitted C carries an explicit [(int64_t)] cast — C truthiness of a
     bare double would otherwise diverge from truncate-then-test;
   - [&&]/[||] short-circuit (the interpreter evaluates both operands;
     observably identical on verified kernels).

   The fixed entry ABI (see {!entry_source}) receives the kernel's
   parameters split by kind — real buffers as [double*], int buffers as
   [int64_t*] to their tagged words, byte buffers as [uint8_t*],
   scalars (untagged) in two flat arrays — plus the NDRange sizes and
   the launch's span table ([Vgpu.Spans]: [lo, hi) pairs of tagged
   words, and their count).  The exported entry only unpacks these and
   calls the entry's body once: a [static], always-inlined function
   whose parameters are the kernel's own, one per buffer and scalar,
   then the sizes and the span table.  The buffer parameters carry the
   qualifiers ([const] on read-only buffers, [restrict] under
   [noalias]), since the C compiler honours [restrict] on a function's
   parameters, also once inlined, but not on block-scope pointers loaded
   from an array (gcc 12 compiled those identically with and without
   it).  The work-item loops live inside the body, row-major z/y/x
   exactly like [Exec.launch], one loop per dimension the kernel
   declares ([Cast.launch_dims]); the rank rule makes every other
   dimension 1.  Dimension 0 always runs over the span table: the loop
   visits each span's work items in turn, and a plain launch is the one
   span [0, gsz[0]), so there is one loop form and no second entry for
   span launches.

   An entry is named by the [RK_ENTRY] macro, which the translation unit
   defines before it, and its body by [RK_BODY], which the prelude
   defines as [RK_ENTRY]'s expansion with [_body] appended: one unit can
   hold several entries, and an entry's text, hence the binary cache key
   digesting it, does not depend on the name it is built under or on the
   other entries beside it.

   Body-declared locals are renamed [rk_v<i>_<stem>], numbered in
   declaration order, where the stem drops Lift's gensym suffixes
   ([idx_19_2] -> [idx]).  The source, hence the binary cache key, is a
   function of the kernel's structure only: lifting one program twice
   renders the same C. *)

open Cast

(* How each parameter maps onto the entry ABI, in parameter order: slot
   indices count per category in order of appearance.  The host
   launcher uses this to marshal [Args.t] values, coercing scalars (real
   arg to int param truncates, int arg to real param widens). *)
type binding =
  | Arg_fbuf of int  (** real buffer -> [fb[slot]] *)
  | Arg_ibuf of int  (** int buffer -> [ib[slot]] *)
  | Arg_u8buf of int  (** byte-stored int buffer -> [u8b[slot]] *)
  | Arg_iscalar of int  (** int scalar -> [isc[slot]] *)
  | Arg_rscalar of int  (** real scalar -> [fsc[slot]] *)

let bindings (k : kernel) : binding list =
  let nf = ref 0 and ni = ref 0 and nb = ref 0 and nis = ref 0 and nrs = ref 0 in
  List.map
    (fun p ->
      let next r =
        let s = !r in
        incr r;
        s
      in
      match (p.p_kind, p.p_ty) with
      | Global_buf, Real -> Arg_fbuf (next nf)
      | Global_buf, Int when p.p_storage = U8 -> Arg_u8buf (next nb)
      | Global_buf, Int -> Arg_ibuf (next ni)
      | Scalar_param, Int -> Arg_iscalar (next nis)
      | Scalar_param, Real -> Arg_rscalar (next nrs))
    k.params

(* Identifier hygiene: kernel names come from the code generator and are
   already C identifiers, but they must not collide with C keywords or
   with the renderer's own [rk_]-prefixed temporaries and ABI names. *)
let c_reserved =
  [
    "auto"; "break"; "case"; "char"; "const"; "continue"; "default"; "do";
    "double"; "else"; "enum"; "extern"; "float"; "for"; "goto"; "if";
    "inline"; "int"; "long"; "register"; "restrict"; "return"; "short";
    "signed"; "sizeof"; "static"; "struct"; "switch"; "typedef"; "union";
    "unsigned"; "void"; "volatile"; "while"; "fb"; "ib"; "u8b"; "isc"; "fsc";
    "gsz"; "memset"; "fmod"; "sqrt"; "fabs"; "exp"; "log"; "sin"; "cos";
    "floor"; "signbit";
  ]

let mangle name =
  if List.mem name c_reserved then name ^ "_"
  else if String.length name >= 3 && String.sub name 0 3 = "rk_" then name ^ "_"
  else name

type slot =
  | S_scalar of ty
  | S_gbuf of ty  (* global buffer parameter *)
  | S_gbyte  (* byte-stored global int buffer parameter *)
  | S_parr of ty * int  (* private (work-item local) array *)

type env = {
  slots : (string, slot) Hashtbl.t;
  mutable locals : (string * slot) list;  (* body-declared, reversed scan order *)
  local_ix : (string, int) Hashtbl.t;  (* body-declared local -> declaration index *)
  dims : int;  (* NDRange dimensions declared: [Cast.launch_dims] *)
}

let declare env name s =
  if not (Hashtbl.mem env.slots name) then begin
    Hashtbl.replace env.slots name s;
    env.locals <- (name, s) :: env.locals
  end

(* [launch_dims] refuses a kernel with a work-group size before anything
   is rendered. *)
let build_env (k : kernel) =
  let env =
    { slots = Hashtbl.create 32; locals = []; local_ix = Hashtbl.create 32; dims = launch_dims k }
  in
  List.iter
    (fun p ->
      match p.p_kind with
      | Global_buf when p.p_storage = U8 -> Hashtbl.replace env.slots p.p_name S_gbyte
      | Global_buf -> Hashtbl.replace env.slots p.p_name (S_gbuf p.p_ty)
      | Scalar_param -> Hashtbl.replace env.slots p.p_name (S_scalar p.p_ty))
    k.params;
  let rec scan = function
    | Decl (t, v, _) -> declare env v (S_scalar t)
    | Decl_arr (t, v, n) -> declare env v (S_parr (t, n))
    | If (_, a, b) ->
        List.iter scan a;
        List.iter scan b
    | For l ->
        declare env l.var (S_scalar Int);
        List.iter scan l.body
    | Assign _ | Store _ | Comment _ -> ()
  in
  List.iter scan k.body;
  env.locals <- List.rev env.locals;
  List.iteri (fun i (v, _) -> Hashtbl.replace env.local_ix v i) env.locals;
  env

(* [v] without its trailing [_<digits>] gensym suffixes. *)
let rec stem v =
  match String.rindex_opt v '_' with
  | Some i
    when i > 0
         && i < String.length v - 1
         && String.for_all
              (fun c -> c >= '0' && c <= '9')
              (String.sub v (i + 1) (String.length v - i - 1)) ->
      stem (String.sub v 0 i)
  | _ -> v

(* The C name of a parameter or body-declared local. *)
let cname env v =
  match Hashtbl.find_opt env.local_ix v with
  | Some i -> Printf.sprintf "rk_v%d_%s" i (stem v)
  | None -> mangle v

(* Expression typing by C promotion rules: builtin calls are real,
   comparisons and logic are int. *)
let rec type_of env (e : expr) : ty =
  match e with
  | Int_lit _ | Global_id _ | Global_size _ -> Int
  | Real_lit _ -> Real
  | Var v -> (
      match Hashtbl.find_opt env.slots v with
      | Some (S_scalar t) -> t
      | Some _ -> failwith (Printf.sprintf "native_c: %s is not a scalar" v)
      | None -> failwith (Printf.sprintf "native_c: unbound variable %s" v))
  | Load (b, _) -> (
      match Hashtbl.find_opt env.slots b with
      | Some (S_gbuf t | S_parr (t, _)) -> t
      | Some S_gbyte -> Int
      | Some _ -> failwith (Printf.sprintf "native_c: %s is not an array" b)
      | None -> failwith (Printf.sprintf "native_c: unbound buffer %s" b))
  | Unop (To_real, _) -> Real
  | Unop ((To_int | Not), _) -> Int
  | Unop (Neg, a) -> type_of env a
  | Ternary (_, a, b) -> (
      match (type_of env a, type_of env b) with Int, Int -> Int | _ -> Real)
  | Call (_, _) -> Real
  | Binop ((Add | Sub | Mul | Div | Mod), a, b) -> (
      match (type_of env a, type_of env b) with Int, Int -> Int | _ -> Real)
  | Binop (_, _, _) -> Int

(* C precedence levels, as in [Print]. *)
let binop_prec = function
  | Mul | Div | Mod -> 10
  | Add | Sub -> 9
  | Shr -> 8
  | Lt | Le | Gt | Ge -> 7
  | Eq | Ne -> 6
  | BAnd -> 5
  | And -> 4
  | Or -> 3

let builtin_name = function
  | Sqrt -> "sqrt"
  | Fabs -> "fabs"
  | Exp -> "exp"
  | Log -> "log"
  | Sin -> "sin"
  | Cos -> "cos"
  | Floor -> "floor"
  | Fmin -> "rk_fmin"  (* OCaml Float.min semantics, see preamble *)
  | Fmax -> "rk_fmax"

let real_lit_c r =
  if Float.is_nan r then "(0.0/0.0)"
  else if r = Float.infinity then "(1.0/0.0)"
  else if r = Float.neg_infinity then "(-1.0/0.0)"
  else
    let s = Printf.sprintf "%.17g" r in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

(* Emit [e] as a C expression of its own type into [buf], parenthesised
   for an enclosing precedence [prec].  [as_int] is the one coercion
   point: an explicit truncating cast where the engines truncate.
   Int-in-real position needs nothing — C's implicit int64->double
   promotion is the engines' exact widening. *)
let rec emit env buf ~prec (e : expr) =
  let add = Buffer.add_string buf in
  match e with
  | Int_lit n ->
      add (if n < 0 then Printf.sprintf "(%dLL)" n else Printf.sprintf "%dLL" n)
  | Real_lit r -> add (real_lit_c r)
  | Var v -> add (cname env v)
  | Global_id d when d >= env.dims ->
      (* no loop runs over an undeclared dimension: its id is 0 *)
      add "0LL"
  | Global_id d -> add (Printf.sprintf "rk_g%d" d)
  | Global_size d -> add (Printf.sprintf "rk_gs%d" d)
  | Load (b, i) -> (
      match Hashtbl.find_opt env.slots b with
      | Some (S_gbuf Int) ->
          (* a tagged OCaml word, untagged in place (Long_val) *)
          add "(";
          add (cname env b);
          add "[";
          as_int env buf i;
          add "] >> 1)"
      | Some S_gbyte ->
          (* an unsigned byte, zero-extended *)
          add "((int64_t)";
          add (cname env b);
          add "[";
          as_int env buf i;
          add "])"
      | _ ->
          add (cname env b);
          add "[";
          as_int env buf i;
          add "]")
  | Call (f, args) ->
      add (builtin_name f);
      add "(";
      List.iteri
        (fun i a ->
          if i > 0 then add ", ";
          as_real env buf a)
        args;
      add ")"
  | Unop (Neg, a) ->
      add "(-";
      emit env buf ~prec:11 a;
      add ")"
  | Unop (Not, a) ->
      (* !x on the truncated int, as in the engines *)
      add "(!";
      as_int_atom env buf a;
      add ")"
  | Unop (To_real, a) ->
      add "(double)(";
      emit env buf ~prec:0 a;
      add ")"
  | Unop (To_int, a) ->
      (* truncate through double, as the interpreter's int_of_float
         does for a real operand *)
      add "(int64_t)(double)(";
      emit env buf ~prec:0 a;
      add ")"
  | Ternary (c, a, b) ->
      if prec > 1 then add "(";
      as_int_atom env buf c;
      add " ? ";
      emit env buf ~prec:2 a;
      add " : ";
      emit env buf ~prec:1 b;
      if prec > 1 then add ")"
  | Binop (Mod, a, b) when type_of env e = Real ->
      add "fmod(";
      as_real env buf a;
      add ", ";
      as_real env buf b;
      add ")"
  | Binop (((And | Or) as op), a, b) ->
      let p = binop_prec op in
      if prec > p then add "(";
      as_int_atom env buf a;
      add (if op = And then " && " else " || ");
      as_int_atom env buf b;
      if prec > p then add ")"
  | Binop (((Shr | BAnd) as op), a, b) ->
      let p = binop_prec op in
      if prec > p then add "(";
      as_int_prec env buf ~prec:p a;
      add (if op = Shr then " >> " else " & ");
      as_int_prec env buf ~prec:(p + 1) b;
      if prec > p then add ")"
  | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), a, b) ->
      (* mixed comparisons promote the int side to double, exactly the
         engines' [as_real]-both-sides path *)
      let p = binop_prec op in
      if prec > p then add "(";
      emit env buf ~prec:p a;
      add
        (match op with
        | Eq -> " == "
        | Ne -> " != "
        | Lt -> " < "
        | Le -> " <= "
        | Gt -> " > "
        | _ -> " >= ");
      emit env buf ~prec:(p + 1) b;
      if prec > p then add ")"
  | Binop (op, a, b) ->
      (* arithmetic: both-int stays int64, otherwise C promotes the int
         side to double — the engines' exact widening *)
      let p = binop_prec op in
      if prec > p then add "(";
      emit env buf ~prec:p a;
      add
        (match op with
        | Add -> " + "
        | Sub -> " - "
        | Mul -> " * "
        | Div -> " / "
        | Mod -> " % "
        | _ -> assert false);
      emit env buf ~prec:(p + 1) b;
      if prec > p then add ")"

(* [e] in an int context: emit directly when int-typed, else the
   engines' truncation as an explicit cast (a cast is self-delimiting,
   so [prec] variants only matter for the int-typed path). *)
and as_int env buf e = as_int_prec env buf ~prec:0 e

and as_int_prec env buf ~prec e =
  if type_of env e = Int then emit env buf ~prec e
  else begin
    Buffer.add_string buf "(int64_t)(";
    emit env buf ~prec:0 e;
    Buffer.add_string buf ")"
  end

and as_int_atom env buf e = as_int_prec env buf ~prec:11 e

and as_real env buf e = emit env buf ~prec:0 e

let expr_c env e =
  let buf = Buffer.create 64 in
  emit env buf ~prec:0 e;
  Buffer.contents buf

let as_int_c env e =
  let buf = Buffer.create 64 in
  as_int env buf e;
  Buffer.contents buf

let c_ty = function Int -> "int64_t" | Real -> "double"

let comment_c c =
  (* keep comments but never let them terminate early *)
  let buf = Buffer.create (String.length c + 8) in
  String.iteri
    (fun i ch ->
      if ch = '/' && i > 0 && c.[i - 1] = '*' then Buffer.add_string buf " /"
      else Buffer.add_char buf ch)
    c;
  Buffer.contents buf

(* Statement emission.  All declarations are hoisted to body scope
   (built from [env.locals]); the statement stream only assigns.  A
   [Decl] with no initializer zeroes its variable like the reference
   interpreter; [Decl_arr] re-zeroes per evaluation (fresh per
   work-item in the interpreter). *)
let rec emit_stmt env buf ~indent ~round_store (s : stmt) =
  let pad = String.make indent ' ' in
  let add = Buffer.add_string buf in
  match s with
  | Comment c -> add (Printf.sprintf "%s/* %s */\n" pad (comment_c c))
  | Decl (t, v, init) ->
      let rhs =
        match (t, init) with
        | Int, None -> "0"
        | Real, None -> "0.0"
        | Int, Some e -> as_int_c env e
        | Real, Some e -> expr_c env e
      in
      add (Printf.sprintf "%s%s = %s;\n" pad (cname env v) rhs)
  | Decl_arr (_, v, _) ->
      let n' = cname env v in
      add (Printf.sprintf "%smemset(%s, 0, sizeof(%s));\n" pad n' n')
  | Assign (v, e) ->
      let rhs =
        match Hashtbl.find_opt env.slots v with
        | Some (S_scalar Int) -> as_int_c env e
        | Some (S_scalar Real) -> expr_c env e
        | _ -> failwith (Printf.sprintf "native_c: assign to unbound %s" v)
      in
      add (Printf.sprintf "%s%s = %s;\n" pad (cname env v) rhs)
  | Store (b, i, e) ->
      let lhs = Printf.sprintf "%s[%s]" (cname env b) (as_int_c env i) in
      let rhs =
        match Hashtbl.find_opt env.slots b with
        | Some (S_gbuf Int) ->
            (* tag in place (Val_long); the unsigned shift wraps to 63
               bits like OCaml int arithmetic *)
            Printf.sprintf "(int64_t)(((uint64_t)(%s) << 1) | 1u)" (as_int_c env e)
        | Some S_gbyte -> Printf.sprintf "(uint8_t)(%s)" (as_int_c env e)
        | Some (S_parr (Int, _)) -> as_int_c env e
        | Some (S_gbuf Real) when round_store ->
            (* single precision: round on store to a global real buffer,
               always through double first so an int value takes the
               same widen-then-round path as [Exec]'s as_real +
               round32 *)
            Printf.sprintf "(double)(float)(double)(%s)" (expr_c env e)
        | Some (S_gbuf Real | S_parr (Real, _)) -> expr_c env e
        | _ -> failwith (Printf.sprintf "native_c: store to unbound %s" b)
      in
      add (Printf.sprintf "%s%s = %s;\n" pad lhs rhs)
  | If (c, t, f) ->
      add (Printf.sprintf "%sif (%s) {\n" pad (as_int_c env c));
      List.iter (emit_stmt env buf ~indent:(indent + 2) ~round_store) t;
      if f <> [] then begin
        add (Printf.sprintf "%s} else {\n" pad);
        List.iter (emit_stmt env buf ~indent:(indent + 2) ~round_store) f
      end;
      add (Printf.sprintf "%s}\n" pad)
  | For l ->
      (* Replicates [Exec]'s loop structure literally: a hidden iterator
         advances by [step] evaluated after the body; the loop variable
         is the body-scope register, assigned at the top of each
         iteration; [bound] is re-evaluated per iteration before that
         assignment. *)
      let it = "rk_it_" ^ cname env l.var in
      add (Printf.sprintf "%s{\n" pad);
      add (Printf.sprintf "%s  int64_t %s = %s;\n" pad it (as_int_c env l.init));
      add (Printf.sprintf "%s  while (%s < (%s)) {\n" pad it (as_int_c env l.bound));
      add (Printf.sprintf "%s    %s = %s;\n" pad (cname env l.var) it);
      List.iter (emit_stmt env buf ~indent:(indent + 4) ~round_store) l.body;
      add (Printf.sprintf "%s    %s += %s;\n" pad it (as_int_c env l.step));
      add (Printf.sprintf "%s  }\n" pad);
      add (Printf.sprintf "%s}\n" pad)

(* The prelude includes no header: preprocessing <stdint.h>, <math.h>
   and <string.h> more than doubled the preprocessor's time per kernel
   (EXPERIMENTS.md), and the renderer uses only three of their types and
   ten of their names.  The types come from the compiler's predefined
   macros, the eight libm functions are declared with their C99
   prototypes (the compiler still knows them as builtins, so the code is
   the one the headers give), and [signbit] and [memset] are the
   builtins the headers expand them to. *)
let preamble =
  "typedef __INT64_TYPE__ int64_t;\n\
   typedef __UINT8_TYPE__ uint8_t;\n\
   typedef __UINT64_TYPE__ uint64_t;\n\n\
   double sqrt(double);\n\
   double fabs(double);\n\
   double exp(double);\n\
   double log(double);\n\
   double sin(double);\n\
   double cos(double);\n\
   double floor(double);\n\
   double fmod(double, double);\n\
   #define signbit(x) __builtin_signbit(x)\n\
   #define memset __builtin_memset\n\n\
   /* OCaml Float.min / Float.max semantics: NaN in either operand\n\
   \ * propagates, and -0.0 orders below +0.0.  C fmin/fmax differ\n\
   \ * (they prefer the non-NaN operand), so they are not used. */\n\
   static inline double rk_fmin(double x, double y) {\n\
   \  if (y > x || (!signbit(y) && signbit(x))) return (y != y) ? y : x;\n\
   \  return (x != x) ? x : y;\n\
   }\n\
   static inline double rk_fmax(double x, double y) {\n\
   \  if (y < x || (signbit(y) && !signbit(x))) return (y != y) ? y : x;\n\
   \  return (x != x) ? x : y;\n\
   }\n\n\
   /* An entry's body function: the entry's name with _body appended. */\n\
   #define RK_CAT_(a, b) a##b\n\
   #define RK_CAT(a, b) RK_CAT_(a, b)\n\
   #define RK_BODY RK_CAT(RK_ENTRY, _body)\n"

(* {2 Write-set analysis for restrict emission}

   Which global-buffer parameters does the kernel store to?  The
   principled answer comes from [Footprint]'s provenance-carrying
   abstract interpretation (its write side counts every static store
   site, indirect scatters included); a plain syntactic walk over
   [Store] targets is unioned in as a conservative floor so a footprint
   blind spot can never demote a written buffer to read-only.  The
   result licenses the C qualifiers on the body's buffer parameters:
   [const] on read-only buffers unconditionally, and [restrict] only
   under the launcher's no-aliased-bindings guarantee
   ([Vgpu.Native.dispatch] checks it per launch and falls back to a
   [~noalias:false] compilation). *)

let written_params (k : kernel) : string list =
  let fp_writes =
    match Footprint.infer (Check.env ()) k with
    | fp -> (
        fun n ->
          match Footprint.find fp n with
          | Some b -> b.Footprint.fb_write.Footprint.s_sites > 0
          | None -> false)
    | exception _ -> fun _ -> false
  in
  List.filter_map
    (fun p ->
      if p.p_kind = Global_buf && (stores_to p.p_name k.body || fp_writes p.p_name) then
        Some p.p_name
      else None)
    k.params

(* Does [p] hold for an expression of [body], at any depth? *)
let body_exists p body =
  let rec expr e =
    p e
    ||
    match e with
    | Binop (_, a, b) -> expr a || expr b
    | Unop (_, a) | Load (_, a) -> expr a
    | Ternary (c, a, b) -> expr c || expr a || expr b
    | Call (_, args) -> List.exists expr args
    | Int_lit _ | Real_lit _ | Var _ | Global_id _ | Global_size _ -> false
  and stmt = function
    | Decl (_, _, init) -> Option.fold ~none:false ~some:expr init
    | Assign (_, e) -> expr e
    | Store (_, i, e) -> expr i || expr e
    | If (c, a, b) -> expr c || List.exists stmt a || List.exists stmt b
    | For l -> expr l.init || expr l.bound || expr l.step || List.exists stmt l.body
    | Decl_arr _ | Comment _ -> false
  in
  List.exists stmt body

(* Does the entry call one of the prelude's eight libm functions: a math
   builtin other than [Fmin]/[Fmax] (rendered as the prelude's helpers),
   or a real [Mod] ([fmod])?  Only such an entry needs libm linked. *)
let calls_libm (k : kernel) =
  let env = build_env k in
  body_exists
    (function
      | Call ((Fmin | Fmax), _) -> false
      | Call (_, _) -> true
      | Binop (Mod, _, _) as e -> type_of env e = Real
      | _ -> false)
    k.body

(* The macro an entry is named by: {!translation_unit} defines it. *)
let entry_macro = "RK_ENTRY"

let entry_source ?(noalias = true) (k : kernel) : string =
  let env = build_env k in
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add
    (Printf.sprintf "/* kernel %s (%s precision) */\n" k.name
       (match k.precision with Single -> "single" | Double -> "double"));
  (* The body's parameters, as (C type, name, the wrapper's argument,
     read by the body?): the kernel's, in [bindings] order, then the
     NDRange sizes and the span table.  Read-only buffers (proven by
     [written_params]) are [const]; [restrict] is emitted only when the
     launcher vouches that no written buffer aliases another binding. *)
  let written = written_params k in
  let reads name = body_exists (function Var v | Load (v, _) -> v = name | _ -> false) k.body in
  let param p b =
    let buffer elt slot =
      let cst = if List.mem p.p_name written then "" else "const " in
      let res = if noalias then " restrict" else "" in
      (cst ^ elt ^ " *" ^ res, slot, reads p.p_name || stores_to p.p_name k.body)
    in
    let ty, arg, used =
      match b with
      | Arg_fbuf s -> buffer "double" (Printf.sprintf "fb[%d]" s)
      | Arg_ibuf s -> buffer "int64_t" (Printf.sprintf "ib[%d]" s)
      | Arg_u8buf s -> buffer "uint8_t" (Printf.sprintf "u8b[%d]" s)
      | Arg_iscalar s -> ("int64_t", Printf.sprintf "isc[%d]" s, reads p.p_name)
      | Arg_rscalar s -> ("double", Printf.sprintf "fsc[%d]" s, reads p.p_name)
    in
    (ty, cname env p.p_name, arg, used)
  in
  (* the loop nest reads the sizes of dimensions 1 and up it declares *)
  let size d =
    ( "int64_t",
      Printf.sprintf "rk_gs%d" d,
      Printf.sprintf "gsz[%d]" d,
      (d > 0 && d < env.dims) || body_exists (function Global_size d' -> d' = d | _ -> false) k.body
    )
  in
  let params =
    List.map2 param k.params (bindings k)
    @ [
        size 0;
        size 1;
        size 2;
        ("const int64_t *", "rk_sp", "rk_sp", true);
        ("int64_t", "rk_nsp", "rk_nsp", true);
      ]
  in
  add "static inline __attribute__((always_inline))\nvoid RK_BODY(";
  add (String.concat ",\n             " (List.map (fun (ty, n, _, _) -> ty ^ " " ^ n) params));
  add ")\n{\n";
  (* a parameter the body never reads would warn under -Wextra *)
  (match List.filter_map (fun (_, n, _, used) -> if used then None else Some n) params with
  | [] -> ()
  | unused -> add ("  " ^ String.concat " " (List.map (Printf.sprintf "(void)%s;") unused) ^ "\n"));
  (* hoisted body-scope locals, zero-initialised like fresh registers *)
  List.iter
    (fun (v, s) ->
      match s with
      | S_scalar t ->
          add
            (Printf.sprintf "  %s %s = %s;\n" (c_ty t) (cname env v)
               (match t with Int -> "0" | Real -> "0.0"))
      | S_parr (t, n) -> add (Printf.sprintf "  %s %s[%d] = {0};\n" (c_ty t) (cname env v) n)
      | S_gbuf _ | S_gbyte -> assert false)
    env.locals;
  let round_store = k.precision = Single in
  (* the NDRange loop nest over the declared dimensions: row-major z/y/x
     like Exec.launch, dimension 0 over the launch's spans, tagged words
     [lo, hi) in pairs (a plain launch passes the one span [0, gs0)) *)
  for d = env.dims - 1 downto 1 do
    add (Printf.sprintf "  for (int64_t rk_g%d = 0; rk_g%d < rk_gs%d; rk_g%d++)\n" d d d d)
  done;
  add "  for (int64_t rk_s = 0; rk_s < rk_nsp; rk_s++)\n";
  add
    "  for (int64_t rk_g0 = rk_sp[2 * rk_s] >> 1, rk_e0 = rk_sp[2 * rk_s + 1] >> 1; rk_g0 < rk_e0; \
     rk_g0++)\n";
  add "  {\n";
  List.iter (emit_stmt env buf ~indent:4 ~round_store) k.body;
  add "  }\n}\n\n";
  (* the exported entry: unpack the slot arrays and call the body once *)
  add
    (Printf.sprintf
       "__attribute__((visibility(\"default\")))\n\
        void %s(double **fb, int64_t **ib, uint8_t **u8b,\n\
       \                       const int64_t *isc, const double *fsc, const int64_t *gsz,\n\
       \                       const int64_t *rk_sp, int64_t rk_nsp)\n{\n"
       entry_macro);
  add "  (void)fb; (void)ib; (void)u8b; (void)isc; (void)fsc;\n";
  add "  RK_BODY(";
  add (String.concat ", " (List.map (fun (_, _, arg, _) -> arg) params));
  add ");\n}\n";
  Buffer.contents buf

(* One translation unit: the prelude once, then each entry under its own
   name.  The framing here is fixed text, so the cache key, which digests
   the prelude and each entry, covers the unit; change it only with a
   bump of the key's salt. *)
let translation_unit (entries : (string * string) list) : string =
  let buf = Buffer.create 8192 in
  let add = Buffer.add_string buf in
  add
    (Printf.sprintf "/* %d kernel(s), generated by the racs native backend */\n"
       (List.length entries));
  add preamble;
  List.iter
    (fun (symbol, entry) ->
      add (Printf.sprintf "\n#define %s %s\n" entry_macro symbol);
      add entry;
      add (Printf.sprintf "#undef %s\n" entry_macro))
    entries;
  Buffer.contents buf
