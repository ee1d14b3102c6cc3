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
     and [__local] int arrays are plain untagged [int64_t];
   - real [Mod] is C [fmod] (= OCaml [Float.rem]); [Fmin]/[Fmax] are
     emitted as helpers replicating OCaml's [Float.min]/[Float.max]
     branch-for-branch (NaN propagation, [-0. < +0.]), not C's
     [fmin]/[fmax] whose NaN behaviour differs;
   - wherever the engines truncate a real to an int ([as_int]), the
     emitted C carries an explicit [(int64_t)] cast — C truthiness of a
     bare double would otherwise diverge from truncate-then-test;
   - [&&]/[||] short-circuit (the interpreter evaluates both operands;
     observably identical on verified kernels).

   The fixed entry ABI (see {!entry_symbol}) receives the kernel's
   parameters split by kind — real buffers as [double*], int buffers as
   [int64_t*] to their tagged words, byte buffers as [uint8_t*],
   scalars (untagged) in two flat arrays — plus the NDRange sizes.  The
   work-item loops live inside the entry, row-major z/y/x exactly like
   [Exec.launch].

   Body-declared locals are renamed [rk_v<i>_<stem>], numbered in
   declaration order, where the stem drops Lift's gensym suffixes
   ([idx_19_2] -> [idx]).  The source, hence the binary cache key, is a
   function of the kernel's structure only: lifting one program twice
   renders the same C. *)

open Cast

let entry_symbol = "racs_kernel_entry"

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
  | S_larr of ty * int  (* work-group local array (grouped kernels) *)

type env = {
  slots : (string, slot) Hashtbl.t;
  mutable locals : (string * slot) list;  (* body-declared, reversed scan order *)
  local_ix : (string, int) Hashtbl.t;  (* body-declared local -> declaration index *)
  env_grouped : bool;
  l3 : int array;  (* work-group size, [|1;1;1|] when flat *)
  sparams : (string, unit) Hashtbl.t;  (* scalar parameter names *)
  uniform_store : (string, unit) Hashtbl.t;
      (* loop variables of barrier-containing ("uniform") loops: stored
         as one plain scalar shared by the whole group *)
  uniform_vals : (string, unit) Hashtbl.t;
      (* per-work-item scalars whose value is provably the same in every
         lane at the current program point: legal in uniform-loop
         headers, rendered as [v[0]] there *)
  mutable in_uniform : bool;  (* rendering a uniform-loop header *)
}

let declare env name s =
  if not (Hashtbl.mem env.slots name) then begin
    Hashtbl.replace env.slots name s;
    env.locals <- (name, s) :: env.locals
  end

let group_threads env = env.l3.(0) * env.l3.(1) * env.l3.(2)

let build_env (k : kernel) =
  let is_grouped = grouped k in
  let env =
    {
      slots = Hashtbl.create 32;
      locals = [];
      local_ix = Hashtbl.create 32;
      env_grouped = is_grouped;
      l3 = local3 k;
      sparams = Hashtbl.create 8;
      uniform_store = Hashtbl.create 4;
      uniform_vals = Hashtbl.create 8;
      in_uniform = false;
    }
  in
  List.iter
    (fun p ->
      match p.p_kind with
      | Global_buf when p.p_storage = U8 -> Hashtbl.replace env.slots p.p_name S_gbyte
      | Global_buf -> Hashtbl.replace env.slots p.p_name (S_gbuf p.p_ty)
      | Scalar_param ->
          Hashtbl.replace env.slots p.p_name (S_scalar p.p_ty);
          Hashtbl.replace env.sparams p.p_name ())
    k.params;
  let rec scan = function
    | Decl (t, v, _) -> declare env v (S_scalar t)
    | Decl_arr (t, v, n) -> declare env v (S_parr (t, n))
    | Decl_local (t, v, n) ->
        (* flat model: a local array is indistinguishable from private *)
        declare env v (if is_grouped then S_larr (t, n) else S_parr (t, n))
    | If (_, a, b) ->
        List.iter scan a;
        List.iter scan b
    | For l ->
        declare env l.var (S_scalar Int);
        if is_grouped && contains_barrier l.body then
          Hashtbl.replace env.uniform_store l.var ();
        List.iter scan l.body
    | Assign _ | Store _ | Barrier | Comment _ -> ()
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

(* Whether [v] may appear in a uniform-loop header and how it renders
   there: scalar parameters and uniform-loop variables are plain shared
   scalars; a per-work-item scalar is only legal when its value is
   provably lane-uniform (then any lane's slot serves). *)
let is_uniform_name env v =
  Hashtbl.mem env.sparams v
  || Hashtbl.mem env.uniform_store v
  || Hashtbl.mem env.uniform_vals v

(* Work-group-uniform expressions: same value in every lane of a group.
   Conservative — no loads, no per-lane ids. *)
let rec expr_uniform env = function
  | Int_lit _ | Real_lit _ | Global_size _ | Local_size _ | Group_id _ -> true
  | Global_id _ | Local_id _ | Load _ -> false
  | Var v -> is_uniform_name env v
  | Unop (_, a) -> expr_uniform env a
  | Binop (_, a, b) -> expr_uniform env a && expr_uniform env b
  | Ternary (c, a, b) -> expr_uniform env c && expr_uniform env a && expr_uniform env b
  | Call (_, args) -> List.for_all (expr_uniform env) args

(* How a scalar variable reference renders at the current point. *)
let var_ref env v =
  let n = cname env v in
  if not env.env_grouped then n
  else
    match Hashtbl.find_opt env.slots v with
    | Some (S_scalar _) when Hashtbl.mem env.sparams v || Hashtbl.mem env.uniform_store v
      ->
        n
    | Some (S_scalar _) -> if env.in_uniform then n ^ "[0]" else n ^ "[rk_l]"
    | _ -> n

(* Expression typing by C promotion rules: builtin calls are real,
   comparisons and logic are int. *)
let rec type_of env (e : expr) : ty =
  match e with
  | Int_lit _ | Global_id _ | Global_size _ | Group_id _ | Local_id _ | Local_size _ ->
      Int
  | Real_lit _ -> Real
  | Var v -> (
      match Hashtbl.find_opt env.slots v with
      | Some (S_scalar t) -> t
      | Some _ -> failwith (Printf.sprintf "native_c: %s is not a scalar" v)
      | None -> failwith (Printf.sprintf "native_c: unbound variable %s" v))
  | Load (b, _) -> (
      match Hashtbl.find_opt env.slots b with
      | Some (S_gbuf t | S_parr (t, _) | S_larr (t, _)) -> t
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
  | Var v -> add (var_ref env v)
  | Global_id d -> add (Printf.sprintf "rk_g%d" d)
  | Global_size d -> add (Printf.sprintf "rk_gs%d" d)
  | Group_id d ->
      (* flat model: every work-item is its own group *)
      add (Printf.sprintf (if env.env_grouped then "rk_wg%d" else "rk_g%d") d)
  | Local_id d ->
      add (if env.env_grouped && d < 3 then Printf.sprintf "rk_l%d" d else "0LL")
  | Local_size d ->
      add (Printf.sprintf "%dLL" (if env.env_grouped && d < 3 then env.l3.(d) else 1))
  | Load (b, i) -> (
      match Hashtbl.find_opt env.slots b with
      | Some (S_parr (_, n)) when env.env_grouped ->
          (* per-work-item array: this lane's slice *)
          add (cname env b);
          add (Printf.sprintf "[rk_l * %dLL + " n);
          as_int_prec env buf ~prec:10 i;
          add "]"
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

(* Statement emission.  All declarations are hoisted to entry scope
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
      add (Printf.sprintf "%s%s = %s;\n" pad (var_ref env v) rhs)
  | Decl_arr (_, v, n) | Decl_local (_, v, n) -> (
      match Hashtbl.find_opt env.slots v with
      | Some (S_larr _) ->
          (* group-shared storage, zeroed once at group entry *)
          ()
      | Some (S_parr _) when env.env_grouped ->
          (* fresh per work-item: zero this lane's slice *)
          let n' = cname env v in
          add
            (Printf.sprintf "%smemset(&%s[rk_l * %dLL], 0, %d * sizeof(%s[0]));\n" pad n' n n
               n')
      | _ ->
          let n' = cname env v in
          add (Printf.sprintf "%smemset(%s, 0, sizeof(%s));\n" pad n' n'))
  | Barrier ->
      if env.env_grouped then
        failwith "native_c: barrier under work-item-varying control flow"
      (* flat model: each work-item is a singleton group; a barrier is a
         no-op *)
  | Assign (v, e) ->
      if env.env_grouped && Hashtbl.mem env.sparams v then
        failwith
          (Printf.sprintf "native_c: assignment to scalar parameter %s in grouped kernel"
             v);
      let rhs =
        match Hashtbl.find_opt env.slots v with
        | Some (S_scalar Int) -> as_int_c env e
        | Some (S_scalar Real) -> expr_c env e
        | _ -> failwith (Printf.sprintf "native_c: assign to unbound %s" v)
      in
      add (Printf.sprintf "%s%s = %s;\n" pad (var_ref env v) rhs)
  | Store (b, i, e) ->
      let lhs =
        match Hashtbl.find_opt env.slots b with
        | Some (S_parr (_, n)) when env.env_grouped ->
            let buf' = Buffer.create 32 in
            as_int_prec env buf' ~prec:10 i;
            Printf.sprintf "%s[rk_l * %dLL + %s]" (cname env b) n (Buffer.contents buf')
        | _ -> Printf.sprintf "%s[%s]" (cname env b) (as_int_c env i)
      in
      let rhs =
        match Hashtbl.find_opt env.slots b with
        | Some (S_gbuf Int) ->
            (* tag in place (Val_long); the unsigned shift wraps to 63
               bits like OCaml int arithmetic *)
            Printf.sprintf "(int64_t)(((uint64_t)(%s) << 1) | 1u)" (as_int_c env e)
        | Some S_gbyte -> Printf.sprintf "(uint8_t)(%s)" (as_int_c env e)
        | Some (S_parr (Int, _) | S_larr (Int, _)) -> as_int_c env e
        | Some (S_gbuf Real) when round_store ->
            (* single precision: round on store to a global real buffer,
               always through double first so an int value takes the
               same widen-then-round path as [Exec]'s as_real +
               round32 *)
            Printf.sprintf "(double)(float)(double)(%s)" (expr_c env e)
        | Some (S_gbuf Real | S_parr (Real, _) | S_larr (Real, _)) -> expr_c env e
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
         is the entry-scope register, assigned at the top of each
         iteration; [bound] is re-evaluated per iteration before that
         assignment. *)
      let it = "rk_it_" ^ cname env l.var in
      add (Printf.sprintf "%s{\n" pad);
      add (Printf.sprintf "%s  int64_t %s = %s;\n" pad it (as_int_c env l.init));
      add (Printf.sprintf "%s  while (%s < (%s)) {\n" pad it (as_int_c env l.bound));
      add (Printf.sprintf "%s    %s = %s;\n" pad (var_ref env l.var) it);
      List.iter (emit_stmt env buf ~indent:(indent + 4) ~round_store) l.body;
      add (Printf.sprintf "%s    %s += %s;\n" pad it (as_int_c env l.step));
      add (Printf.sprintf "%s  }\n" pad);
      add (Printf.sprintf "%s}\n" pad)

(* Lane-uniformity bookkeeping while walking a group-scope statement
   spine: a per-work-item scalar is value-uniform after a spine-level
   [Decl]/[Assign] whose right-hand side is itself uniform (every lane
   executes the spine, so every slot holds the same value); any write
   under divergent control conservatively revokes it. *)
let rec kill_uniform env = function
  | Decl (_, v, _) | Decl_arr (_, v, _) | Decl_local (_, v, _) | Assign (v, _) ->
      Hashtbl.remove env.uniform_vals v
  | If (_, a, b) ->
      List.iter (kill_uniform env) a;
      List.iter (kill_uniform env) b
  | For l ->
      Hashtbl.remove env.uniform_vals l.var;
      List.iter (kill_uniform env) l.body
  | Store _ | Barrier | Comment _ -> ()

let update_uniform env s =
  match s with
  | Decl (_, v, None) -> Hashtbl.replace env.uniform_vals v ()
  | Decl (_, v, Some e) | Assign (v, e) ->
      if expr_uniform env e then Hashtbl.replace env.uniform_vals v ()
      else Hashtbl.remove env.uniform_vals v
  | If _ | For _ -> kill_uniform env s
  | Decl_arr _ | Decl_local _ | Store _ | Barrier | Comment _ -> ()

(* Render [e] for a uniform-loop header: per-work-item scalars read lane
   0's slot (legal only because the value is lane-uniform there). *)
let uniform_int_c env e =
  env.in_uniform <- true;
  let s = as_int_c env e in
  env.in_uniform <- false;
  s

(* Grouped lowering: barrier synchronisation becomes loop fission.  The
   statement spine of a group's body is split at every [Barrier]; each
   barrier-free segment runs inside its own loop over the group's
   work-items (lid order, matching the interpreter's resume order), so
   all lanes finish a segment before any lane starts the next — exactly
   the barrier guarantee for race-free kernels.  A barrier-containing
   loop must have group-uniform bounds; it is emitted once at group
   scope (its variable is a plain shared scalar) with its body
   recursively fissioned.  A barrier under a conditional is divergence
   and rejected outright — [Check.barrier_verdict] reports these
   statically. *)
let rec emit_group_body env buf ~indent ~round_store (stmts : stmt list) =
  let pad = String.make indent ' ' in
  let add = Buffer.add_string buf in
  let flush seg =
    match List.rev seg with
    | [] -> ()
    | body ->
        let l0 = env.l3.(0) and l1 = env.l3.(1) and l2 = env.l3.(2) in
        add (Printf.sprintf "%sfor (int64_t rk_l2 = 0; rk_l2 < %dLL; rk_l2++)\n" pad l2);
        add (Printf.sprintf "%sfor (int64_t rk_l1 = 0; rk_l1 < %dLL; rk_l1++)\n" pad l1);
        add (Printf.sprintf "%sfor (int64_t rk_l0 = 0; rk_l0 < %dLL; rk_l0++)\n" pad l0);
        add (Printf.sprintf "%s{\n" pad);
        add
          (Printf.sprintf "%s  const int64_t rk_l = (rk_l2 * %dLL + rk_l1) * %dLL + rk_l0;\n"
             pad l1 l0);
        add (Printf.sprintf "%s  const int64_t rk_g0 = rk_wg0 * %dLL + rk_l0;\n" pad l0);
        add (Printf.sprintf "%s  const int64_t rk_g1 = rk_wg1 * %dLL + rk_l1;\n" pad l1);
        add (Printf.sprintf "%s  const int64_t rk_g2 = rk_wg2 * %dLL + rk_l2;\n" pad l2);
        add
          (Printf.sprintf "%s  (void)rk_l; (void)rk_g0; (void)rk_g1; (void)rk_g2;\n" pad);
        List.iter (emit_stmt env buf ~indent:(indent + 2) ~round_store) body;
        add (Printf.sprintf "%s}\n" pad)
  in
  let rec go seg = function
    | [] -> flush seg
    | Barrier :: rest ->
        flush seg;
        go [] rest
    | (For l as s) :: rest when contains_barrier l.body ->
        flush seg;
        update_uniform env s;
        emit_uniform_loop env buf ~indent ~round_store l;
        go [] rest
    | If (_, t, f) :: _ when contains_barrier t || contains_barrier f ->
        failwith "native_c: barrier under conditional control flow"
    | s :: rest ->
        update_uniform env s;
        go (s :: seg) rest
  in
  go [] stmts

and emit_uniform_loop env buf ~indent ~round_store (l : for_loop) =
  let ok e = expr_uniform env e in
  if not (ok l.init && ok l.bound && ok l.step) then
    failwith "native_c: barrier inside a loop with work-item-varying bounds";
  let pad = String.make indent ' ' in
  let add = Buffer.add_string buf in
  let it = "rk_it_" ^ cname env l.var in
  add (Printf.sprintf "%s{\n" pad);
  add (Printf.sprintf "%s  int64_t %s = %s;\n" pad it (uniform_int_c env l.init));
  add (Printf.sprintf "%s  while (%s < (%s)) {\n" pad it (uniform_int_c env l.bound));
  add (Printf.sprintf "%s    %s = %s;\n" pad (var_ref env l.var) it);
  emit_group_body env buf ~indent:(indent + 4) ~round_store l.body;
  add (Printf.sprintf "%s    %s += %s;\n" pad it (uniform_int_c env l.step));
  add (Printf.sprintf "%s  }\n" pad);
  add (Printf.sprintf "%s}\n" pad);
  (* the header strings above are re-evaluated every iteration: their
     variables must still be uniform after the body's own writes *)
  if not (ok l.bound && ok l.step) then
    failwith "native_c: barrier-loop bound made work-item-varying inside the loop"

let preamble =
  "#include <stdint.h>\n#include <math.h>\n#include <string.h>\n\n\
   #if defined(_WIN32)\n\
   #  define RK_EXPORT __declspec(dllexport)\n\
   #else\n\
   #  define RK_EXPORT __attribute__((visibility(\"default\")))\n\
   #endif\n\n\
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
   }\n"

(* {2 Write-set analysis for restrict emission}

   Which global-buffer parameters does the kernel store to?  The
   principled answer comes from [Footprint]'s provenance-carrying
   abstract interpretation (its write side counts every static store
   site, indirect scatters included); a plain syntactic walk over
   [Store] targets is unioned in as a conservative floor so a footprint
   blind spot can never demote a written buffer to read-only.  The
   result licenses the C qualifiers below: [const] on read-only buffer
   params unconditionally, and [restrict] only under the launcher's
   no-aliased-bindings guarantee ([Vgpu.Native.launch] checks it per
   launch and falls back to a [~noalias:false] compilation). *)

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

let kernel_source ?(noalias = true) (k : kernel) : string =
  let env = build_env k in
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add
    (Printf.sprintf "/* kernel %s (%s precision) — generated by the racs native backend */\n"
       k.name
       (match k.precision with Single -> "single" | Double -> "double"));
  add preamble;
  add "\n";
  add
    (Printf.sprintf
       "RK_EXPORT void %s(double **fb, int64_t **ib, uint8_t **u8b,\n\
       \                  const int64_t *isc, const double *fsc, const int64_t *gsz)\n{\n"
       entry_symbol);
  add "  (void)fb; (void)ib; (void)u8b; (void)isc; (void)fsc;\n";
  (* parameter prologue, in [bindings] order: read-only buffers (proven
     by [written_params]) are [const]; [restrict] is emitted only when
     the launcher vouches that no written buffer aliases another
     binding *)
  let written = written_params k in
  let quals name =
    let cst = if List.mem name written then "" else "const " in
    let res = if noalias then " restrict" else "" in
    (cst, res)
  in
  List.iter2
    (fun p b ->
      let n = cname env p.p_name in
      match b with
      | Arg_fbuf s ->
          let cst, res = quals p.p_name in
          add (Printf.sprintf "  %sdouble *%s %s = fb[%d];\n" cst res n s)
      | Arg_ibuf s ->
          let cst, res = quals p.p_name in
          add (Printf.sprintf "  %sint64_t *%s %s = ib[%d];\n" cst res n s)
      | Arg_u8buf s ->
          let cst, res = quals p.p_name in
          add (Printf.sprintf "  %suint8_t *%s %s = u8b[%d];\n" cst res n s)
      | Arg_iscalar s -> add (Printf.sprintf "  int64_t %s = isc[%d];\n" n s)
      | Arg_rscalar s -> add (Printf.sprintf "  double %s = fsc[%d];\n" n s))
    k.params (bindings k);
  add "  const int64_t rk_gs0 = gsz[0];\n";
  add "  const int64_t rk_gs1 = gsz[1];\n";
  add "  const int64_t rk_gs2 = gsz[2];\n";
  add "  (void)rk_gs0; (void)rk_gs1; (void)rk_gs2;\n";
  (* hoisted entry-scope locals, zero-initialised like fresh registers;
     grouped kernels widen per-work-item storage to one slot per lane *)
  let gthreads = group_threads env in
  List.iter
    (fun (v, s) ->
      match s with
      | S_scalar t when env.env_grouped && not (Hashtbl.mem env.uniform_store v) ->
          add (Printf.sprintf "  %s %s[%d] = {0};\n" (c_ty t) (cname env v) gthreads)
      | S_scalar t ->
          add
            (Printf.sprintf "  %s %s = %s;\n" (c_ty t) (cname env v)
               (match t with Int -> "0" | Real -> "0.0"))
      | S_parr (t, n) ->
          let n = if env.env_grouped then gthreads * n else n in
          add (Printf.sprintf "  %s %s[%d] = {0};\n" (c_ty t) (cname env v) n)
      | S_larr (t, n) -> add (Printf.sprintf "  %s %s[%d];\n" (c_ty t) (cname env v) n)
      | S_gbuf _ | S_gbyte -> assert false)
    env.locals;
  let round_store = k.precision = Single in
  if not env.env_grouped then begin
    (* the NDRange loop nest: row-major z/y/x like Exec.launch *)
    add "  for (int64_t rk_g2 = 0; rk_g2 < rk_gs2; rk_g2++)\n";
    add "  for (int64_t rk_g1 = 0; rk_g1 < rk_gs1; rk_g1++)\n";
    add "  for (int64_t rk_g0 = 0; rk_g0 < rk_gs0; rk_g0++)\n";
    add "  {\n";
    List.iter (emit_stmt env buf ~indent:4 ~round_store) k.body;
    add "  }\n}\n"
  end
  else begin
    (* group-at-a-time: row-major z/y/x over work-groups (the launcher
       validates that the NDRange divides by the work-group size) *)
    add
      (Printf.sprintf "  for (int64_t rk_wg2 = 0; rk_wg2 < rk_gs2 / %dLL; rk_wg2++)\n"
         env.l3.(2));
    add
      (Printf.sprintf "  for (int64_t rk_wg1 = 0; rk_wg1 < rk_gs1 / %dLL; rk_wg1++)\n"
         env.l3.(1));
    add
      (Printf.sprintf "  for (int64_t rk_wg0 = 0; rk_wg0 < rk_gs0 / %dLL; rk_wg0++)\n"
         env.l3.(0));
    add "  {\n";
    List.iter
      (fun (v, s) ->
        match s with
        | S_larr _ ->
            let n = cname env v in
            add (Printf.sprintf "    memset(%s, 0, sizeof(%s));\n" n n)
        | _ -> ())
      env.locals;
    Hashtbl.reset env.uniform_vals;
    emit_group_body env buf ~indent:4 ~round_store k.body;
    add "  }\n}\n"
  end;
  Buffer.contents buf
