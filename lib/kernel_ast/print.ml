(* Emission of kernel ASTs as OpenCL C source.

   The printed source is the artifact the paper's compiler produces; it is
   kept human-readable (folded constants, one statement per line) so it can
   be diffed against the paper's listings. *)

open Cast

let ty_name precision = function
  | Int -> "int"
  | Real -> ( match precision with Single -> "float" | Double -> "double")

let binop_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%" (* int-typed only: real Mod prints as fmod(a, b), see expr_prec *)
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"
  | Shr -> ">>"
  | BAnd -> "&"

let builtin_name = function
  | Sqrt -> "sqrt"
  | Fabs -> "fabs"
  | Exp -> "exp"
  | Log -> "log"
  | Sin -> "sin"
  | Cos -> "cos"
  | Floor -> "floor"
  | Fmin -> "fmin"
  | Fmax -> "fmax"

(* Operator precedence, loosely following C: higher binds tighter. *)
let binop_prec = function
  | Mul | Div | Mod -> 10
  | Add | Sub -> 9
  | Shr -> 8
  | Lt | Le | Gt | Ge -> 7
  | Eq | Ne -> 6
  | BAnd -> 5
  | And -> 4
  | Or -> 3

(* Static type of an expression under a name-typing oracle, following C
   promotion rules like the engines ([Native_c.type_of]).  Names the oracle
   does not know default to [Int] — the pre-existing behaviour of the
   untyped printer; [kernel_to_string] supplies a complete oracle built
   from the kernel's parameters and declarations, so kernel-level
   printing is always fully typed. *)
let rec expr_ty tyenv e =
  match e with
  | Int_lit _ | Global_id _ | Global_size _ -> Int
  | Real_lit _ -> Real
  | Var v -> Option.value (tyenv v) ~default:Int
  | Load (b, _) -> Option.value (tyenv b) ~default:Int
  | Unop (To_real, _) -> Real
  | Unop ((To_int | Not), _) -> Int
  | Unop (Neg, a) -> expr_ty tyenv a
  | Ternary (_, a, b) -> (
      match (expr_ty tyenv a, expr_ty tyenv b) with Int, Int -> Int | _ -> Real)
  | Call (_, _) -> Real
  | Binop ((Add | Sub | Mul | Div | Mod), a, b) -> (
      match (expr_ty tyenv a, expr_ty tyenv b) with Int, Int -> Int | _ -> Real)
  | Binop (_, _, _) -> Int

let no_tyenv : string -> ty option = fun _ -> None

let rec expr_prec ?(precision = Double) ?(tyenv = no_tyenv) ~prec buf e =
  let expr_prec ~prec buf e = expr_prec ~precision ~tyenv ~prec buf e in
  let open Buffer in
  match e with
  | Int_lit n ->
      if n < 0 then add_string buf (Printf.sprintf "(%d)" n)
      else add_string buf (string_of_int n)
  | Real_lit r ->
      let s = Printf.sprintf "%.17g" r in
      let s = if String.contains s '.' || String.contains s 'e' || String.contains s 'n' then s else s ^ ".0" in
      let s = match precision with Single -> s ^ "f" | Double -> s in
      add_string buf s
  | Var v -> add_string buf v
  | Load (b, i) ->
      add_string buf b;
      add_char buf '[';
      expr_prec ~prec:0 buf i;
      add_char buf ']'
  | Global_id d -> add_string buf (Printf.sprintf "get_global_id(%d)" d)
  | Global_size d -> add_string buf (Printf.sprintf "get_global_size(%d)" d)
  | Call (f, args) ->
      add_string buf (builtin_name f);
      add_char buf '(';
      List.iteri
        (fun i a ->
          if i > 0 then add_string buf ", ";
          expr_prec ~prec:0 buf a)
        args;
      add_char buf ')'
  | Unop (op, a) -> (
      match op with
      | Neg ->
          add_string buf "(-";
          expr_prec ~prec:11 buf a;
          add_char buf ')'
      | Not ->
          add_string buf "(!";
          expr_prec ~prec:11 buf a;
          add_char buf ')'
      | To_real ->
          add_string buf (Printf.sprintf "(%s)(" (ty_name precision Real));
          expr_prec ~prec:0 buf a;
          add_char buf ')'
      | To_int ->
          add_string buf "(int)(";
          expr_prec ~prec:0 buf a;
          add_char buf ')')
  | Ternary (c, a, b) ->
      if prec > 1 then add_char buf '(';
      expr_prec ~prec:2 buf c;
      add_string buf " ? ";
      expr_prec ~prec:2 buf a;
      add_string buf " : ";
      expr_prec ~prec:1 buf b;
      if prec > 1 then add_char buf ')'
  | Binop (Mod, a, b) when expr_ty tyenv e = Real ->
      (* C's % is integer-only; real modulo is the fmod builtin (which
         the interpreter computes as Float.rem = fmod) *)
      add_string buf "fmod(";
      expr_prec ~prec:0 buf a;
      add_string buf ", ";
      expr_prec ~prec:0 buf b;
      add_char buf ')'
  | Binop (op, a, b) ->
      let p = binop_prec op in
      if prec > p then add_char buf '(';
      expr_prec ~prec:p buf a;
      add_char buf ' ';
      add_string buf (binop_symbol op);
      add_char buf ' ';
      expr_prec ~prec:(p + 1) buf b;
      if prec > p then add_char buf ')'

let expr_to_string ?(precision = Double) ?(tyenv = no_tyenv) e =
  let buf = Buffer.create 64 in
  expr_prec ~precision ~tyenv ~prec:0 buf e;
  Buffer.contents buf

(* Name-typing oracle for a whole kernel: parameters plus every
   declaration in the body (scalars, private arrays, loop variables). *)
let kernel_tyenv (k : kernel) : string -> ty option =
  let tbl = Hashtbl.create 32 in
  List.iter (fun p -> Hashtbl.replace tbl p.p_name p.p_ty) k.params;
  let rec scan = function
    | Decl (t, v, _) | Decl_arr (t, v, _) -> Hashtbl.replace tbl v t
    | If (_, a, b) ->
        List.iter scan a;
        List.iter scan b
    | For l ->
        Hashtbl.replace tbl l.var Int;
        List.iter scan l.body
    | Assign _ | Store _ | Comment _ -> ()
  in
  List.iter scan k.body;
  Hashtbl.find_opt tbl

let rec stmt ~precision ~tyenv ~indent buf s =
  let expr_to_string e = expr_to_string ~precision ~tyenv e in
  let pad = String.make indent ' ' in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (pad ^ s ^ "\n")) fmt in
  match s with
  | Comment c -> line "/* %s */" c
  | Decl (t, v, None) -> line "%s %s;" (ty_name precision t) v
  | Decl (t, v, Some e) -> line "%s %s = %s;" (ty_name precision t) v (expr_to_string e)
  | Decl_arr (t, v, n) -> line "%s %s[%d];" (ty_name precision t) v n
  | Assign (v, e) -> line "%s = %s;" v (expr_to_string e)
  | Store (b, i, e) -> line "%s[%s] = %s;" b (expr_to_string i) (expr_to_string e)
  | If (c, t, []) ->
      line "if (%s) {" (expr_to_string c);
      List.iter (stmt ~precision ~tyenv ~indent:(indent + 2) buf) t;
      line "}"
  | If (c, t, f) ->
      line "if (%s) {" (expr_to_string c);
      List.iter (stmt ~precision ~tyenv ~indent:(indent + 2) buf) t;
      line "} else {";
      List.iter (stmt ~precision ~tyenv ~indent:(indent + 2) buf) f;
      line "}"
  | For l ->
      line "for (int %s = %s; %s < %s; %s = %s + %s) {" l.var (expr_to_string l.init)
        l.var (expr_to_string l.bound) l.var l.var (expr_to_string l.step);
      List.iter (stmt ~precision ~tyenv ~indent:(indent + 2) buf) l.body;
      line "}"

(* A byte-stored buffer prints as [uchar], [const] when never stored
   to. *)
let kernel_param (k : kernel) p =
  match (p.p_kind, p.p_storage) with
  | Global_buf, U8 ->
      Printf.sprintf "__global %suchar* restrict %s"
        (if stores_to p.p_name k.body then "" else "const ")
        p.p_name
  | Global_buf, Word ->
      Printf.sprintf "__global %s* restrict %s" (ty_name k.precision p.p_ty) p.p_name
  | Scalar_param, _ -> Printf.sprintf "const %s %s" (ty_name k.precision p.p_ty) p.p_name

(* Render a kernel as a self-contained OpenCL C function.  [Real] is
   resolved per [k.precision] so the same AST prints as a float or double
   kernel. *)
let kernel_to_string (k : kernel) =
  let buf = Buffer.create 1024 in
  let tyenv = kernel_tyenv k in
  let params = List.map (kernel_param k) k.params in
  Buffer.add_string buf
    (Printf.sprintf "__kernel void %s(%s) {\n" k.name (String.concat ", " params));
  List.iter (stmt ~precision:k.precision ~tyenv ~indent:2 buf) k.body;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
