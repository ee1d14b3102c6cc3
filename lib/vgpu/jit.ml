(* Closure-compiling JIT for kernel ASTs.

   Plays the role of the OpenCL driver compiler in this reproduction:
   a kernel AST is compiled once into OCaml closures with all name
   resolution done at compile time (variables become slots in flat
   register arrays, buffers become positions in per-kind buffer tables),
   then launched many times.  Cross-validated against the reference
   interpreter [Exec] by the test suite.

   Compilation is type-directed: every expression is classified as [Int]
   or [Real] (C promotion rules) and compiled to an [rt -> int] or
   [rt -> float] closure, so the hot loop performs no tagging or
   dispatch. *)

open Kernel_ast.Cast

type rt = {
  gid : int array;
  gsize : int array;
  lid : int array;             (* local id within the work-group *)
  wg : int array;              (* work-group id *)
  ir : int array;              (* int registers *)
  fr : float array;            (* real registers *)
  iarr : int array array;      (* private int arrays *)
  farr : float array array;    (* private real arrays *)
  mutable ilarr : int array array;   (* group-shared local int arrays *)
  mutable flarr : float array array; (* group-shared local real arrays *)
  mutable ibuf : int array array;   (* global int buffers, by slot *)
  mutable fbuf : float array array; (* global real buffers, by slot *)
  mutable bbuf : Bytes.t array;     (* global byte-stored int buffers, by slot *)
}

(* Work-group synchronisation: [Barrier] in a grouped kernel performs
   this effect; the group scheduler in [run_group_range] suspends the
   work-item fiber until the whole group has arrived. *)
type _ Effect.t += Barrier_hit : unit Effect.t

type slot =
  | Int_reg of int
  | Real_reg of int
  | Int_parr of int * int   (* slot, length *)
  | Real_parr of int * int
  | Int_larr of int * int   (* group-shared local array: slot, length *)
  | Real_larr of int * int
  | Int_gbuf of int
  | Real_gbuf of int
  | U8_gbuf of int  (* byte-stored int buffer: zero-extending loads *)

type cenv = {
  slots : (string, slot) Hashtbl.t;
  cgrouped : bool;
  cl3 : int array;
  mutable n_ir : int;
  mutable n_fr : int;
  mutable n_iarr : int;
  mutable n_farr : int;
  mutable parr_lens_i : int list; (* reversed *)
  mutable parr_lens_f : int list;
  mutable n_ilarr : int;
  mutable n_flarr : int;
  mutable larr_lens_i : int list; (* reversed *)
  mutable larr_lens_f : int list;
}

let fresh_cenv (k : kernel) =
  {
    slots = Hashtbl.create 32;
    cgrouped = grouped k;
    cl3 = local3 k;
    n_ir = 0;
    n_fr = 0;
    n_iarr = 0;
    n_farr = 0;
    parr_lens_i = [];
    parr_lens_f = [];
    n_ilarr = 0;
    n_flarr = 0;
    larr_lens_i = [];
    larr_lens_f = [];
  }

let scalar_slot cenv name (ty : ty) =
  match Hashtbl.find_opt cenv.slots name with
  | Some (Int_reg _ as s) when ty = Int -> s
  | Some (Real_reg _ as s) when ty = Real -> s
  | Some _ -> failwith (Printf.sprintf "jit: %s redeclared with a different type" name)
  | None ->
      let s =
        match ty with
        | Int ->
            let s = Int_reg cenv.n_ir in
            cenv.n_ir <- cenv.n_ir + 1;
            s
        | Real ->
            let s = Real_reg cenv.n_fr in
            cenv.n_fr <- cenv.n_fr + 1;
            s
      in
      Hashtbl.replace cenv.slots name s;
      s

let parr_slot cenv name (ty : ty) len =
  match Hashtbl.find_opt cenv.slots name with
  | Some ((Int_parr _ | Real_parr _) as s) -> s
  | Some _ -> failwith (Printf.sprintf "jit: %s redeclared as private array" name)
  | None ->
      let s =
        match ty with
        | Int ->
            let s = Int_parr (cenv.n_iarr, len) in
            cenv.n_iarr <- cenv.n_iarr + 1;
            cenv.parr_lens_i <- len :: cenv.parr_lens_i;
            s
        | Real ->
            let s = Real_parr (cenv.n_farr, len) in
            cenv.n_farr <- cenv.n_farr + 1;
            cenv.parr_lens_f <- len :: cenv.parr_lens_f;
            s
      in
      Hashtbl.replace cenv.slots name s;
      s

let larr_slot cenv name (ty : ty) len =
  match Hashtbl.find_opt cenv.slots name with
  | Some ((Int_larr _ | Real_larr _) as s) -> s
  | Some _ -> failwith (Printf.sprintf "jit: %s redeclared as local array" name)
  | None ->
      let s =
        match ty with
        | Int ->
            let s = Int_larr (cenv.n_ilarr, len) in
            cenv.n_ilarr <- cenv.n_ilarr + 1;
            cenv.larr_lens_i <- len :: cenv.larr_lens_i;
            s
        | Real ->
            let s = Real_larr (cenv.n_flarr, len) in
            cenv.n_flarr <- cenv.n_flarr + 1;
            cenv.larr_lens_f <- len :: cenv.larr_lens_f;
            s
      in
      Hashtbl.replace cenv.slots name s;
      s

(* Pre-scan: declare every local so that type queries during expression
   compilation always succeed (C requires declaration before use, and the
   code generator respects that, but the pre-scan keeps the compiler
   single-pass per expression). *)
let rec scan_stmt cenv = function
  | Comment _ | Assign _ | Store _ | Barrier -> ()
  | Decl (ty, v, _) -> ignore (scalar_slot cenv v ty)
  | Decl_arr (ty, v, n) -> ignore (parr_slot cenv v ty n)
  | Decl_local (ty, v, n) ->
      (* flat model: a local array of a singleton group is private *)
      if cenv.cgrouped then ignore (larr_slot cenv v ty n)
      else ignore (parr_slot cenv v ty n)
  | If (_, t, f) ->
      List.iter (scan_stmt cenv) t;
      List.iter (scan_stmt cenv) f
  | For l ->
      ignore (scalar_slot cenv l.var Int);
      List.iter (scan_stmt cenv) l.body

let type_of cenv (e : expr) : ty =
  let rec go = function
    | Int_lit _ | Global_id _ | Global_size _ | Group_id _ | Local_id _ | Local_size _ ->
        Int
    | Real_lit _ -> Real
    | Var v -> (
        match Hashtbl.find_opt cenv.slots v with
        | Some (Int_reg _) -> Int
        | Some (Real_reg _) -> Real
        | Some _ -> failwith (Printf.sprintf "jit: %s is not a scalar" v)
        | None -> failwith (Printf.sprintf "jit: unbound variable %s" v))
    | Load (b, _) -> (
        match Hashtbl.find_opt cenv.slots b with
        | Some (Int_gbuf _ | U8_gbuf _ | Int_parr _ | Int_larr _) -> Int
        | Some (Real_gbuf _ | Real_parr _ | Real_larr _) -> Real
        | Some _ -> failwith (Printf.sprintf "jit: %s is not an array" b)
        | None -> failwith (Printf.sprintf "jit: unbound buffer %s" b))
    | Unop (To_real, _) -> Real
    | Unop (To_int, _) -> Int
    | Unop (Not, _) -> Int
    | Unop (Neg, a) -> go a
    | Ternary (_, a, b) -> ( match (go a, go b) with Int, Int -> Int | _ -> Real)
    | Call (_, _) -> Real
    | Binop ((Add | Sub | Mul | Div | Mod), a, b) -> (
        match (go a, go b) with Int, Int -> Int | _ -> Real)
    | Binop (_, _, _) -> Int
  in
  go e

type compiled_expr =
  | CI of (rt -> int)
  | CR of (rt -> float)

let rec compile_expr cenv (e : expr) : compiled_expr =
  match type_of cenv e with
  | Int -> CI (compile_int cenv e)
  | Real -> CR (compile_real cenv e)

and as_int cenv e : rt -> int =
  match compile_expr cenv e with
  | CI f -> f
  | CR f -> fun rt -> int_of_float (f rt)

and as_real cenv e : rt -> float =
  match compile_expr cenv e with
  | CR f -> f
  | CI f -> fun rt -> float_of_int (f rt)

and compile_int cenv (e : expr) : rt -> int =
  match e with
  | Int_lit n -> fun _ -> n
  | Real_lit _ -> failwith "jit: real literal in int context"
  | Global_id d -> fun rt -> rt.gid.(d)
  | Global_size d -> fun rt -> rt.gsize.(d)
  | Group_id d ->
      (* flat model: every work-item is its own singleton group *)
      if cenv.cgrouped then fun rt -> rt.wg.(d) else fun rt -> rt.gid.(d)
  | Local_id d -> if cenv.cgrouped then fun rt -> rt.lid.(d) else fun _ -> 0
  | Local_size d ->
      let n = if cenv.cgrouped && d < 3 then cenv.cl3.(d) else 1 in
      fun _ -> n
  | Var v -> (
      match Hashtbl.find cenv.slots v with
      | Int_reg s -> fun rt -> rt.ir.(s)
      | _ -> failwith (Printf.sprintf "jit: %s not an int scalar" v))
  | Load (b, i) -> (
      let fi = as_int cenv i in
      match Hashtbl.find cenv.slots b with
      | Int_gbuf s -> fun rt -> rt.ibuf.(s).(fi rt)
      | U8_gbuf s -> fun rt -> Bytes.get_uint8 rt.bbuf.(s) (fi rt)
      | Int_parr (s, _) -> fun rt -> rt.iarr.(s).(fi rt)
      | Int_larr (s, _) -> fun rt -> rt.ilarr.(s).(fi rt)
      | _ -> failwith (Printf.sprintf "jit: %s not an int array" b))
  | Unop (Neg, a) ->
      let fa = compile_int cenv a in
      fun rt -> -fa rt
  | Unop (Not, a) ->
      let fa = as_int cenv a in
      fun rt -> if fa rt = 0 then 1 else 0
  | Unop (To_int, a) ->
      let fa = as_real cenv a in
      fun rt -> int_of_float (fa rt)
  | Unop (To_real, _) -> failwith "jit: to_real in int context"
  | Ternary (c, a, b) ->
      let fc = as_int cenv c and fa = compile_int cenv a and fb = compile_int cenv b in
      fun rt -> if fc rt <> 0 then fa rt else fb rt
  | Call _ -> failwith "jit: builtin call in int context"
  | Binop (op, a, b) -> (
      match op with
      | Add | Sub | Mul | Div | Mod ->
          let fa = compile_int cenv a and fb = compile_int cenv b in
          let g =
            match op with
            | Add -> ( + )
            | Sub -> ( - )
            | Mul -> ( * )
            | Div -> ( / )
            | _ -> fun x y -> x mod y
          in
          fun rt -> g (fa rt) (fb rt)
      | And ->
          let fa = as_int cenv a and fb = as_int cenv b in
          fun rt -> if fa rt <> 0 && fb rt <> 0 then 1 else 0
      | Or ->
          let fa = as_int cenv a and fb = as_int cenv b in
          fun rt -> if fa rt <> 0 || fb rt <> 0 then 1 else 0
      | Shr ->
          let fa = as_int cenv a and fb = as_int cenv b in
          fun rt -> fa rt asr fb rt
      | BAnd ->
          let fa = as_int cenv a and fb = as_int cenv b in
          fun rt -> fa rt land fb rt
      | Eq | Ne | Lt | Le | Gt | Ge -> (
          let cmp_int g =
            let fa = as_int cenv a and fb = as_int cenv b in
            fun rt -> if g (fa rt) (fb rt) then 1 else 0
          and cmp_real g =
            let fa = as_real cenv a and fb = as_real cenv b in
            fun rt -> if g (fa rt) (fb rt) then 1 else 0
          in
          let both_int = type_of cenv a = Int && type_of cenv b = Int in
          match (op, both_int) with
          | Eq, true -> cmp_int ( = )
          | Ne, true -> cmp_int ( <> )
          | Lt, true -> cmp_int ( < )
          | Le, true -> cmp_int ( <= )
          | Gt, true -> cmp_int ( > )
          | Ge, true -> cmp_int ( >= )
          | Eq, false -> cmp_real ( = )
          | Ne, false -> cmp_real ( <> )
          | Lt, false -> cmp_real ( < )
          | Le, false -> cmp_real ( <= )
          | Gt, false -> cmp_real ( > )
          | Ge, false -> cmp_real ( >= )
          | _ -> assert false))

and compile_real cenv (e : expr) : rt -> float =
  match e with
  | Real_lit r -> fun _ -> r
  | Var v -> (
      match Hashtbl.find cenv.slots v with
      | Real_reg s -> fun rt -> rt.fr.(s)
      | _ -> failwith (Printf.sprintf "jit: %s not a real scalar" v))
  | Load (b, i) -> (
      let fi = as_int cenv i in
      match Hashtbl.find cenv.slots b with
      | Real_gbuf s -> fun rt -> rt.fbuf.(s).(fi rt)
      | Real_parr (s, _) -> fun rt -> rt.farr.(s).(fi rt)
      | Real_larr (s, _) -> fun rt -> rt.flarr.(s).(fi rt)
      | _ -> failwith (Printf.sprintf "jit: %s not a real array" b))
  | Unop (Neg, a) ->
      let fa = compile_real cenv a in
      fun rt -> -.(fa rt)
  | Unop (To_real, a) ->
      let fa = as_real cenv a in
      fa
  | Ternary (c, a, b) ->
      let fc = as_int cenv c and fa = as_real cenv a and fb = as_real cenv b in
      fun rt -> if fc rt <> 0 then fa rt else fb rt
  | Call (f, args) -> (
      let fargs = List.map (as_real cenv) args in
      match (f, fargs) with
      | Sqrt, [ a ] -> fun rt -> sqrt (a rt)
      | Fabs, [ a ] -> fun rt -> Float.abs (a rt)
      | Exp, [ a ] -> fun rt -> exp (a rt)
      | Log, [ a ] -> fun rt -> log (a rt)
      | Sin, [ a ] -> fun rt -> sin (a rt)
      | Cos, [ a ] -> fun rt -> cos (a rt)
      | Floor, [ a ] -> fun rt -> Float.floor (a rt)
      | Fmin, [ a; b ] -> fun rt -> Float.min (a rt) (b rt)
      | Fmax, [ a; b ] -> fun rt -> Float.max (a rt) (b rt)
      | _ -> failwith "jit: bad builtin arity")
  | Binop (op, a, b) -> (
      let fa = as_real cenv a and fb = as_real cenv b in
      match op with
      | Add -> fun rt -> fa rt +. fb rt
      | Sub -> fun rt -> fa rt -. fb rt
      | Mul -> fun rt -> fa rt *. fb rt
      | Div -> fun rt -> fa rt /. fb rt
      | Mod -> fun rt -> Float.rem (fa rt) (fb rt) (* C fmod *)
      | _ -> failwith "jit: non-arithmetic real binop")
  | Int_lit _ | Global_id _ | Global_size _ | Group_id _ | Local_id _ | Local_size _
  | Unop ((Not | To_int), _) ->
      failwith "jit: int expression in real context"

let rec compile_stmt cenv ~round_store (s : stmt) : rt -> unit =
  match s with
  | Comment _ -> fun _ -> ()
  | Decl (ty, v, init) -> (
      let slot = scalar_slot cenv v ty in
      match (slot, init) with
      (* an uninitialised declaration zeroes its register, like the
         reference interpreter's fresh cell — a register reused across
         work-items must not leak the previous work-item's value *)
      | Int_reg s, None -> fun rt -> rt.ir.(s) <- 0
      | Real_reg s, None -> fun rt -> rt.fr.(s) <- 0.
      | Int_reg s, Some e ->
          let f = as_int cenv e in
          fun rt -> rt.ir.(s) <- f rt
      | Real_reg s, Some e ->
          let f = as_real cenv e in
          fun rt -> rt.fr.(s) <- f rt
      | _ -> assert false)
  | Decl_arr (ty, v, n) -> (
      (* fresh zeroed array per evaluation in the interpreter; the JIT
         reuses one allocation per rt, so re-zero it here *)
      match parr_slot cenv v ty n with
      | Int_parr (s, len) -> fun rt -> Array.fill rt.iarr.(s) 0 len 0
      | Real_parr (s, len) -> fun rt -> Array.fill rt.farr.(s) 0 len 0.
      | _ -> assert false)
  | Decl_local (ty, v, n) -> (
      if cenv.cgrouped then
        (* allocated and zeroed once per group by the group scheduler *)
        fun _ -> ()
      else
        match parr_slot cenv v ty n with
        | Int_parr (s, len) -> fun rt -> Array.fill rt.iarr.(s) 0 len 0
        | Real_parr (s, len) -> fun rt -> Array.fill rt.farr.(s) 0 len 0.
        | _ -> assert false)
  | Barrier ->
      if cenv.cgrouped then fun _ -> Effect.perform Barrier_hit
      else fun _ -> () (* flat model: singleton groups need no sync *)
  | Assign (v, e) -> (
      match Hashtbl.find_opt cenv.slots v with
      | Some (Int_reg s) ->
          let f = as_int cenv e in
          fun rt -> rt.ir.(s) <- f rt
      | Some (Real_reg s) ->
          let f = as_real cenv e in
          fun rt -> rt.fr.(s) <- f rt
      | _ -> failwith (Printf.sprintf "jit: assign to unbound %s" v))
  | Store (b, i, e) -> (
      let fi = as_int cenv i in
      match Hashtbl.find_opt cenv.slots b with
      | Some (Int_gbuf s) ->
          let f = as_int cenv e in
          fun rt -> rt.ibuf.(s).(fi rt) <- f rt
      | Some (U8_gbuf s) ->
          (* keep the low 8 bits, like a C store to [uchar] *)
          let f = as_int cenv e in
          fun rt -> Bytes.set_uint8 rt.bbuf.(s) (fi rt) (f rt land 0xff)
      | Some (Int_parr (s, _)) ->
          let f = as_int cenv e in
          fun rt -> rt.iarr.(s).(fi rt) <- f rt
      | Some (Real_gbuf s) ->
          let f = as_real cenv e in
          if round_store then fun rt -> rt.fbuf.(s).(fi rt) <- Buffer.round32 (f rt)
          else fun rt -> rt.fbuf.(s).(fi rt) <- f rt
      | Some (Real_parr (s, _)) ->
          let f = as_real cenv e in
          fun rt -> rt.farr.(s).(fi rt) <- f rt
      | Some (Int_larr (s, _)) ->
          let f = as_int cenv e in
          fun rt -> rt.ilarr.(s).(fi rt) <- f rt
      | Some (Real_larr (s, _)) ->
          (* local arrays hold full doubles at either precision *)
          let f = as_real cenv e in
          fun rt -> rt.flarr.(s).(fi rt) <- f rt
      | _ -> failwith (Printf.sprintf "jit: store to unbound %s" b))
  | If (c, t, f) ->
      let fc = as_int cenv c in
      let ft = compile_body cenv ~round_store t in
      let ff = compile_body cenv ~round_store f in
      fun rt -> if fc rt <> 0 then ft rt else ff rt
  | For l ->
      let slot =
        match scalar_slot cenv l.var Int with
        | Int_reg s -> s
        | _ -> assert false
      in
      let finit = as_int cenv l.init in
      let fbound = as_int cenv l.bound in
      let fstep = as_int cenv l.step in
      let fbody = compile_body cenv ~round_store l.body in
      fun rt ->
        let i = ref (finit rt) in
        while !i < fbound rt do
          rt.ir.(slot) <- !i;
          fbody rt;
          i := !i + fstep rt
        done

and compile_body cenv ~round_store body =
  match List.map (compile_stmt cenv ~round_store) body with
  | [] -> fun _ -> ()
  | [ f ] -> f
  | fs -> fun rt -> List.iter (fun f -> f rt) fs

type param_binding =
  | Bind_ibuf of int
  | Bind_fbuf of int
  | Bind_u8buf of int
  | Bind_ireg of int
  | Bind_freg of int

type compiled = {
  kernel : kernel;
  bindings : param_binding list;
  n_ibuf : int;
  n_fbuf : int;
  n_u8buf : int;
  make_rt : unit -> rt;
  body : rt -> unit;
}

(* Compile a kernel once; the result can be launched many times. *)
let compile (k : kernel) : compiled =
  let cenv = fresh_cenv k in
  let n_ibuf = ref 0 and n_fbuf = ref 0 and n_u8buf = ref 0 in
  let bindings =
    List.map
      (fun p ->
        match (p.p_kind, p.p_ty) with
        | Global_buf, Int when p.p_storage = U8 ->
            let s = !n_u8buf in
            incr n_u8buf;
            Hashtbl.replace cenv.slots p.p_name (U8_gbuf s);
            Bind_u8buf s
        | Global_buf, Int ->
            let s = !n_ibuf in
            incr n_ibuf;
            Hashtbl.replace cenv.slots p.p_name (Int_gbuf s);
            Bind_ibuf s
        | Global_buf, Real ->
            let s = !n_fbuf in
            incr n_fbuf;
            Hashtbl.replace cenv.slots p.p_name (Real_gbuf s);
            Bind_fbuf s
        | Scalar_param, Int -> (
            match scalar_slot cenv p.p_name Int with
            | Int_reg s -> Bind_ireg s
            | _ -> assert false)
        | Scalar_param, Real -> (
            match scalar_slot cenv p.p_name Real with
            | Real_reg s -> Bind_freg s
            | _ -> assert false))
      k.params
  in
  List.iter (scan_stmt cenv) k.body;
  let round_store = k.precision = Single in
  let body = compile_body cenv ~round_store k.body in
  let parr_i = Array.of_list (List.rev cenv.parr_lens_i) in
  let parr_f = Array.of_list (List.rev cenv.parr_lens_f) in
  let larr_i = Array.of_list (List.rev cenv.larr_lens_i) in
  let larr_f = Array.of_list (List.rev cenv.larr_lens_f) in
  let make_rt () =
    {
      gid = Array.make 3 0;
      gsize = Array.make 3 1;
      lid = Array.make 3 0;
      wg = Array.make 3 0;
      ir = Array.make (max 1 cenv.n_ir) 0;
      fr = Array.make (max 1 cenv.n_fr) 0.;
      iarr = Array.map (fun n -> Array.make n 0) parr_i;
      farr = Array.map (fun n -> Array.make n 0.) parr_f;
      ilarr = Array.map (fun n -> Array.make n 0) larr_i;
      flarr = Array.map (fun n -> Array.make n 0.) larr_f;
      ibuf = [||];
      fbuf = [||];
      bbuf = [||];
    }
  in
  { kernel = k; bindings; n_ibuf = !n_ibuf; n_fbuf = !n_fbuf; n_u8buf = !n_u8buf; make_rt; body }

(* Bind launch arguments into a fresh rt.  Buffers are shared with the
   caller (stores are visible after the launch); scalars are copied into
   registers. *)
let bind (c : compiled) ~(args : Args.t list) ~(global : int list) : rt =
  if List.length args <> List.length c.kernel.params then
    invalid_arg
      (Printf.sprintf "vgpu jit: kernel %s expects %d args, got %d" c.kernel.name
         (List.length c.kernel.params) (List.length args));
  let rt = c.make_rt () in
  rt.ibuf <- Array.make (max 1 c.n_ibuf) [||];
  rt.fbuf <- Array.make (max 1 c.n_fbuf) [||];
  rt.bbuf <- Array.make (max 1 c.n_u8buf) Bytes.empty;
  List.iteri (fun d n -> rt.gsize.(d) <- n) global;
  List.iter2
    (fun binding (a : Args.t) ->
      match (binding, a) with
      | Bind_ibuf s, Buf (Buffer.I arr) -> rt.ibuf.(s) <- arr
      | Bind_fbuf s, Buf (Buffer.F arr) -> rt.fbuf.(s) <- arr
      | Bind_u8buf s, Buf (Buffer.U8 b) -> rt.bbuf.(s) <- b
      | Bind_ireg s, Int_arg v -> rt.ir.(s) <- v
      | Bind_freg s, Real_arg v -> rt.fr.(s) <- v
      | Bind_ireg s, Real_arg v -> rt.ir.(s) <- int_of_float v
      | Bind_freg s, Int_arg v -> rt.fr.(s) <- float_of_int v
      | _ ->
          invalid_arg
            (Printf.sprintf "vgpu jit: kernel %s: argument kind or storage mismatch"
               c.kernel.name))
    c.bindings args;
  rt

(* A private copy of a bound rt for another domain: registers (scalar
   arguments) are copied, global buffers are shared (safe because
   generated kernels write disjoint locations — see [Exec]), private
   arrays are fresh per domain as they are per work-item scratch. *)
let clone_rt (c : compiled) (src : rt) : rt =
  let rt = c.make_rt () in
  Array.blit src.ir 0 rt.ir 0 (Array.length src.ir);
  Array.blit src.fr 0 rt.fr 0 (Array.length src.fr);
  Array.blit src.gsize 0 rt.gsize 0 3;
  rt.ibuf <- Array.copy src.ibuf;
  rt.fbuf <- Array.copy src.fbuf;
  rt.bbuf <- Array.copy src.bbuf;
  rt

(* Run the kernel body over the NDRange with dimension [dim] restricted
   to the half-open range [lo, hi); the other dimensions run in full.
   The full global size stays visible through get_global_size. *)
let run_range (c : compiled) (rt : rt) ~dim ~lo ~hi =
  let gx = rt.gsize.(0) and gy = rt.gsize.(1) and gz = rt.gsize.(2) in
  let x0, x1 = if dim = 0 then (lo, hi) else (0, gx) in
  let y0, y1 = if dim = 1 then (lo, hi) else (0, gy) in
  let z0, z1 = if dim = 2 then (lo, hi) else (0, gz) in
  for z = z0 to z1 - 1 do
    for y = y0 to y1 - 1 do
      for x = x0 to x1 - 1 do
        rt.gid.(0) <- x;
        rt.gid.(1) <- y;
        rt.gid.(2) <- z;
        c.body rt
      done
    done
  done

(* {2 Work-group execution}

   Grouped kernels run one work-group at a time.  Each work-item of the
   group gets its own rt (private registers and scratch), all sharing
   the global buffers and one set of group-local arrays; barriers
   suspend work-item fibers until the whole group arrives, then resume
   them in local-id order — the same schedule as [Exec]. *)

type wi_state =
  | Wi_done
  | Wi_barrier of (unit, wi_state) Effect.Deep.continuation

let step_fiber (f : unit -> unit) : wi_state =
  Effect.Deep.match_with f ()
    {
      retc = (fun () -> Wi_done);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Barrier_hit ->
              Some (fun (kont : (a, wi_state) Effect.Deep.continuation) -> Wi_barrier kont)
          | _ -> None);
    }

(* Number of work-groups of a grouped kernel's launch; validates that
   the NDRange divides by the work-group size. *)
let group_count (c : compiled) ~(global : int list) =
  let gsize = Array.make 3 1 in
  List.iteri (fun d n -> gsize.(d) <- n) global;
  let g = group_counts c.kernel ~global:gsize in
  g.(0) * g.(1) * g.(2)

(* One rt per work-item of a group (lane 0 is [rt0]), group-local
   arrays shared across the group. *)
let group_rts (c : compiled) (rt0 : rt) : rt array =
  let l = local3 c.kernel in
  let nwi = l.(0) * l.(1) * l.(2) in
  Array.init nwi (fun lid ->
      if lid = 0 then rt0
      else begin
        let rt = clone_rt c rt0 in
        rt.ilarr <- rt0.ilarr;
        rt.flarr <- rt0.flarr;
        rt
      end)

(* Run work-groups with linear indices [lo, hi) (row-major z/y/x group
   order) on one set of per-work-item rts. *)
let run_group_range (c : compiled) (rts : rt array) ~lo ~hi =
  let l = local3 c.kernel in
  let groups = group_counts c.kernel ~global:rts.(0).gsize in
  let l0 = l.(0) and l1 = l.(1) in
  let shared_i = rts.(0).ilarr and shared_f = rts.(0).flarr in
  for g = lo to hi - 1 do
    let wx = g mod groups.(0) in
    let wy = g / groups.(0) mod groups.(1) in
    let wz = g / (groups.(0) * groups.(1)) in
    Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) shared_i;
    Array.iter (fun a -> Array.fill a 0 (Array.length a) 0.) shared_f;
    Array.iteri
      (fun lid rt ->
        let lx = lid mod l0 and ly = lid / l0 mod l1 and lz = lid / (l0 * l1) in
        rt.lid.(0) <- lx;
        rt.lid.(1) <- ly;
        rt.lid.(2) <- lz;
        rt.wg.(0) <- wx;
        rt.wg.(1) <- wy;
        rt.wg.(2) <- wz;
        rt.gid.(0) <- (wx * l0) + lx;
        rt.gid.(1) <- (wy * l1) + ly;
        rt.gid.(2) <- (wz * l.(2)) + lz)
      rts;
    let states = Array.map (fun rt -> step_fiber (fun () -> c.body rt)) rts in
    let all p = Array.for_all p states in
    let finished = ref (all (fun s -> s = Wi_done)) in
    while not !finished do
      if not (all (fun s -> s <> Wi_done)) then
        failwith
          (Printf.sprintf
             "jit: kernel %s: barrier divergence in work-group (%d,%d,%d)" c.kernel.name
             wx wy wz);
      Array.iteri
        (fun i s ->
          match s with
          | Wi_barrier kont -> states.(i) <- Effect.Deep.continue kont ()
          | Wi_done -> assert false)
        states;
      finished := all (fun s -> s = Wi_done)
    done
  done

(* Launch a compiled kernel over the full NDRange, sequentially. *)
let launch (c : compiled) ~(args : Args.t list) ~(global : int list) =
  let rt = bind c ~args ~global in
  if grouped c.kernel then
    run_group_range c (group_rts c rt) ~lo:0 ~hi:(group_count c ~global)
  else run_range c rt ~dim:2 ~lo:0 ~hi:rt.gsize.(2)
