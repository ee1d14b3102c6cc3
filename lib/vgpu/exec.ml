(* Reference interpreter for kernel ASTs.

   Executes a kernel over an NDRange exactly as an OpenCL device would,
   one work-item at a time.  This is the slow, obviously-correct
   implementation: the oracle the native backend ([Native]) and the Lift
   code generator are cross-validated against, and the engine the
   sanitizer runs on; benchmarks use the native backend.

   Work-items run sequentially in row-major NDRange order.  They share
   nothing but global buffers, so sequential execution is observationally
   equivalent to any parallel schedule as long as distinct work-items
   write distinct locations.  That claim is checked rather than assumed:
   [Kernel_ast.Check] proves it statically where it can, and the [hook]
   below lets [Sanitizer] observe every memory access to verify the rest
   at runtime. *)

open Kernel_ast.Cast

exception
  Exec_error of {
    e_kernel : string;
    e_gid : int * int * int;
    e_context : string;
  }

let () =
  Printexc.register_printer (function
    | Exec_error { e_kernel; e_gid = x, y, z; e_context } ->
        Some
          (Printf.sprintf "Exec_error(kernel %s, work-item (%d,%d,%d): %s)" e_kernel x y z
             e_context)
    | _ -> None)

type access_hook = {
  on_load : name:string -> buf:Buffer.t option -> len:int -> idx:int -> bool;
  on_store : name:string -> buf:Buffer.t option -> len:int -> idx:int -> bool;
}
(* [buf] is the global buffer being accessed ([None] for private
   arrays); [len] its extent.  Returning [false] suppresses the access:
   the store is skipped, the load yields zero.  The current work-item is
   whatever the hook installer last observed via [set_gid]. *)

type value =
  | Vi of int
  | Vr of float

let as_int = function Vi i -> i | Vr r -> int_of_float r
let as_real = function Vr r -> r | Vi i -> float_of_int i

type cell =
  | Scalar of value ref
  | Arr_int of int array
  | Arr_real of float array
  | Global of Buffer.t

type env = {
  cells : (string, cell) Hashtbl.t;
  gid : int array;
  gsize : int array;
  precision : precision;
  kernel : string;
  hook : access_hook option;
}

let error env fmt =
  Printf.ksprintf
    (fun e_context ->
      raise
        (Exec_error
           { e_kernel = env.kernel; e_gid = (env.gid.(0), env.gid.(1), env.gid.(2)); e_context }))
    fmt

let lookup env name =
  match Hashtbl.find_opt env.cells name with
  | Some c -> c
  | None -> error env "unbound name %s" name

let store_round env v = match env.precision with Single -> Buffer.round32 v | Double -> v

let builtin_eval (f : builtin) (args : float list) =
  match (f, args) with
  | Sqrt, [ x ] -> sqrt x
  | Fabs, [ x ] -> Float.abs x
  | Exp, [ x ] -> exp x
  | Log, [ x ] -> log x
  | Sin, [ x ] -> sin x
  | Cos, [ x ] -> cos x
  | Floor, [ x ] -> Float.floor x
  | Fmin, [ x; y ] -> Float.min x y
  | Fmax, [ x; y ] -> Float.max x y
  | _ -> failwith "vgpu interpreter: bad builtin arity"

let allow_load env ~name ~buf ~len ~idx =
  match env.hook with None -> true | Some h -> h.on_load ~name ~buf ~len ~idx

let allow_store env ~name ~buf ~len ~idx =
  match env.hook with None -> true | Some h -> h.on_store ~name ~buf ~len ~idx

let rec eval env (e : expr) : value =
  match e with
  | Int_lit n -> Vi n
  | Real_lit r -> Vr r
  | Global_id d -> Vi env.gid.(d)
  | Global_size d -> Vi env.gsize.(d)
  | Var v -> (
      match lookup env v with
      | Scalar r -> !r
      | Arr_int _ | Arr_real _ | Global _ -> error env "%s used as scalar" v)
  | Load (b, i) -> (
      let idx = as_int (eval env i) in
      match lookup env b with
      | Global buf ->
          if allow_load env ~name:b ~buf:(Some buf) ~len:(Buffer.length buf) ~idx then
            match Buffer.ty buf with
            | Real -> Vr (Buffer.get_real buf idx)
            | Int -> Vi (Buffer.get_int buf idx)
          else Vi 0
      | Arr_int a ->
          if allow_load env ~name:b ~buf:None ~len:(Array.length a) ~idx then Vi a.(idx)
          else Vi 0
      | Arr_real a ->
          if allow_load env ~name:b ~buf:None ~len:(Array.length a) ~idx then Vr a.(idx)
          else Vr 0.
      | Scalar _ -> error env "%s used as array" b)
  | Unop (op, a) -> (
      let v = eval env a in
      match op with
      | Neg -> ( match v with Vi i -> Vi (-i) | Vr r -> Vr (-.r))
      | Not -> Vi (if as_int v = 0 then 1 else 0)
      | To_real -> Vr (as_real v)
      | To_int -> Vi (as_int v))
  | Ternary (c, a, b) -> if as_int (eval env c) <> 0 then eval env a else eval env b
  | Call (f, args) -> Vr (builtin_eval f (List.map (fun a -> as_real (eval env a)) args))
  | Binop (op, a, b) -> binop op (eval env a) (eval env b)

and binop op va vb =
  let arith fi fr =
    match (va, vb) with
    | Vi x, Vi y -> Vi (fi x y)
    | _ -> Vr (fr (as_real va) (as_real vb))
  in
  let compare cmp = Vi (if cmp (Stdlib.compare (as_real va) (as_real vb)) 0 then 1 else 0) in
  match op with
  | Add -> arith ( + ) ( +. )
  | Sub -> arith ( - ) ( -. )
  | Mul -> arith ( * ) ( *. )
  | Div -> arith ( / ) ( /. )
  | Mod -> arith (fun x y -> x mod y) Float.rem (* C %, fmod on reals *)
  | Eq -> compare ( = )
  | Ne -> compare ( <> )
  | Lt -> compare ( < )
  | Le -> compare ( <= )
  | Gt -> compare ( > )
  | Ge -> compare ( >= )
  | And -> Vi (if as_int va <> 0 && as_int vb <> 0 then 1 else 0)
  | Or -> Vi (if as_int va <> 0 || as_int vb <> 0 then 1 else 0)
  | Shr -> Vi (as_int va asr as_int vb)
  | BAnd -> Vi (as_int va land as_int vb)

let rec exec_stmt env (s : stmt) =
  match s with
  | Comment _ -> ()
  | Decl (ty, v, init) ->
      let value =
        match init with
        | Some e -> eval env e
        | None -> ( match ty with Int -> Vi 0 | Real -> Vr 0.)
      in
      Hashtbl.replace env.cells v (Scalar (ref value))
  | Decl_arr (ty, v, n) ->
      let cell =
        match ty with Int -> Arr_int (Array.make n 0) | Real -> Arr_real (Array.make n 0.)
      in
      Hashtbl.replace env.cells v cell
  | Assign (v, e) -> (
      match lookup env v with
      | Scalar r -> r := eval env e
      | _ -> error env "assign to non-scalar %s" v)
  | Store (b, i, e) -> (
      let idx = as_int (eval env i) in
      let v = eval env e in
      match lookup env b with
      | Global buf ->
          if allow_store env ~name:b ~buf:(Some buf) ~len:(Buffer.length buf) ~idx then (
            match Buffer.ty buf with
            | Real -> Buffer.set_real buf idx (store_round env (as_real v))
            | Int -> Buffer.set_int buf idx (as_int v))
      | Arr_int a ->
          if allow_store env ~name:b ~buf:None ~len:(Array.length a) ~idx then a.(idx) <- as_int v
      | Arr_real a ->
          if allow_store env ~name:b ~buf:None ~len:(Array.length a) ~idx then
            a.(idx) <- as_real v
      | Scalar _ -> error env "store to scalar %s" b)
  | If (c, t, f) ->
      if as_int (eval env c) <> 0 then List.iter (exec_stmt env) t
      else List.iter (exec_stmt env) f
  | For l ->
      let i = ref (as_int (eval env l.init)) in
      let cell = Scalar (ref (Vi !i)) in
      Hashtbl.replace env.cells l.var cell;
      let bound () = as_int (eval env l.bound) in
      let step () = as_int (eval env l.step) in
      while !i < bound () do
        (match cell with Scalar r -> r := Vi !i | _ -> ());
        List.iter (exec_stmt env) l.body;
        i := !i + step ()
      done

(* Launch [k] over [global] work items (per dimension, row-major),
   dimension 0 over [spans] (all of it by default).  [args] are matched
   positionally against [k.params]. *)
let launch ?hook ?on_workitem ?spans (k : kernel) ~(args : Args.t list) ~(global : int list) =
  if List.length args <> List.length k.params then
    invalid_arg
      (Printf.sprintf "vgpu: kernel %s expects %d args, got %d" k.name
         (List.length k.params) (List.length args));
  check_ndrange k ~global;
  let gsize = Array.make 3 1 in
  List.iteri (fun d n -> if d < 3 then gsize.(d) <- n) global;
  let spans =
    match spans with
    | Some s ->
        Spans.check s ~n:gsize.(0);
        s
    | None -> Spans.full gsize.(0)
  in
  let cells = Hashtbl.create 32 in
  List.iter2
    (fun p (a : Args.t) ->
      match (p.p_kind, a) with
      | Global_buf, Buf b -> Hashtbl.replace cells p.p_name (Global b)
      | Scalar_param, Int_arg i -> Hashtbl.replace cells p.p_name (Scalar (ref (Vi i)))
      | Scalar_param, Real_arg r -> Hashtbl.replace cells p.p_name (Scalar (ref (Vr r)))
      | Scalar_param, Buf _ ->
          invalid_arg (Printf.sprintf "vgpu: %s: buffer passed for scalar %s" k.name p.p_name)
      | Global_buf, (Int_arg _ | Real_arg _) ->
          invalid_arg (Printf.sprintf "vgpu: %s: scalar passed for buffer %s" k.name p.p_name))
    k.params args;
  let gid = Array.make 3 0 in
  let env = { cells; gid; gsize; precision = k.precision; kernel = k.name; hook } in
  for z = 0 to gsize.(2) - 1 do
    for y = 0 to gsize.(1) - 1 do
      for s = 0 to Spans.length spans - 1 do
        for x = Spans.lo spans s to Spans.hi spans s - 1 do
          gid.(0) <- x;
          gid.(1) <- y;
          gid.(2) <- z;
          (match on_workitem with Some f -> f (x, y, z) | None -> ());
          try List.iter (exec_stmt env) k.body with
          | Failure msg ->
              raise (Exec_error { e_kernel = k.name; e_gid = (x, y, z); e_context = msg })
          | Invalid_argument msg ->
              raise
                (Exec_error
                   { e_kernel = k.name; e_gid = (x, y, z); e_context = "invalid access: " ^ msg })
        done
      done
    done
  done
