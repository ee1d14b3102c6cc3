(* Reference interpreter for kernel ASTs.

   Executes a kernel over an NDRange exactly as an OpenCL device would,
   one work-item at a time.  This is the slow, obviously-correct
   implementation: the oracle the native backend ([Native]) and the Lift
   code generator are cross-validated against, and the engine the
   sanitizer runs on; benchmarks use the native backend.

   Flat kernels run their work-items sequentially in row-major NDRange
   order.  Their work-items share nothing but global buffers, so
   sequential execution is observationally equivalent to any parallel
   schedule as long as distinct work-items write distinct locations.
   That claim is checked rather than assumed: [Kernel_ast.Check] proves
   it statically where it can, and the [hook] below lets [Sanitizer]
   observe every memory access to verify the rest at runtime.  Grouped
   kernels (the work-group tier) also share local memory within a group,
   ordered by barriers; they run one group at a time, each work-item a
   fiber suspended at every barrier (see [launch]). *)

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
  lsize : int array;  (* work-group size; [|1;1;1|] when flat *)
  is_grouped : bool;
  precision : precision;
  kernel : string;
  hook : access_hook option;
}

(* Work-group execution: each work-item of a group runs as a fiber;
   [Barrier] performs this effect, suspending the fiber until every
   sibling has reached the same barrier (all-or-nothing: a group whose
   members disagree on hitting a barrier is divergent and faults). *)
type _ Effect.t += Barrier_hit : unit Effect.t

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
  (* flat model: every work-item is its own singleton group *)
  | Group_id d -> Vi (env.gid.(d) / env.lsize.(d))
  | Local_id d -> Vi (env.gid.(d) mod env.lsize.(d))
  | Local_size d -> Vi env.lsize.(d)
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
  | Decl_local (ty, v, n) ->
      (* grouped: the shared array was allocated (zeroed) at group
         start; the declaration itself is a no-op.  Flat: each
         work-item is its own group, so a fresh array is exactly a
         private one. *)
      if not env.is_grouped then
        Hashtbl.replace env.cells v
          (match ty with
          | Int -> Arr_int (Array.make n 0)
          | Real -> Arr_real (Array.make n 0.))
  | Barrier -> if env.is_grouped then Effect.perform Barrier_hit
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

(* Local arrays of a grouped kernel, allocated fresh (zeroed) per group
   and shared by all its work-items. *)
let rec local_decls acc = function
  | [] -> acc
  | Decl_local (ty, v, n) :: rest -> local_decls ((ty, v, n) :: acc) rest
  | If (_, t, f) :: rest -> local_decls (local_decls (local_decls acc t) f) rest
  | For l :: rest -> local_decls (local_decls acc l.body) rest
  | _ :: rest -> local_decls acc rest

(* One scheduling step of a work-item fiber: run until it completes,
   hits a barrier, or raises. *)
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

(* Launch [k] over [global] work items (per dimension, row-major).
   [args] are matched positionally against [k.params].

   Grouped kernels run one work-group at a time (groups in row-major
   order, like the flat NDRange loop).  Within a group each work-item is
   a fiber; a [Barrier] suspends it, and when every member of the group
   has suspended they are resumed together in local-id order.  A group
   where some members finish while others wait on a barrier is
   divergent and faults. *)
let launch ?hook ?on_workitem ?on_group ?on_barrier (k : kernel) ~(args : Args.t list)
    ~(global : int list) =
  if List.length args <> List.length k.params then
    invalid_arg
      (Printf.sprintf "vgpu: kernel %s expects %d args, got %d" k.name
         (List.length k.params) (List.length args));
  check_ndrange k ~global;
  let gsize = Array.make 3 1 in
  List.iteri (fun d n -> if d < 3 then gsize.(d) <- n) global;
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
  if not (grouped k) then begin
    let gid = Array.make 3 0 in
    let env =
      {
        cells;
        gid;
        gsize;
        lsize = [| 1; 1; 1 |];
        is_grouped = false;
        precision = k.precision;
        kernel = k.name;
        hook;
      }
    in
    for z = 0 to gsize.(2) - 1 do
      for y = 0 to gsize.(1) - 1 do
        for x = 0 to gsize.(0) - 1 do
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
  end
  else begin
    let lsize = local3 k in
    let groups = group_counts k ~global:gsize in
    let l0 = lsize.(0) and l1 = lsize.(1) and l2 = lsize.(2) in
    let nwi = l0 * l1 * l2 in
    let locals = local_decls [] k.body in
    let cur_gid = ref (0, 0, 0) in
    let wrap f =
      try f () with
      | Failure msg ->
          raise (Exec_error { e_kernel = k.name; e_gid = !cur_gid; e_context = msg })
      | Invalid_argument msg ->
          raise
            (Exec_error
               { e_kernel = k.name; e_gid = !cur_gid; e_context = "invalid access: " ^ msg })
    in
    for wz = 0 to groups.(2) - 1 do
      for wy = 0 to groups.(1) - 1 do
        for wx = 0 to groups.(0) - 1 do
          (match on_group with Some f -> f (wx, wy, wz) | None -> ());
          (* shared local arrays, fresh (zeroed) per group *)
          let local_cells =
            List.map
              (fun (ty, v, n) ->
                ( v,
                  match (ty : ty) with
                  | Int -> Arr_int (Array.make n 0)
                  | Real -> Arr_real (Array.make n 0.) ))
              locals
          in
          (* one env (private cells) per work-item, sharing buffers,
             scalar-parameter snapshots and the group's local arrays *)
          let envs =
            Array.init nwi (fun lid ->
                let lx = lid mod l0 and ly = lid / l0 mod l1 and lz = lid / (l0 * l1) in
                let wi_cells = Hashtbl.create 32 in
                Hashtbl.iter
                  (fun name cell ->
                    Hashtbl.replace wi_cells name
                      (match cell with Scalar r -> Scalar (ref !r) | c -> c))
                  cells;
                List.iter (fun (v, c) -> Hashtbl.replace wi_cells v c) local_cells;
                {
                  cells = wi_cells;
                  gid = [| (wx * l0) + lx; (wy * l1) + ly; (wz * l2) + lz |];
                  gsize;
                  lsize;
                  is_grouped = true;
                  precision = k.precision;
                  kernel = k.name;
                  hook;
                })
          in
          let notify env =
            let g = (env.gid.(0), env.gid.(1), env.gid.(2)) in
            cur_gid := g;
            match on_workitem with Some f -> f g | None -> ()
          in
          let states =
            Array.map
              (fun env ->
                wrap (fun () ->
                    notify env;
                    step_fiber (fun () -> List.iter (exec_stmt env) k.body)))
              envs
          in
          let divergence () =
            raise
              (Exec_error
                 {
                   e_kernel = k.name;
                   e_gid = !cur_gid;
                   e_context =
                     Printf.sprintf
                       "barrier divergence in work-group (%d,%d,%d): some work-items \
                        finished while others wait at a barrier"
                       wx wy wz;
                 })
          in
          let all p = Array.for_all p states in
          let finished = ref (all (fun s -> s = Wi_done)) in
          while not !finished do
            if not (all (fun s -> s <> Wi_done)) then divergence ();
            (match on_barrier with Some f -> f () | None -> ());
            Array.iteri
              (fun i s ->
                match s with
                | Wi_barrier kont ->
                    states.(i) <-
                      wrap (fun () ->
                          notify envs.(i);
                          Effect.Deep.continue kont ())
                | Wi_done -> assert false)
              states;
            finished := all (fun s -> s = Wi_done)
          done
        done
      done
    done
  end
