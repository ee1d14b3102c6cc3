(* Host-side Lift: the primitives of paper §IV-A (Table I) and their code
   generation.

   A host program orchestrates data movement and kernel launches:

     OclKernel(f, args...)   launch a device kernel compiled from the
                             Lift program [f]
     ToGPU / ToHost          transfer a buffer (identity semantics)
     WriteTo(to, e)          make [e]'s output land in [to]'s buffer

   Host programs compile to two artifacts:
   - an executable [Vgpu.Runtime.plan] (the simulated OpenCL host run);
   - OpenCL-style host C source, for inspection (setArg /
     enqueueNDRangeKernel / enqueueWriteBuffer / enqueueReadBuffer). *)

open Kernel_ast

exception Host_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Host_error s)) fmt

type hexpr =
  | H_input of Ast.param          (* a host-resident input buffer *)
  | H_int of int
  | H_real of float
  | H_to_gpu of hexpr
  | H_to_host of hexpr
  | H_kernel of { k_name : string; f : Ast.lam; args : hexpr list }
  | H_write_to of hexpr * hexpr   (* target, value *)
  | H_let of Ast.param * hexpr * hexpr
  | H_tuple of hexpr list

let input p = H_input p
let to_gpu e = H_to_gpu e
let to_host e = H_to_host e
let ocl_kernel ~name f args = H_kernel { k_name = name; f; args }
let write_to t v = H_write_to (t, v)

(* What a host expression denotes after compilation. *)
type denot =
  | D_buf of string * Ty.t
  | D_int of int
  | D_real of float
  | D_tuple of denot list

type compiled_host = {
  plan : Vgpu.Runtime.plan;
  kernels : Codegen.compiled list;
  source : string; (* OpenCL-style host pseudo-C *)
  result : denot;
  buffer_elems : (string * int) list;
      (* extent of every buffer the plan touches, as resolved at compile
         time — inputs, kernel outputs and temporaries alike; consumed
         by the emitted C skeleton ([Emit_c.of_host]) *)
}

type st = {
  mutable ops : Vgpu.Runtime.op list; (* reversed *)
  mutable lines : string list;        (* reversed *)
  mutable kernels : Codegen.compiled list;
  mutable fresh : int;
  mutable elems : (string * int) list; (* buffer extents, reversed *)
  sizes : string -> int option;
  precision : Cast.precision;
  venv : (int, denot) Hashtbl.t;
}

let push_op st op = st.ops <- op :: st.ops
let push_line st fmt = Printf.ksprintf (fun s -> st.lines <- s :: st.lines) fmt

let note_elems st name n =
  if not (List.mem_assoc name st.elems) then st.elems <- (name, n) :: st.elems

let fresh st base =
  st.fresh <- st.fresh + 1;
  Printf.sprintf "%s_%d" base st.fresh

let eval_size st (s : Size.t) =
  try Size.eval st.sizes s
  with Failure m -> err "host: %s" m

let eval_cexpr st (e : Cast.expr) : int =
  match Cast.eval_int st.sizes (Cast.simplify e) with
  | Some n -> n
  | None -> err "host: unbound or non-arithmetic size expression"

let elems_of_ty st (ty : Ty.t) = eval_size st (Ty.scalar_count ty)

let cast_ty_of (ty : Ty.t) =
  match Ty.leaf_scalar ty with
  | Some s -> Ty.to_cast_scalar s
  | None -> err "host: unstorable type %s" (Ty.to_string ty)

let rec compile_hexpr st (e : hexpr) : denot =
  match e with
  | H_input p -> (
      (* a let-bound name shadows an input of the same param *)
      match Hashtbl.find_opt st.venv p.Ast.p_id with
      | Some d -> d
      | None ->
          if Ty.is_scalar p.Ast.p_ty then err "host: scalar inputs must be H_int/H_real"
          else begin
            (match elems_of_ty st p.Ast.p_ty with
            | n -> note_elems st p.Ast.p_name n
            | exception Host_error _ -> ());
            D_buf (p.Ast.p_name, p.Ast.p_ty)
          end)
  | H_int n -> D_int n
  | H_real r -> D_real r
  | H_to_gpu e -> (
      match compile_hexpr st e with
      | D_buf (name, ty) ->
          push_op st (Vgpu.Runtime.Copy_to_gpu name);
          push_line st "enqueueWriteBuffer(queue, %s_g, CL_TRUE, 0, sizeof(%s)*%d, %s);" name
            (Print.ty_name st.precision (cast_ty_of ty))
            (elems_of_ty st ty) name;
          D_buf (name, ty)
      | d -> d)
  | H_to_host e -> (
      match compile_hexpr st e with
      | D_buf (name, ty) ->
          push_op st (Vgpu.Runtime.Copy_to_host name);
          push_line st "enqueueReadBuffer(queue, %s_g, CL_TRUE, 0, sizeof(%s)*%d, %s);" name
            (Print.ty_name st.precision (cast_ty_of ty))
            (elems_of_ty st ty) name;
          D_buf (name, ty)
      | d -> d)
  | H_let (p, v, b) ->
      let d = compile_hexpr st v in
      Hashtbl.replace st.venv p.Ast.p_id d;
      compile_hexpr st b
  | H_tuple es -> D_tuple (List.map (compile_hexpr st) es)
  | H_write_to (t, v) -> (
      let dt = compile_hexpr st t in
      match (dt, v) with
      | D_buf (name, _), H_kernel { k_name; f; args } ->
          compile_kernel_call st ~k_name ~f ~args ~out_override:(Some name)
      | D_buf _, _ ->
          (* value must already write into the target (device WriteTo) *)
          let _ = compile_hexpr st v in
          dt
      | _ -> err "host: WriteTo target is not a buffer")
  | H_kernel { k_name; f; args } -> compile_kernel_call st ~k_name ~f ~args ~out_override:None

and compile_kernel_call st ~k_name ~f ~args ~out_override : denot =
  let c = Codegen.compile_kernel ~name:k_name ~precision:st.precision f in
  st.kernels <- c :: st.kernels;
  let k = c.Codegen.kernel in
  (* Evaluate argument denotations, in lambda-parameter order. *)
  if List.length args <> List.length f.Ast.l_params then
    err "host: kernel %s expects %d args, got %d" k_name (List.length f.Ast.l_params)
      (List.length args);
  let denots = List.map (compile_hexpr st) args in
  let by_param =
    List.map2 (fun (p : Ast.param) d -> (p.Ast.p_name, d)) f.Ast.l_params denots
  in
  (* Output buffer, if the kernel produces one. *)
  let out_binding =
    match c.Codegen.out_param with
    | None -> []
    | Some out ->
        let name =
          match out_override with Some n -> n | None -> fresh st k_name ^ "_out"
        in
        if out_override = None then begin
          let elems = elems_of_ty st c.Codegen.result_ty in
          push_op st
            (Vgpu.Runtime.Alloc { name; ty = cast_ty_of c.Codegen.result_ty; elems });
          note_elems st name elems;
          push_line st "cl_mem %s = clCreateBuffer(ctx, CL_MEM_READ_WRITE, %d);" name elems
        end
        else (
          match elems_of_ty st c.Codegen.result_ty with
          | elems -> note_elems st name elems
          | exception Host_error _ -> ());
        [ (out, D_buf (name, c.Codegen.result_ty)) ]
  in
  let temp_bindings =
    List.map
      (fun (tname, ty) ->
        let name = fresh st "tmp" in
        let elems = elems_of_ty st ty in
        push_op st (Vgpu.Runtime.Alloc { name; ty = cast_ty_of ty; elems });
        note_elems st name elems;
        (tname, D_buf (name, ty)))
      c.Codegen.temp_params
  in
  let bindings = by_param @ out_binding @ temp_bindings in
  let resolve (p : Cast.param) : Vgpu.Runtime.arg =
    match List.assoc_opt p.Cast.p_name bindings with
    | Some (D_buf (n, _)) -> Vgpu.Runtime.A_buf n
    | Some (D_int n) -> Vgpu.Runtime.A_int n
    | Some (D_real r) -> Vgpu.Runtime.A_real r
    | Some (D_tuple _) -> err "host: tuple passed as kernel argument"
    | None -> (
        (* size variables resolve through the size environment *)
        match st.sizes p.Cast.p_name with
        | Some n -> Vgpu.Runtime.A_int n
        | None -> err "host: cannot resolve kernel argument %s" p.Cast.p_name)
  in
  let rargs = List.map resolve k.Cast.params in
  let global = List.map (eval_cexpr st) k.Cast.global_size in
  List.iteri
    (fun i (a : Vgpu.Runtime.arg) ->
      match a with
      | Vgpu.Runtime.A_buf n -> push_line st "clSetKernelArg(%s, %d, %s_g);" k_name i n
      | Vgpu.Runtime.A_int v -> push_line st "clSetKernelArg(%s, %d, %d);" k_name i v
      | Vgpu.Runtime.A_real v -> push_line st "clSetKernelArg(%s, %d, %g);" k_name i v)
    rargs;
  push_line st "enqueueNDRangeKernel(queue, %s, global={%s});" k_name
    (String.concat ", " (List.map string_of_int global));
  (* The second kernel consumes the first kernel's output: an in-order
     queue provides the synchronisation the paper describes in §V-A. *)
  push_op st (Vgpu.Runtime.Launch { kernel = k; args = rargs; global; spans = None });
  match (c.Codegen.out_param, out_override) with
  | Some _, Some name -> D_buf (name, c.Codegen.result_ty)
  | Some out, None -> List.assoc out bindings
  | None, _ -> (
      (* self-writing kernel: denote the buffer of its first in-place
         written argument (the device WriteTo target) *)
      match c.Codegen.written_params with
      | w :: _ -> (
          match List.assoc_opt w bindings with
          | Some d -> d
          | None -> err "host: written parameter %s not bound" w)
      | [] -> err "host: kernel %s writes nothing" k_name)

(* Compile a host program.  [sizes] resolves size variables; inputs are
   bound by name in the runtime before execution. *)
let compile ?(precision = Cast.Double) ~sizes (e : hexpr) : compiled_host =
  let st =
    {
      ops = [];
      lines = [];
      kernels = [];
      fresh = 0;
      elems = [];
      sizes;
      precision;
      venv = Hashtbl.create 8;
    }
  in
  let result = compile_hexpr st e in
  {
    plan = List.rev st.ops;
    kernels = List.rev st.kernels;
    source = String.concat "\n" (List.rev st.lines) ^ "\n";
    result;
    buffer_elems = List.rev st.elems;
  }

(* Execute a compiled host program on a runtime whose buffer table
   already binds every input buffer. *)
let run (c : compiled_host) (rt : Vgpu.Runtime.t) = Vgpu.Runtime.run rt c.plan

(* Time stepping (paper §V-A: "for an actual application the two kernels
   are executed iteratively"): repeat the per-step plan [times] times,
   rotating buffer bindings between steps.  [rotate] lists cyclic
   rotations, e.g. [["prev"; "curr"; "next"]] makes the freshly written
   next grid the new curr, as the simulation drivers do. *)
let iterate ~times ~(rotate : string list list) (c : compiled_host) : Vgpu.Runtime.plan =
  if times < 0 then err "host: negative iteration count";
  let swaps =
    List.concat_map
      (fun cycle ->
        (* rotate left by one: [a;b;c] -> bindings a<-b, b<-c, c<-a *)
        match cycle with
        | [] | [ _ ] -> []
        | _ :: _ ->
            let rec pairs = function
              | x :: (y :: _ as tl) -> Vgpu.Runtime.Swap (x, y) :: pairs tl
              | _ -> []
            in
            pairs cycle)
      rotate
  in
  List.concat (List.init times (fun _ -> c.plan @ swaps))
