(* The host runtime, the OpenCL printer and the standalone C emitter. *)

open Kernel_ast

let double_kernel =
  let open Cast in
  {
    name = "scale";
    precision = Double;
    params = [ param "a" Real; param ~kind:Scalar_param "k" Real; param ~kind:Scalar_param "n" Int ];
    global_size = [ Var "n" ];
    local_size = [];
    body =
      [
        Decl (Int, "i", Some (Global_id 0));
        If
          ( Binop (Lt, Var "i", Var "n"),
            [ Store ("a", Var "i", Binop (Mul, Load ("a", Var "i"), Var "k")) ],
            [] );
      ];
  }

let test_runtime_plan () =
  let rt = Vgpu.Runtime.create () in
  let data = [| 1.; 2.; 3.; 4. |] in
  Vgpu.Runtime.bind rt "a" (Vgpu.Buffer.F data);
  let plan : Vgpu.Runtime.plan =
    [
      Vgpu.Runtime.Copy_to_gpu "a";
      Vgpu.Runtime.Alloc { name = "scratch"; ty = Cast.Real; elems = 8 };
      Vgpu.Runtime.Launch
        {
          kernel = double_kernel;
          args = [ Vgpu.Runtime.A_buf "a"; Vgpu.Runtime.A_real 10.; Vgpu.Runtime.A_int 4 ];
          global = [ 4 ];
        };
      Vgpu.Runtime.Copy_to_host "a";
    ]
  in
  Vgpu.Runtime.run rt plan;
  Alcotest.(check (list (float 0.))) "kernel ran" [ 10.; 20.; 30.; 40. ] (Array.to_list data);
  Alcotest.(check int) "one launch" 1 rt.Vgpu.Runtime.launches;
  Alcotest.(check int) "h2d bytes" (8 * 4) rt.Vgpu.Runtime.h2d_bytes;
  Alcotest.(check int) "d2h bytes" (8 * 4) rt.Vgpu.Runtime.d2h_bytes;
  Alcotest.(check int) "scratch allocated" 8 (Vgpu.Buffer.length (Vgpu.Runtime.buffer rt "scratch"));
  (* unknown buffer is an error *)
  (match Vgpu.Runtime.run rt [ Vgpu.Runtime.Copy_to_gpu "ghost" ] with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "unknown buffer accepted");
  (* both engines execute the same plan *)
  let rt2 = Vgpu.Runtime.create ~engine:Vgpu.Runtime.Interp () in
  let data2 = [| 1.; 2. |] in
  Vgpu.Runtime.bind rt2 "a" (Vgpu.Buffer.F data2);
  Vgpu.Runtime.run rt2
    [ Vgpu.Runtime.Launch
        { kernel = double_kernel;
          args = [ Vgpu.Runtime.A_buf "a"; Vgpu.Runtime.A_real 3.; Vgpu.Runtime.A_int 2 ];
          global = [ 2 ] } ];
  Alcotest.(check (list (float 0.))) "interp engine" [ 3.; 6. ] (Array.to_list data2)

(* Alloc reuse must be validated: rebinding a name is fine only when the
   existing buffer matches the plan's element type and count. *)
let test_alloc_validation () =
  let rt = Vgpu.Runtime.create () in
  let alloc ?(name = "s") ty elems = Vgpu.Runtime.Alloc { name; ty; elems } in
  (* first alloc, then an identical one reusing the binding *)
  Vgpu.Runtime.run rt [ alloc Cast.Real 8; alloc Cast.Real 8 ];
  let b = Vgpu.Runtime.buffer rt "s" in
  Vgpu.Runtime.run rt [ alloc Cast.Real 8 ];
  Alcotest.(check bool) "matching alloc reuses the buffer" true (b == Vgpu.Runtime.buffer rt "s");
  (* size mismatch rejected *)
  (match Vgpu.Runtime.run rt [ alloc Cast.Real 16 ] with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "size-mismatched alloc reuse accepted");
  (* type mismatch rejected *)
  match Vgpu.Runtime.run rt [ alloc Cast.Int 8 ] with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "type-mismatched alloc reuse accepted"

(* Transfers are costed at the runtime's precision: a single-precision
   GPU moves 4 bytes per real element, not 8. *)
let test_transfer_precision () =
  let count precision =
    let rt = Vgpu.Runtime.create ~precision () in
    Vgpu.Runtime.bind rt "a" (Vgpu.Buffer.F (Array.make 6 0.));
    Vgpu.Runtime.bind rt "i" (Vgpu.Buffer.I (Array.make 6 0));
    Vgpu.Runtime.run rt
      [ Vgpu.Runtime.Copy_to_gpu "a"; Vgpu.Runtime.Copy_to_gpu "i";
        Vgpu.Runtime.Copy_to_host "a" ];
    (rt.Vgpu.Runtime.h2d_bytes, rt.Vgpu.Runtime.d2h_bytes)
  in
  Alcotest.(check (pair int int)) "double: 8B reals + 4B ints"
    ((6 * 8) + (6 * 4), 6 * 8)
    (count Cast.Double);
  Alcotest.(check (pair int int)) "single: 4B reals + 4B ints"
    ((6 * 4) + (6 * 4), 6 * 4)
    (count Cast.Single)

(* Copy_buffer moves a sub-buffer slice device-side and accounts the
   bytes at the runtime's precision. *)
let test_copy_buffer () =
  let run precision =
    let rt = Vgpu.Runtime.create ~precision () in
    Vgpu.Runtime.bind rt "src" (Vgpu.Buffer.F [| 0.; 1.; 2.; 3.; 4.; 5. |]);
    Vgpu.Runtime.bind rt "dst" (Vgpu.Buffer.F (Array.make 6 9.));
    Vgpu.Runtime.run rt
      [ Vgpu.Runtime.Copy_buffer { src = "src"; src_off = 2; dst = "dst"; dst_off = 1; elems = 3 } ];
    let dst =
      match Vgpu.Runtime.buffer rt "dst" with
      | Vgpu.Buffer.F a -> a
      | _ -> Alcotest.fail "dst is not a real buffer"
    in
    (Array.to_list dst, rt.Vgpu.Runtime.d2d_bytes)
  in
  let dst, bytes = run Cast.Double in
  Alcotest.(check (list (float 0.))) "slice copied" [ 9.; 2.; 3.; 4.; 9.; 9. ] dst;
  Alcotest.(check int) "double d2d bytes" (3 * 8) bytes;
  let _, bytes_s = run Cast.Single in
  Alcotest.(check int) "single d2d bytes" (3 * 4) bytes_s;
  (* int buffers move 4 bytes per element regardless of precision *)
  let rt = Vgpu.Runtime.create () in
  Vgpu.Runtime.bind rt "si" (Vgpu.Buffer.I [| 1; 2; 3; 4 |]);
  Vgpu.Runtime.bind rt "di" (Vgpu.Buffer.I (Array.make 4 0));
  Vgpu.Runtime.run rt
    [ Vgpu.Runtime.Copy_buffer { src = "si"; src_off = 0; dst = "di"; dst_off = 0; elems = 4 } ];
  Alcotest.(check int) "int d2d bytes" (4 * 4) rt.Vgpu.Runtime.d2d_bytes;
  (* type-mismatched endpoints rejected, as by clEnqueueCopyBuffer *)
  Vgpu.Runtime.bind rt "df" (Vgpu.Buffer.F (Array.make 4 0.));
  match
    Vgpu.Runtime.run rt
      [ Vgpu.Runtime.Copy_buffer { src = "si"; src_off = 0; dst = "df"; dst_off = 0; elems = 4 } ]
  with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "int->real copy accepted"

(* Multi: per-device isolation, cross-device Exchange, stats merging. *)
let test_multi_devices () =
  let multi = Vgpu.Multi.create ~devices:2 () in
  Alcotest.(check int) "device count" 2 (Vgpu.Multi.n_devices multi);
  let a0 = [| 1.; 2.; 3.; 4. |] and a1 = [| 5.; 6.; 7.; 8. |] in
  Vgpu.Multi.bind multi 0 "a" (Vgpu.Buffer.F a0);
  Vgpu.Multi.bind multi 1 "a" (Vgpu.Buffer.F a1);
  let launch dev k_scale =
    Vgpu.Multi.Dev
      ( dev,
        Vgpu.Runtime.Launch
          {
            kernel = double_kernel;
            args = [ Vgpu.Runtime.A_buf "a"; Vgpu.Runtime.A_real k_scale; Vgpu.Runtime.A_int 4 ];
            global = [ 4 ];
          } )
  in
  Vgpu.Multi.run multi
    [
      launch 0 10.;
      launch 1 100.;
      launch 1 100.;
      (* device 1's last element -> device 0's first slot *)
      Vgpu.Multi.Exchange
        { src_dev = 1; src = "a"; src_off = 3; dst_dev = 0; dst = "a"; dst_off = 0; elems = 1 };
    ];
  Alcotest.(check (list (float 0.))) "device 0 scaled + ghost" [ 80000.; 20.; 30.; 40. ]
    (Array.to_list a0);
  Alcotest.(check (list (float 0.))) "device 1 scaled twice" [ 50000.; 60000.; 70000.; 80000. ]
    (Array.to_list a1);
  (* aggregate: launches sum, per-kernel entries merge by name, d2d on
     the source device only *)
  let s = Vgpu.Multi.stats multi in
  Alcotest.(check int) "aggregate launches" 3 s.Vgpu.Runtime.s_launches;
  Alcotest.(check int) "aggregate d2d bytes" 8 s.Vgpu.Runtime.s_d2d_bytes;
  (match s.Vgpu.Runtime.per_kernel with
  | [ ("scale", ks) ] -> Alcotest.(check int) "merged launches" 3 ks.Vgpu.Runtime.k_launches
  | l -> Alcotest.failf "expected one merged kernel entry, got %d" (List.length l));
  (match Vgpu.Multi.per_device_stats multi with
  | [ (0, s0); (1, s1) ] ->
      Alcotest.(check int) "device 0 launches" 1 s0.Vgpu.Runtime.s_launches;
      Alcotest.(check int) "device 1 launches" 2 s1.Vgpu.Runtime.s_launches;
      Alcotest.(check int) "d2d charged to source" 8 s1.Vgpu.Runtime.s_d2d_bytes;
      Alcotest.(check int) "none on destination" 0 s0.Vgpu.Runtime.s_d2d_bytes
  | _ -> Alcotest.fail "expected two per-device entries");
  ignore (Fmt.str "%a" Vgpu.Multi.pp_stats multi);
  Vgpu.Multi.reset_stats multi;
  Alcotest.(check int) "reset" 0 (Vgpu.Multi.stats multi).Vgpu.Runtime.s_launches

(* Per-kernel launch stats accumulate and reset. *)
let test_launch_stats () =
  let rt = Vgpu.Runtime.create () in
  let data = Array.make 4 1. in
  Vgpu.Runtime.bind rt "a" (Vgpu.Buffer.F data);
  let launch =
    Vgpu.Runtime.Launch
      {
        kernel = double_kernel;
        args = [ Vgpu.Runtime.A_buf "a"; Vgpu.Runtime.A_real 2.; Vgpu.Runtime.A_int 4 ];
        global = [ 4 ];
      }
  in
  Vgpu.Runtime.run rt [ launch; launch; launch ];
  let s = Vgpu.Runtime.stats rt in
  Alcotest.(check int) "total launches" 3 s.Vgpu.Runtime.s_launches;
  (match s.Vgpu.Runtime.per_kernel with
  | [ (name, ks) ] ->
      Alcotest.(check string) "kernel name" "scale" name;
      Alcotest.(check int) "per-kernel launches" 3 ks.Vgpu.Runtime.k_launches;
      Alcotest.(check int) "bytes bound (double)" (3 * 4 * 8) ks.Vgpu.Runtime.arg_bytes;
      Alcotest.(check bool) "min <= max" true (ks.Vgpu.Runtime.min_s <= ks.Vgpu.Runtime.max_s);
      Alcotest.(check bool) "total >= max" true (ks.Vgpu.Runtime.total_s >= ks.Vgpu.Runtime.max_s)
  | l -> Alcotest.failf "expected one kernel entry, got %d" (List.length l));
  (* pp_stats renders without raising *)
  ignore (Fmt.str "%a" Vgpu.Runtime.pp_stats s);
  Vgpu.Runtime.reset_stats rt;
  let s = Vgpu.Runtime.stats rt in
  Alcotest.(check int) "reset clears launches" 0 s.Vgpu.Runtime.s_launches;
  Alcotest.(check int) "reset clears kernels" 0 (List.length s.Vgpu.Runtime.per_kernel)

let test_printer () =
  let src = Print.kernel_to_string double_kernel in
  List.iter
    (fun needle ->
      if not (Test_util.contains src needle) then
        Alcotest.failf "missing %S in:\n%s" needle src)
    [
      "__kernel void scale";
      "__global double* restrict a";
      "const double k";
      "get_global_id(0)";
      "a[i] = a[i] * k;";
      "if (i < n) {";
    ];
  (* single precision renders float with f-suffixed literals *)
  let ks = { double_kernel with Cast.precision = Cast.Single } in
  let ks = { ks with Cast.body = Cast.Store ("a", Cast.Int_lit 0, Cast.Real_lit 0.5) :: ks.Cast.body } in
  let ssrc = Print.kernel_to_string ks in
  Alcotest.(check bool) "float type" true (Test_util.contains ssrc "__global float*");
  Alcotest.(check bool) "f suffix" true (Test_util.contains ssrc "0.5f");
  (* precedence: no spurious parentheses, required ones kept *)
  let e = Cast.(Binop (Mul, Binop (Add, Var "a", Var "b"), Var "c")) in
  Alcotest.(check string) "parens" "(a + b) * c" (Print.expr_to_string e);
  let e2 = Cast.(Binop (Add, Var "a", Binop (Mul, Var "b", Var "c"))) in
  Alcotest.(check string) "no parens" "a + b * c" (Print.expr_to_string e2)

(* The work-group tier through both renderers: the OpenCL printer must
   produce the portable grouped-kernel surface (reqd_work_group_size,
   __local declarations, barrier fences, the id builtin family) and the
   native C emitter the POCL-style fissioned lowering (per-group loop
   nest, widened per-work-item scalars, barrier segments as separate
   local-id loops, a uniform while for the barrier-carrying z loop). *)
let test_tiled_kernel_goldens () =
  let k =
    Tiled_kernel.volume ~precision:Cast.Double ~tile:(4, 2) ()
  in
  let ocl = Print.kernel_to_string k in
  List.iter
    (fun needle ->
      if not (Test_util.contains ocl needle) then
        Alcotest.failf "OpenCL for tiled kernel missing %S in:\n%s" needle ocl)
    [
      "__attribute__((reqd_work_group_size(4, 2, 1)))";
      "__kernel void volume_tiled_4x2";
      "__local double tile[24];";
      "barrier(CLK_LOCAL_MEM_FENCE);";
      "get_local_id(0)";
      "get_local_id(1)";
      "tile[(get_local_id(1) + 1) * 6 + (get_local_id(0) + 1)] = curr[";
      "for (int z = 0; z < Nz; z = z + 1) {";
    ];
  let c = Native_c.kernel_source k in
  List.iter
    (fun needle ->
      if not (Test_util.contains c needle) then
        Alcotest.failf "native C for tiled kernel missing %S in:\n%s" needle c)
    [
      (* locals are renamed by declaration order, keeping their stem;
         the local tile is one plain per-group array, cleared per group *)
      "double rk_v2_tile[24];";
      "memset(rk_v2_tile, 0, sizeof(rk_v2_tile));";
      (* per-work-item registers are widened over the group *)
      "double rk_v3_cb[8] = {0};";
      "rk_v3_cb[rk_l] = ";
      (* the int neighbour grid is read in place as tagged words *)
      "(nbrs[rk_v5_idx[rk_l]] >> 1)";
      (* the group loop nest and the flattened local id *)
      "for (int64_t rk_wg0 = 0; rk_wg0 < rk_gs0 / 4LL; rk_wg0++)";
      "for (int64_t rk_l0 = 0; rk_l0 < 4LL; rk_l0++)";
      "const int64_t rk_l = (rk_l2 * 2LL + rk_l1) * 4LL + rk_l0;";
      (* the barrier-carrying z loop becomes a uniform while *)
      "int64_t rk_it_rk_v4_z = 0LL;";
      "while (rk_it_rk_v4_z < (Nz)) {";
      "rk_it_rk_v4_z += 1LL;";
    ];
  (* no barrier survives as a statement: fission consumed them all *)
  Alcotest.(check bool) "no barrier() call in C" false (Test_util.contains c "barrier(");
  (* braces balance, as for the host emitter *)
  let count s ch = String.fold_left (fun acc c -> if c = ch then acc + 1 else acc) 0 s in
  Alcotest.(check int) "balanced braces" (count c '{') (count c '}')

let test_simplify_examples () =
  let open Cast in
  let s e = Print.expr_to_string (simplify e) in
  Alcotest.(check string) "x+0" "x" (s (Binop (Add, Var "x", Int_lit 0)));
  Alcotest.(check string) "1*x" "x" (s (Binop (Mul, Int_lit 1, Var "x")));
  Alcotest.(check string) "0*x" "0" (s (Binop (Mul, Int_lit 0, Var "x")));
  Alcotest.(check string) "fold" "7" (s (Binop (Add, Int_lit 3, Int_lit 4)));
  Alcotest.(check string) "nested adds" "x + 5"
    (s (Binop (Add, Binop (Add, Var "x", Int_lit 2), Int_lit 3)));
  Alcotest.(check string) "true ternary" "a" (s (Ternary (Int_lit 1, Var "a", Var "b")));
  Alcotest.(check string) "and short circuit" "0" (s (Binop (And, Int_lit 0, Var "x")))

(* The standalone C emitter: structural invariants on the Listing 5
   program (the syntax was also checked against a compiler). *)
(* The FI-MM pipeline as a compiled host program (shared by the
   structural and the compile-the-artifact tests below). *)
let emit_c_compiled () =
  let dims = Acoustics.Geometry.dims ~nx:12 ~ny:10 ~nz:8 in
  let room = Acoustics.Geometry.build ~n_materials:4 Acoustics.Geometry.Box dims in
  let tables = Acoustics.Material.tables ~n_branches:3 Acoustics.Material.defaults in
  let p name ty = Lift.Ast.named_param name ty in
  let open Lift.Host in
  let open Lift_acoustics.Programs in
  let program =
    write_to
      (input (p "next" grid_ty))
      (ocl_kernel ~name:"boundary_fi_mm" (boundary_fi_mm ())
         [
           to_gpu (input (p "bidx" bidx_ty));
           to_gpu (input (p "nbrs" nbrs_ty));
           to_gpu (input (p "material" material_ty));
           to_gpu (input (p "beta" beta_ty));
           to_gpu (input (p "prev" grid_ty));
           to_gpu (input (p "next" grid_ty));
           H_real 0.57;
         ])
  in
  let sizes = function
    | "N" -> Some (Acoustics.Geometry.n_points dims)
    | "nB" -> Some (Acoustics.Geometry.n_boundary room)
    | "NM" -> Some (Array.length tables.Acoustics.Material.t_beta)
    | _ -> None
  in
  Lift.Host.compile ~sizes program

let test_emit_c () =
  let compiled = emit_c_compiled () in
  let c = Lift.Emit_c.host_program compiled in
  List.iter
    (fun needle ->
      if not (Test_util.contains c needle) then
        Alcotest.failf "emitted C missing %S" needle)
    [
      "#include <CL/cl.h>";
      "clBuildProgram";
      "clCreateKernel(prog_0, \"boundary_fi_mm\"";
      "clEnqueueNDRangeKernel";
      "CL_PROFILING_COMMAND_END";
      "__kernel void boundary_fi_mm";
      "int main(void)";
    ];
  (* braces balance *)
  let count s ch = String.fold_left (fun acc c -> if c = ch then acc + 1 else acc) 0 s in
  Alcotest.(check int) "balanced braces" (count c '{') (count c '}');
  (* an iterated plan emits pointer swaps for the buffer rotation *)
  let plan2 = Lift.Host.iterate ~times:2 ~rotate:[ [ "prev"; "next" ] ] compiled in
  let c2 = Lift.Emit_c.host_program { compiled with Lift.Host.plan = plan2 } in
  Alcotest.(check bool) "swap emitted" true
    (Test_util.contains c2 "{ cl_mem t = d_prev; d_prev = d_next; d_next = t; }");
  Alcotest.(check int) "iterated braces balance" (count c2 '{') (count c2 '}')

let test_host_errors () =
  let open Lift.Host in
  let p = Lift.Ast.named_param "a" (Lift.Ty.array Lift.Ty.real (Lift.Size.var "N")) in
  (* kernel arity mismatch *)
  let f = { Lift.Ast.l_params = [ p ]; l_body = Lift.Ast.Param p } in
  (match compile ~sizes:(fun _ -> Some 4) (ocl_kernel ~name:"k" f []) with
  | exception Host_error _ -> ()
  | _ -> Alcotest.fail "arity mismatch accepted");
  (* unbound size variable *)
  let g =
    {
      Lift.Ast.l_params = [ p ];
      l_body =
        Lift.Ast.map_glb (Lift.Ast.lam1 Lift.Ty.real (fun x -> x)) (Lift.Ast.Param p);
    }
  in
  match compile ~sizes:(fun _ -> None) (ocl_kernel ~name:"k" g [ input p ]) with
  | exception Host_error _ -> ()
  | _ -> Alcotest.fail "unbound size accepted"

let test_harness_agreement () =
  let open Harness.Experiments in
  let row version model_s paper_ms =
    {
      platform = "X";
      version;
      size = 602;
      shape = Acoustics.Geometry.Box;
      precision = Kernel_ast.Cast.Double;
      model_s;
      paper_ms = Some paper_ms;
      throughput = 1.;
    }
  in
  (* model and paper agree that lift is slower: 1 agreement out of 1 *)
  let rows = [ row Hand 1e-3 1.0; row Lift_gen 1.5e-3 1.4 ] in
  let agree, total, _ = agreement rows in
  Alcotest.(check (pair int int)) "agrees" (1, 1) (agree, total);
  (* disagreement: model says lift faster, paper says slower *)
  let rows = [ row Hand 1e-3 1.0; row Lift_gen 0.5e-3 1.4 ] in
  let agree, total, _ = agreement rows in
  Alcotest.(check (pair int int)) "disagrees" (0, 1) (agree, total)


(* The emitted host program must be real, compilable C: render the
   Listing 5 pipeline, pair it with a stub <CL/cl.h> carrying the exact
   OpenCL 1.2 signatures it calls, and push it through the system C
   compiler in syntax-only mode.  Also pins emission determinism:
   buffers are declared in name order, so the same plan renders
   byte-identical C. *)
let cl_stub_header =
  {header|#ifndef RACS_CL_STUB_H
#define RACS_CL_STUB_H
#include <stddef.h>
typedef int cl_int;
typedef unsigned int cl_uint;
typedef unsigned long cl_ulong;
typedef float cl_float;
typedef double cl_double;
typedef cl_uint cl_bool;
typedef cl_ulong cl_bitfield;
typedef cl_bitfield cl_device_type;
typedef cl_bitfield cl_command_queue_properties;
typedef cl_bitfield cl_mem_flags;
typedef cl_uint cl_profiling_info;
typedef struct _cl_platform_id *cl_platform_id;
typedef struct _cl_device_id *cl_device_id;
typedef struct _cl_context *cl_context;
typedef struct _cl_command_queue *cl_command_queue;
typedef struct _cl_program *cl_program;
typedef struct _cl_kernel *cl_kernel;
typedef struct _cl_mem *cl_mem;
typedef struct _cl_event *cl_event;
#define CL_SUCCESS 0
#define CL_TRUE 1
#define CL_DEVICE_TYPE_GPU (1 << 2)
#define CL_QUEUE_PROFILING_ENABLE (1 << 1)
#define CL_MEM_READ_WRITE (1 << 0)
#define CL_PROFILING_COMMAND_START 0x1282
#define CL_PROFILING_COMMAND_END 0x1283
cl_int clGetPlatformIDs(cl_uint, cl_platform_id *, cl_uint *);
cl_int clGetDeviceIDs(cl_platform_id, cl_device_type, cl_uint, cl_device_id *, cl_uint *);
cl_context clCreateContext(const void *, cl_uint, const cl_device_id *,
                           void (*)(const char *, const void *, size_t, void *), void *,
                           cl_int *);
cl_command_queue clCreateCommandQueue(cl_context, cl_device_id, cl_command_queue_properties,
                                      cl_int *);
cl_program clCreateProgramWithSource(cl_context, cl_uint, const char **, const size_t *,
                                     cl_int *);
cl_int clBuildProgram(cl_program, cl_uint, const cl_device_id *, const char *,
                      void (*)(cl_program, void *), void *);
cl_kernel clCreateKernel(cl_program, const char *, cl_int *);
cl_mem clCreateBuffer(cl_context, cl_mem_flags, size_t, void *, cl_int *);
cl_int clSetKernelArg(cl_kernel, cl_uint, size_t, const void *);
cl_int clEnqueueWriteBuffer(cl_command_queue, cl_mem, cl_bool, size_t, size_t, const void *,
                            cl_uint, const cl_event *, cl_event *);
cl_int clEnqueueReadBuffer(cl_command_queue, cl_mem, cl_bool, size_t, size_t, void *, cl_uint,
                           const cl_event *, cl_event *);
cl_int clEnqueueCopyBuffer(cl_command_queue, cl_mem, cl_mem, size_t, size_t, size_t, cl_uint,
                           const cl_event *, cl_event *);
cl_int clEnqueueNDRangeKernel(cl_command_queue, cl_kernel, cl_uint, const size_t *,
                              const size_t *, const size_t *, cl_uint, const cl_event *,
                              cl_event *);
cl_int clWaitForEvents(cl_uint, const cl_event *);
cl_int clGetEventProfilingInfo(cl_event, cl_profiling_info, size_t, void *, size_t *);
#endif
|header}

let test_emit_c_compiles () =
  let compiled = emit_c_compiled () in
  let c = Lift.Emit_c.host_program compiled in
  (* determinism: a second render is byte-identical *)
  Alcotest.(check string) "deterministic emission" c (Lift.Emit_c.host_program compiled);
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "racs-emit-c-%d" (Unix.getpid ()))
  in
  List.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ dir; Filename.concat dir "CL" ];
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  write (Filename.concat dir "CL/cl.h") cl_stub_header;
  let prog = Filename.concat dir "prog.c" in
  write prog c;
  let log = Filename.concat dir "cc.log" in
  let cmd =
    Printf.sprintf "cc -std=c99 -fsyntax-only -I %s %s 2> %s" (Filename.quote dir)
      (Filename.quote prog) (Filename.quote log)
  in
  let rc = Sys.command cmd in
  if rc <> 0 then begin
    let ic = open_in log in
    let n = in_channel_length ic in
    let err = really_input_string ic n in
    close_in ic;
    Alcotest.failf "emitted host C does not compile (exit %d):\n%s" rc err
  end

let suite =
  [
    Alcotest.test_case "runtime plan execution" `Quick test_runtime_plan;
    Alcotest.test_case "alloc reuse validation" `Quick test_alloc_validation;
    Alcotest.test_case "precision-aware transfer accounting" `Quick test_transfer_precision;
    Alcotest.test_case "device-to-device sub-buffer copies" `Quick test_copy_buffer;
    Alcotest.test_case "multi-device plans and stats merging" `Quick test_multi_devices;
    Alcotest.test_case "per-kernel launch stats" `Quick test_launch_stats;
    Alcotest.test_case "OpenCL printer" `Quick test_printer;
    Alcotest.test_case "tiled kernel: OpenCL and native C goldens" `Quick test_tiled_kernel_goldens;
    Alcotest.test_case "expression simplifier" `Quick test_simplify_examples;
    Alcotest.test_case "standalone C emitter" `Quick test_emit_c;
    Alcotest.test_case "emitted host C compiles (stub OpenCL)" `Quick test_emit_c_compiles;
    Alcotest.test_case "host error handling" `Quick test_host_errors;
    Alcotest.test_case "harness agreement metric" `Quick test_harness_agreement;
  ]
