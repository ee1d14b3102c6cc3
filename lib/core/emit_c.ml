(* Emission of a complete, compilable OpenCL C host program.

   The in-repo runtime executes plans on the virtual GPU; this module
   emits a plan as a standalone [.c] file — kernel sources embedded as
   string literals, buffer creation, argument setup, NDRange launches
   with profiling-API timing, and result read-back — so the generated
   code can be taken verbatim to a machine with real GPUs and built with
   [cc prog.c -lOpenCL].

   One emitter serves every plan, a [Vgpu.Multi.async_plan]: one context
   holds one in-order command queue per device; an [Exchange] is a
   [clEnqueueCopyBuffer] on its source device's queue; every signalled
   event id is a named [cl_event], an op's waits its wait list, and a
   [Swap] a pointer swap.  Buffers are named per device ([d<i>_<name>]),
   except on one device, which keeps Listing 5's plain names ([queue],
   [d_<name>]).  Every enqueue that signals an event flushes its queue,
   so that another queue may wait on the event (OpenCL 1.2, 5.13).

   A launch or a transfer blocks the host until it retires, so only
   copies and markers are ever in flight.  Still, as in the plan, two
   copies across a cut, or a copy and another queue's launch, may use
   one buffer at the same time, at cells the flow verifier
   ([Lint.verify_async]) proves disjoint.  The program relies on that:
   OpenCL 1.2 (Appendix A.1) leaves one memory object used from two
   queues at once undefined, disjoint cells or not.

   Buffer contents are zero-initialised host arrays: the artifact is a
   faithful skeleton of the paper's benchmark driver, not a data file.
   A buffer the plan uploads is written from its array by the plan's
   transfer; any other is created as a copy of it.  Emission is
   deterministic — buffers are declared in device and name order — so
   the same plan always renders byte-identical C (the native backend's
   binary cache keys on rendered source; this file follows the same
   discipline). *)

open Kernel_ast

let c_escape (s : string) =
  let b = Buffer.create (String.length s + 64) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n\"\n    \""
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let ty_c precision (t : Cast.ty) = Print.ty_name precision t
let refuse fmt = Printf.ksprintf (fun s -> invalid_arg ("Emit_c.host_program: " ^ s)) fmt

(* Emit one complete program for a plan. *)
let host_program ?(precision = Cast.Double) ~extent (plan : Vgpu.Multi.async_plan) : string =
  let out = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string out (s ^ "\n")) fmt in
  let ops = List.map (fun (o : Vgpu.Multi.async_op) -> o.Vgpu.Multi.a_op) plan in
  let n_dev =
    List.fold_left
      (fun acc -> function
        | Vgpu.Multi.Dev (i, _) -> max acc (i + 1)
        | Vgpu.Multi.Exchange { src_dev; dst_dev; _ } -> max acc (max src_dev dst_dev + 1))
      1 ops
  in
  let one = n_dev = 1 in
  let tag i = if one then "" else string_of_int i in
  let queue i = "queue" ^ tag i in
  let d i name = Printf.sprintf "d%s_%s" (tag i) name in
  let h i name = Printf.sprintf "h%s_%s" (tag i) name in
  let n i name = Printf.sprintf "n%s_%s" (tag i) name in
  let devs = if one then "&device" else "devices" in
  (* kernel sources: one per distinct kernel, in order of first launch *)
  let kernels =
    List.rev
      (List.fold_left
         (fun acc -> function
           | Vgpu.Multi.Dev (_, Vgpu.Runtime.Launch { kernel = k; _ }) -> (
               match List.find_opt (fun (k' : Cast.kernel) -> k'.Cast.name = k.Cast.name) acc with
               | None -> k :: acc
               | Some k' when k' == k || k' = k -> acc
               | Some _ -> refuse "two different kernels are named %s" k.Cast.name)
           | _ -> acc)
         [] ops)
  in
  (* buffers per device, with their C element type: an Alloc's, else
     the first launch parameter bound to it (a byte-stored one is
     [unsigned char], as [Print] renders [uchar]); a buffer only
     transfers, copies or swaps name holds reals *)
  let buffers : (int * string, string) Hashtbl.t = Hashtbl.create 16 in
  let note ?(ty = ty_c precision Cast.Real) i name =
    if not (Hashtbl.mem buffers (i, name)) then Hashtbl.replace buffers (i, name) ty
  in
  let allocs = Hashtbl.create 4 in
  let typed, untyped =
    List.partition
      (function
        | Vgpu.Multi.Dev (_, (Vgpu.Runtime.Alloc _ | Vgpu.Runtime.Launch _)) -> true
        | _ -> false)
      ops
  in
  List.iter
    (function
      | Vgpu.Multi.Dev (i, Vgpu.Runtime.Alloc { name; ty; elems }) ->
          Hashtbl.replace allocs (i, name) elems;
          note ~ty:(ty_c precision ty) i name
      | Vgpu.Multi.Dev (i, Vgpu.Runtime.Launch { kernel; args; _ }) ->
          List.iter2
            (fun (p : Cast.param) (a : Vgpu.Runtime.arg) ->
              match a with
              | Vgpu.Runtime.A_buf name ->
                  note i name
                    ~ty:(if p.Cast.p_storage = Cast.U8 then "unsigned char"
                         else ty_c precision p.Cast.p_ty)
              | _ -> ())
            kernel.Cast.params args
      | Vgpu.Multi.Dev (i, (Vgpu.Runtime.Copy_to_gpu name | Vgpu.Runtime.Copy_to_host name)) ->
          note i name
      | Vgpu.Multi.Dev (i, Vgpu.Runtime.Swap (a, b)) ->
          note i a;
          note i b
      | Vgpu.Multi.Exchange { src_dev; src; dst_dev; dst; _ } ->
          note src_dev src;
          note dst_dev dst)
    (typed @ untyped);
  let buffer_list =
    Hashtbl.fold
      (fun (i, name) ty acc ->
        let elems =
          match Hashtbl.find_opt allocs (i, name) with
          | Some e -> e
          | None -> (
              match extent i name with
              | Some e -> e
              | None -> refuse "buffer %s of device %d has no extent" name i)
        in
        ((i, name), (elems, ty)) :: acc)
      buffers []
    |> List.sort compare
  in
  (* a program starts with no event: each is signalled once, before
     any wait on it *)
  (match Lint.errors (Lint.check_async ~imports:[] plan) with
  | [] -> ()
  | i :: _ -> refuse "%s" i.Lint.message);
  line "/* Generated by the Lift room-acoustics code generator.";
  line "   Build: cc -O2 prog.c -lOpenCL -o prog */";
  line "#include <stdio.h>";
  line "#include <stdlib.h>";
  line "#include <string.h>";
  line "#define CL_TARGET_OPENCL_VERSION 120";
  line "#include <CL/cl.h>";
  line "";
  line "#define CHECK(e) do { cl_int _err = (e); if (_err != CL_SUCCESS) { \\";
  line "  fprintf(stderr, \"OpenCL error %%d at %%s:%%d\\n\", _err, __FILE__, __LINE__); \\";
  line "  exit(1); } } while (0)";
  line "";
  List.iteri
    (fun i k ->
      line "static const char *kernel_src_%d =" i;
      line "    \"%s\";" (c_escape (Print.kernel_to_string k)))
    kernels;
  line "";
  line "int main(void) {";
  line "  cl_platform_id platform; %s;"
    (if one then "cl_device_id device" else Printf.sprintf "cl_device_id devices[%d]" n_dev);
  line "  CHECK(clGetPlatformIDs(1, &platform, NULL));";
  line "  CHECK(clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU, %d, %s, NULL));" n_dev devs;
  line "  cl_int err;";
  line "  cl_context ctx = clCreateContext(NULL, %d, %s, NULL, NULL, &err); CHECK(err);" n_dev devs;
  for i = 0 to n_dev - 1 do
    line "  cl_command_queue %s =" (queue i);
    line "      clCreateCommandQueue(ctx, %s, CL_QUEUE_PROFILING_ENABLE, &err); CHECK(err);"
      (if one then "device" else Printf.sprintf "devices[%d]" i)
  done;
  line "";
  List.iteri
    (fun i (k : Cast.kernel) ->
      line "  cl_program prog_%d = clCreateProgramWithSource(ctx, 1, &kernel_src_%d, NULL, &err); CHECK(err);"
        i i;
      line "  CHECK(clBuildProgram(prog_%d, %d, %s, \"\", NULL, NULL));" i n_dev devs;
      line "  cl_kernel k_%s = clCreateKernel(prog_%d, \"%s\", &err); CHECK(err);"
        k.Cast.name i k.Cast.name)
    kernels;
  line "";
  line "  /* Host-side input arrays: fill these with your data. */";
  List.iter
    (fun ((i, name), (elems, ty)) ->
      line "  size_t %s = %d;" (n i name) elems;
      line "  %s *%s = calloc(%s, sizeof(%s));" ty (h i name) (n i name) ty;
      (* a buffer the plan never uploads starts as a copy of its array *)
      let flags, init =
        if List.mem (Vgpu.Multi.Dev (i, Vgpu.Runtime.Copy_to_gpu name)) ops then
          ("CL_MEM_READ_WRITE", "NULL")
        else ("CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR", h i name)
      in
      line "  cl_mem %s = clCreateBuffer(ctx, %s, %s * sizeof(%s), %s, &err); CHECK(err);"
        (d i name) flags (n i name) ty init)
    buffer_list;
  line "";
  line "  cl_event ev; cl_ulong t0, t1; double total_ms = 0.0;";
  List.iter
    (fun (o : Vgpu.Multi.async_op) -> Option.iter (line "  cl_event ev_%d;") o.Vgpu.Multi.a_signal)
    plan;
  (* [pre]/[wl] declare and pass the op's wait list, [evp] its event *)
  List.iter
    (fun (o : Vgpu.Multi.async_op) ->
      let pre, wl =
        match o.Vgpu.Multi.a_waits with
        | [] -> ("", "0, NULL")
        | ws ->
            ( Printf.sprintf "cl_event wl[%d] = { %s }; " (List.length ws)
                (String.concat ", " (List.map (Printf.sprintf "ev_%d") ws)),
              Printf.sprintf "%d, wl" (List.length ws) )
      in
      let signal = Option.map (Printf.sprintf "ev_%d") o.Vgpu.Multi.a_signal in
      let evp = match signal with Some e -> "&" ^ e | None -> "NULL" in
      (* another queue may wait on an event once its queue is flushed *)
      let flush i = if signal = None then "" else Printf.sprintf " CHECK(clFlush(%s));" (queue i) in
      match o.Vgpu.Multi.a_op with
      | Vgpu.Multi.Dev (_, Vgpu.Runtime.Alloc _) -> ()
      | Vgpu.Multi.Dev (i, Vgpu.Runtime.Swap (a, b)) ->
          line "  { cl_mem t = %s; %s = %s; %s = t; }" (d i a) (d i a) (d i b) (d i b)
      | Vgpu.Multi.Dev (i, Vgpu.Runtime.Copy_to_gpu name) ->
          line
            "  { %sCHECK(clEnqueueWriteBuffer(%s, %s, CL_TRUE, 0, %s * sizeof(*%s), %s, %s, %s));%s }"
            pre (queue i) (d i name) (n i name) (h i name) (h i name) wl evp (flush i)
      | Vgpu.Multi.Dev (i, Vgpu.Runtime.Copy_to_host name) ->
          line
            "  { %sCHECK(clEnqueueReadBuffer(%s, %s, CL_TRUE, 0, %s * sizeof(*%s), %s, %s, %s));%s }"
            pre (queue i) (d i name) (n i name) (h i name) (h i name) wl evp (flush i)
      | Vgpu.Multi.Exchange { src_dev = i; src; src_off; dst_dev; dst; dst_off; elems } ->
          let s = h i src in
          line
            "  { %sCHECK(clEnqueueCopyBuffer(%s, %s, %s, %d * sizeof(*%s), %d * sizeof(*%s), %d * sizeof(*%s), %s, %s));%s }"
            pre (queue i) (d i src) (d dst_dev dst) src_off s dst_off s elems s wl evp (flush i)
      | Vgpu.Multi.Dev (i, Vgpu.Runtime.Launch { kernel; global; _ }) when List.mem 0 global ->
          (* OpenCL refuses a zero global size: a marker keeps the
             launch's place in the queue, its waits and its event *)
          line "  /* %s: no work items */" kernel.Cast.name;
          line "  { %sCHECK(clEnqueueMarkerWithWaitList(%s, %s, %s));%s }" pre (queue i) wl evp
            (flush i)
      | Vgpu.Multi.Dev (i, Vgpu.Runtime.Launch { kernel; args; global; spans }) ->
          let kn = kernel.Cast.name in
          (* a span set has no OpenCL form: the launch covers its hull *)
          Option.iter
            (fun s ->
              line "  /* %s: its spans hold %d of these %d work items */" kn
                (Vgpu.Spans.items s * List.fold_left ( * ) 1 (List.tl global))
                (List.fold_left ( * ) 1 global))
            spans;
          List.iteri
            (fun j (a : Vgpu.Runtime.arg) ->
              match a with
              | Vgpu.Runtime.A_buf name ->
                  line "  CHECK(clSetKernelArg(k_%s, %d, sizeof(cl_mem), &%s));" kn j (d i name)
              | Vgpu.Runtime.A_int v ->
                  line "  { cl_int arg = %d; CHECK(clSetKernelArg(k_%s, %d, sizeof(cl_int), &arg)); }"
                    v kn j
              | Vgpu.Runtime.A_real v ->
                  let t = ty_c precision Cast.Real in
                  line "  { cl_%s arg = %.17g; CHECK(clSetKernelArg(k_%s, %d, sizeof(cl_%s), &arg)); }"
                    t v kn j t)
            args;
          let dims = List.length global in
          let sizes = String.concat ", " (List.map string_of_int global) in
          line "  { size_t gsz[%d] = { %s }; %s" dims sizes pre;
          (* a signalling launch profiles its named event, so later wait
             lists reference the real handle *)
          let lev = Option.value signal ~default:"ev" in
          line "    CHECK(clEnqueueNDRangeKernel(%s, k_%s, %d, NULL, gsz, NULL, %s, &%s));%s"
            (queue i) kn dims wl lev (flush i);
          line "    CHECK(clWaitForEvents(1, &%s));" lev;
          line "    CHECK(clGetEventProfilingInfo(%s, CL_PROFILING_COMMAND_START, sizeof(t0), &t0, NULL));" lev;
          line "    CHECK(clGetEventProfilingInfo(%s, CL_PROFILING_COMMAND_END, sizeof(t1), &t1, NULL));" lev;
          line "    total_ms += (t1 - t0) * 1e-6;";
          line "    printf(\"%s: %%0.4f ms\\n\", (t1 - t0) * 1e-6); }" kn)
    plan;
  line "";
  line "  printf(\"total kernel time: %%0.4f ms\\n\", total_ms);";
  line "  return 0;";
  line "}";
  Buffer.contents out

(* A compiled host program (paper Listing 5) on one device, its buffers
   sized as the host compiler resolved them. *)
let of_host ?precision (h : Host.compiled_host) =
  host_program ?precision
    ~extent:(fun _ name -> List.assoc_opt name h.Host.buffer_elems)
    (List.map
       (fun op -> { Vgpu.Multi.a_op = Vgpu.Multi.Dev (0, op); a_waits = []; a_signal = None })
       h.Host.plan)
