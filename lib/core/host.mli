(** Host-side Lift: the primitives of paper §IV-A (Table I) and their
    code generation.

    A host program orchestrates data movement and kernel launches
    (OclKernel / ToGPU / ToHost / WriteTo).  It compiles to two
    artifacts: an executable {!Vgpu.Runtime.plan} (the simulated OpenCL
    host run) and OpenCL-style host C source for inspection. *)

exception Host_error of string

type hexpr =
  | H_input of Ast.param  (** a host-resident input buffer, bound by name *)
  | H_int of int
  | H_real of float
  | H_to_gpu of hexpr
  | H_to_host of hexpr
  | H_kernel of { k_name : string; f : Ast.lam; args : hexpr list }
  | H_write_to of hexpr * hexpr  (** target, value *)
  | H_let of Ast.param * hexpr * hexpr
      (** share a result (e.g. a kernel output) without re-launching;
          the bound param is referenced with {!constructor:H_input} *)
  | H_tuple of hexpr list

val input : Ast.param -> hexpr
val to_gpu : hexpr -> hexpr
val to_host : hexpr -> hexpr
val ocl_kernel : name:string -> Ast.lam -> hexpr list -> hexpr
val write_to : hexpr -> hexpr -> hexpr

(** What a host expression denotes after compilation. *)
type denot =
  | D_buf of string * Ty.t
  | D_int of int
  | D_real of float
  | D_tuple of denot list

type compiled_host = {
  plan : Vgpu.Runtime.plan;
  kernels : Codegen.compiled list;
  source : string;  (** OpenCL-style host pseudo-C *)
  result : denot;
  buffer_elems : (string * int) list;
      (** extent of every buffer the plan touches, as resolved at
          compile time — inputs, kernel outputs and temporaries;
          consumed by {!Emit_c.of_host} to size host allocations *)
}

val compile :
  ?precision:Kernel_ast.Cast.precision ->
  sizes:(string -> int option) ->
  hexpr ->
  compiled_host
(** Compile a host program; [sizes] resolves size variables to concrete
    extents (buffer sizes, NDRanges).

    @raise Host_error on malformed programs. *)

val run : compiled_host -> Vgpu.Runtime.t -> unit
(** Execute the plan on a runtime whose buffer table binds every input
    buffer (see {!Vgpu.Runtime.bind}). *)

val iterate : times:int -> rotate:string list list -> compiled_host -> Vgpu.Runtime.plan
(** Time stepping: the per-step plan repeated [times] times with cyclic
    buffer-binding rotations between steps (e.g.
    [rotate:[["prev"; "curr"; "next"]]]).  Paper §V-A: "for an actual
    application the two kernels are executed iteratively". *)
