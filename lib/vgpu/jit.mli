(** Closure-compiling JIT for kernel ASTs.

    Plays the role of the OpenCL driver compiler in this reproduction: a
    kernel AST is compiled once into OCaml closures with all name
    resolution done at compile time, then launched many times.
    Cross-validated against {!module:Exec} by the test suite.

    Compilation is type-directed: every expression is classified as int
    or real (C promotion rules) and compiled to an unboxed closure, so
    the hot loop performs no tagging or dispatch.  Single-precision
    kernels round real stores to float32. *)

type compiled = private {
  kernel : Kernel_ast.Cast.kernel;
  bindings : param_binding list;
  n_ibuf : int;
  n_fbuf : int;
  n_u8buf : int;
  make_rt : unit -> rt;
  body : rt -> unit;
}

and param_binding

and rt
(** Per-launch runtime state (registers, buffer tables, work-item ids). *)

val compile : Kernel_ast.Cast.kernel -> compiled
(** Compile once; launch many times. *)

val launch : compiled -> args:Args.t list -> global:int list -> unit
(** Launch a compiled kernel.  Buffers are shared with the caller
    (stores are visible after the launch); scalars are copied into
    registers.  A {!Kernel_ast.Cast.U8} parameter takes a {!Buffer.U8}
    argument: loads zero-extend, stores keep the low 8 bits.

    @raise Invalid_argument on arity, argument-kind or storage
    mismatch. *)

(** {2 Partitioned execution}

    Building blocks for parallel NDRange execution (see {!module:Pool}):
    bind the launch arguments once, clone the bound state per domain,
    then run disjoint chunks of one dimension from each clone. *)

val bind : compiled -> args:Args.t list -> global:int list -> rt
(** Resolve launch arguments into a fresh runtime state without
    executing anything.

    @raise Invalid_argument on arity or argument-kind mismatch. *)

val clone_rt : compiled -> rt -> rt
(** A private copy of a bound rt for another domain: scalar registers
    are copied, global buffers stay shared (generated kernels write
    disjoint locations), private arrays are fresh. *)

val run_range : compiled -> rt -> dim:int -> lo:int -> hi:int -> unit
(** Run the kernel body with NDRange dimension [dim] restricted to
    [lo, hi) (half-open); other dimensions run in full.  Flat kernels
    only — grouped kernels partition over {!run_group_range}. *)

(** {2 Work-group execution}

    Grouped kernels (non-empty [local_size]) run one work-group at a
    time: every work-item is a fiber, barriers suspend it until the
    whole group arrives, and the group resumes in local-id order — the
    same schedule as [Exec].  Work-groups are independent, so parallel
    engines partition the linear group range. *)

val group_count : compiled -> global:int list -> int
(** Number of work-groups in a launch over [global].
    @raise Invalid_argument when the NDRange does not divide by the
    kernel's work-group size. *)

val group_rts : compiled -> rt -> rt array
(** One rt per work-item of a group (lane 0 is the argument), sharing
    global buffers and one set of group-local arrays. *)

val run_group_range : compiled -> rt array -> lo:int -> hi:int -> unit
(** Run work-groups with linear indices [lo, hi) (row-major z/y/x group
    order).  Group-local arrays are re-zeroed per group.
    @raise Failure on barrier divergence within a work-group. *)
