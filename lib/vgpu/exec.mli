(** Reference interpreter for kernel ASTs.

    Executes a kernel over an NDRange exactly as an OpenCL device would,
    one work-item at a time (row-major order).  Work-items share
    nothing but global buffers, so sequential execution is
    observationally equivalent to any parallel schedule as long as
    distinct work-items write distinct locations.  That claim is
    machine-checked rather than assumed: {!module:Kernel_ast.Check}
    proves it statically per kernel, and {!module:Sanitizer} verifies it
    dynamically through the access hook below.

    This is the slow, obviously-correct engine: the oracle that
    {!module:Native} and the Lift code generator are cross-validated
    against, and the engine the sanitizer runs on; benchmarks use
    {!module:Native}. *)

exception
  Exec_error of {
    e_kernel : string;  (** kernel being executed *)
    e_gid : int * int * int;  (** work-item that faulted *)
    e_context : string;  (** what went wrong *)
  }
(** Structured interpreter fault: unbound names, scalar/array kind
    confusion, out-of-range accesses.  Carries enough context to report
    "kernel K, work-item (x,y,z): ..." without re-deriving it. *)

type access_hook = {
  on_load : name:string -> buf:Buffer.t option -> len:int -> idx:int -> bool;
  on_store : name:string -> buf:Buffer.t option -> len:int -> idx:int -> bool;
}
(** Observer for every memory access the interpreter performs.  [buf] is
    the global buffer ([None] for work-item-private arrays), [len] its
    extent.  Returning [false] suppresses the access — the store is
    skipped and the load yields zero — which lets the sanitizer survive
    out-of-bounds accesses long enough to report them all. *)

val builtin_eval : Kernel_ast.Cast.builtin -> float list -> float
(** Evaluate a math builtin (shared with the Lift IR interpreter). *)

val launch :
  ?hook:access_hook ->
  ?on_workitem:(int * int * int -> unit) ->
  ?spans:Spans.t ->
  Kernel_ast.Cast.kernel ->
  args:Args.t list ->
  global:int list ->
  unit
(** Run the kernel over [global] work-items per dimension.  With
    [spans], dimension 0 visits only the work items they hold, for
    every index of the other dimensions; the default is all of them
    ({!Spans.full}).  [args] are matched positionally against the
    kernel's parameters; buffer arguments are mutated in place.
    [on_workitem] fires before each work-item starts (the sanitizer uses
    it to attribute accesses).

    @raise Invalid_argument on an arity or argument-kind mismatch, or
    when a span ends past [global]'s dimension 0.
    @raise Kernel_ast.Cast.Ndrange_rank when [global] has more
    dimensions than the kernel declares, other than trailing 1s.
    @raise Kernel_ast.Cast.Work_group_size on a kernel whose
    [local_size] is not [[]].
    @raise Exec_error on faults inside a work-item (unbound names, kind
    confusion, out-of-range accesses when no hook intercepts). *)
