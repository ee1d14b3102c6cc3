(** Emission of a complete, compilable OpenCL host program ([.c]) for a
    plan: kernel sources embedded as string literals, buffer creation,
    argument setup, profiled NDRange launches and read-back.  Buildable
    with [cc prog.c -lOpenCL]; host data arrays are zero-initialised
    with marked hooks, and every device buffer starts as its array. *)

val host_program :
  ?precision:Kernel_ast.Cast.precision ->
  extent:(int -> string -> int option) ->
  Vgpu.Multi.async_plan ->
  string
(** The program of a plan, on as many devices as it addresses: one
    context with one in-order command queue per device.  Each launch
    sets its resolved arguments and is profiled; a ranged launch
    ({!Vgpu.Spans}) covers its hull, with a comment giving the work
    items its spans hold, and a zero-count launch is a marker, which
    keeps its waits and its event.  An [Exchange] is a
    [clEnqueueCopyBuffer] on its source device's queue, each signal a
    named [cl_event] whose queue is flushed at once, each op's waits its
    wait list, and each [Swap] a pointer swap.  One kernel source is
    embedded per distinct kernel.  On one device, buffers and the queue
    keep Listing 5's names ([d_<name>], [queue]); on several,
    [d<i>_<name>] and [queue<i>].

    Launches and transfers block the host, so only copies and markers
    run alongside other commands.  Like the plan, the program relies on
    region-disjoint use of one buffer from two queues at once (the two
    copies across a cut, or an overlapped copy and a launch), which
    {!Lint.verify_async} proves but OpenCL 1.2 does not guarantee
    (Appendix A.1).

    [extent dev name] is the element count of a buffer that no [Alloc]
    sizes.  A byte-stored buffer ({!Kernel_ast.Cast.U8}) is allocated
    as [unsigned char].  A buffer the plan never uploads
    ([Copy_to_gpu]) is created from its zeroed host array
    ([CL_MEM_COPY_HOST_PTR]).
    @raise Invalid_argument on a buffer without an extent, two different
    kernels sharing a name, or a plan {!Lint.check_async} refuses
    without imports (an event waited on before it is signalled, or
    signalled twice). *)

val of_host : ?precision:Kernel_ast.Cast.precision -> Host.compiled_host -> string
(** {!host_program} of a compiled host program (paper Listing 5) on one
    device, its buffers sized by [buffer_elems]. *)
