(** Native compiled backend: kernels rendered to C
    ({!Kernel_ast.Native_c}), compiled by the system C compiler into
    shared objects, dlopened and launched in-process.  Compiler flags
    pin IEEE double semantics, so launches are bit-identical to the
    reference interpreter.

    One build path: {!build} renders the kernels that miss both the
    in-process memo and the disk cache into one translation unit and
    runs the compiler once for all of them; {!compile} is its one-kernel
    case.  Binaries live in a content-addressed on-disk cache, one
    [<key>.so] per kernel (a digest of its entry's C text, the prelude
    and the compiler command line), installed atomically; a batch's
    object is installed under every member's key, and each entry is
    exported under a name made from its key, so any object holding it
    serves that key.  Corrupt entries are rebuilt over.  In-process,
    builds are memoized by the same key across runtimes and domains. *)

type compiled

exception No_compiler of string
(** The C compiler command (named by the payload) cannot be run at all:
    the shell reports it not executable (exit 126) or no such command
    (exit 127).  {!Runtime} answers it by running the kernel on the
    interpreter. *)

val build :
  ?noalias:bool -> Kernel_ast.Cast.kernel list -> (compiled, exn) result list
(** One result per kernel, in order.  Each kernel is rendered once and
    loaded from the memo, else from the disk cache; all the others are
    built by a single [cc] run of one translation unit, installed under
    each one's own key.  Kernels with equal keys share one result.
    [noalias] (default true) renders the entry body's buffer
    parameters [restrict], which the C compiler acts on; {!dispatch}
    proves the promise per launch, and [~noalias:false] builds the
    rendering an aliased launch runs.

    When the compiler rejects a unit of several kernels, they are built
    one at a time, so each error names its own kernel and the others
    still load.  A failed kernel's result is [Error]: {!No_compiler} when
    the C compiler cannot be run (for every kernel of the call), or
    [Failure] when it rejects the source (the compiler's stderr is
    included).
    @raise Kernel_ast.Cast.Work_group_size before any build when a
    kernel's [local_size] is not [[]]: no entry renders for it. *)

val compile : ?noalias:bool -> Kernel_ast.Cast.kernel -> compiled
(** {!build} of one kernel.
    @raise No_compiler if the C compiler cannot be run.
    @raise Failure if the C compiler rejects the generated source.
    @raise Kernel_ast.Cast.Work_group_size as {!build} does. *)

type launcher
(** One compiled kernel's launch packet: the argument slot arrays and
    the NDRange the C trampoline reads.  A launcher is reused launch
    after launch, so a steady dispatch allocates nothing.  Between
    launches its slots hold OCaml references to the last arguments,
    never raw pointers (a minor collection may move an array), which
    keeps those buffers alive: a launcher belongs to the one runtime
    that made it, and no process-wide structure holds one. *)

val launcher : compiled -> launcher

val dispatch : ?spans:Spans.t -> launcher -> Args.t array -> global:int list -> unit
(** Fill the slots from the arguments and run the NDRange ([global]
    padded to 3 dimensions with 1s), dimension 0 over [spans]: the
    entry visits only the work items they hold.  Without [spans] it runs
    the full NDRange, as the one span [[0, global0)] the launcher keeps,
    so the entry has one loop form.  Scalar arguments coerce: a real
    argument to an int parameter truncates, an int argument to a real
    parameter widens.  The span table is passed in place.  Allocates
    nothing.

    When the compiled object carries [restrict] qualifiers, the filled
    slots are first checked for aliasing hazards, by physical
    comparison: a buffer in {!Kernel_ast.Native_c.written_params} bound
    to the same array as any other buffer parameter.  The promise
    reaches the compiler, which may keep a value loaded through one
    buffer across a store through another, so a hazardous launch would
    compute a different answer on that object.  It transparently
    dispatches a [~noalias:false] compilation of the same kernel
    instead (its own cache entry, fetched once per launcher), whose
    results match the interpreter's; alias-free launches — every launch
    the simulation runtimes issue — keep the qualified fast path.  A
    {!Kernel_ast.Cast.U8} parameter takes a {!Buffer.U8} argument,
    passed in place like every buffer.
    @raise Invalid_argument on an argument count, kind or storage
    mismatch (a [U8] buffer for a word parameter, or the reverse), or a
    span ending past [global]'s dimension 0.
    @raise Kernel_ast.Cast.Ndrange_rank when [global] has more
    dimensions than the kernel declares, other than trailing 1s: the
    entry loops over the declared ones only. *)

val launch : ?spans:Spans.t -> compiled -> args:Args.t list -> global:int list -> unit
(** {!dispatch} on a fresh {!launcher}. *)

val source : ?noalias:bool -> Kernel_ast.Cast.kernel -> string
(** The C translation unit [compile] builds for a kernel alone (for
    inspection/tests): the prelude and the kernel's entry, exported as
    [racs_kernel_<key>]. *)

val cache_key : Kernel_ast.Cast.kernel -> string
(** Content digest keying the on-disk entry for this kernel under the
    current toolchain configuration. *)

val cache_dir : unit -> string
(** Resolve (and create) the binary cache directory: [RACS_CACHE_DIR],
    else [$XDG_CACHE_HOME/racs/native], else [$HOME/.cache/racs/native],
    else a temp-dir fallback. *)

val set_cache_dir : string -> unit
(** Override the cache directory (tests point this at a scratch dir). *)

val cc : unit -> string
(** C compiler command ([RACS_CC], default [cc]). *)

val flags : unit -> string
(** Compiler flags ([RACS_CFLAGS], which replaces them whole).  The
    default pins IEEE semantics and links no start files or default
    libraries:
    [-O2 -fPIC -shared -nostdlib -fno-fast-math -ffp-contract=off -fwrapv].
    [-lm] follows the output file, whatever the flags, when an entry of
    the unit calls one of the prelude's libm functions
    ({!Kernel_ast.Native_c.calls_libm}), and only then; a libc symbol a
    binary imports resolves at load time against the process's libc.  A
    toolchain that needs its start files gets them back with a
    [RACS_CFLAGS] that leaves out [-nostdlib].  The cache key digests
    the flags and the entry's own link line with the compiler and the
    source. *)

type counters = {
  c_compiles : int;  (** cc actually ran *)
  c_kernels_built : int;  (** kernels those cc runs built, one or more each *)
  c_disk_hits : int;  (** shared object found on disk and loaded *)
  c_memo_hits : int;  (** in-process memo hit, no disk access *)
  c_cc_ns : int;  (** wall time in cc runs, failed ones included *)
  c_dlopen_ns : int;  (** wall time in dlopen, of fresh and cached objects *)
}

val counters : unit -> counters
(** Process-wide counters (atomic: compilations may happen on the domain
    pool's workers under the [`Concurrent] schedule). *)

val reset_counters : unit -> unit

val reset_memo : unit -> unit
(** Drop the in-process memo so the next {!build} exercises the disk
    cache (tests use this to observe cold/warm behaviour). *)
