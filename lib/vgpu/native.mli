(** Native compiled backend: kernels rendered to C
    ({!Kernel_ast.Native_c}), compiled by the system C compiler into
    shared objects, dlopened and launched in-process.  Compiler flags
    pin IEEE double semantics, so launches are bit-identical to the
    reference interpreter.

    Binaries live in a content-addressed on-disk cache (digest of the
    generated C source + compiler command line), installed atomically;
    corrupt entries are recompiled over.  In-process, compilations are
    memoized by the same digest across runtimes and domains. *)

type compiled

exception No_compiler of string
(** The C compiler command (named by the payload) cannot be run at all:
    the shell reports no such command (exit 127).  {!Runtime} answers
    it by running the kernel on the interpreter. *)

val compile : ?noalias:bool -> Kernel_ast.Cast.kernel -> compiled
(** Render, then load from the memo, the disk cache, or a fresh [cc]
    run, in that order.  [noalias] (default true) renders buffer
    parameters [restrict], proven per launch — see {!launch}.
    @raise No_compiler if the C compiler cannot be run.
    @raise Failure if the C compiler rejects the generated source (the
    compiler's stderr is included). *)

val launch : compiled -> args:Args.t list -> global:int list -> unit
(** Run the full NDRange ([global] padded to 3 dimensions with 1s).
    Scalar arguments coerce: a real argument to an int parameter
    truncates, an int argument to a real parameter widens.

    When the compiled object carries [restrict] qualifiers, the launch
    first checks the binding for aliasing hazards: a buffer in
    {!Kernel_ast.Native_c.written_params} bound to the same array as any
    other buffer parameter.  A hazardous launch transparently dispatches
    a [~noalias:false] compilation of the same kernel (its own cache
    entry) so the restrict promise is never broken; alias-free launches
    — every launch the simulation runtimes issue — keep the qualified
    fast path.  A {!Kernel_ast.Cast.U8} parameter takes a
    {!Buffer.U8} argument, passed in place like every buffer.
    @raise Invalid_argument on an argument count, kind or storage
    mismatch (a [U8] buffer for a word parameter, or the reverse). *)

val source : ?noalias:bool -> Kernel_ast.Cast.kernel -> string
(** The C translation unit [compile] builds (for inspection/tests). *)

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
(** Compiler flags ([RACS_CFLAGS], default pins IEEE semantics:
    [-O2 -fPIC -shared -fno-fast-math -ffp-contract=off -fwrapv]). *)

type counters = {
  c_compiles : int;  (** cc actually ran *)
  c_disk_hits : int;  (** shared object found on disk and loaded *)
  c_memo_hits : int;  (** in-process memo hit, no disk access *)
}

val counters : unit -> counters
(** Process-wide counters (atomic: compilations may happen on async
    worker domains). *)

val reset_counters : unit -> unit

val reset_memo : unit -> unit
(** Drop the in-process memo so the next {!compile} exercises the disk
    cache (tests use this to observe cold/warm behaviour). *)
