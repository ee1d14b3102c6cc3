(** Host-side runtime: executes the operation plans produced by the Lift
    host code generator (kernel launches, host<->device transfers).

    Device memory is simulated as unified memory, so a transfer is a
    bookkeeping event (bytes counted) rather than a copy; launches
    dispatch to the reference interpreter or to compiled C
    ({!module:Native}), and are timed per kernel ({!stats}).  Each
    kernel value is prepared once per runtime (see {!launch_resolved}),
    and buffers live in a table of cells that [Swap] rotates. *)

type arg =
  | A_buf of string  (** resolved against the runtime's buffer table *)
  | A_int of int
  | A_real of float

type op =
  | Alloc of { name : string; ty : Kernel_ast.Cast.ty; elems : int }
  | Copy_to_gpu of string
  | Copy_to_host of string
  | Launch of {
      kernel : Kernel_ast.Cast.kernel;
      args : arg list;
      global : int list;
      spans : Spans.t option;
    }
      (** [spans]: the dimension-0 work items the launch visits ([None]:
          all of them).  Verification sees the launch's NDRange alone,
          the hull of its spans: they hold a subset of its work items,
          each independent of the others. *)
  | Swap of string * string
      (** exchange two buffer bindings (host pointer rotation between
          time steps) *)
  | Copy_buffer of { src : string; src_off : int; dst : string; dst_off : int; elems : int }
      (** device-to-device sub-buffer copy ([clEnqueueCopyBuffer]): the
          halo-exchange primitive of the sharded backend *)

type plan = op list

type engine =
  | Interp  (** reference interpreter: the semantic oracle *)
  | Native
      (** kernels rendered to C ({!module:Kernel_ast.Native_c}),
          compiled with the system C compiler and loaded via [dlopen]
          ({!module:Native}); binaries come from a content-addressed
          on-disk cache.  When the compiler cannot be run at all
          ({!Native.No_compiler}), each kernel runs on the interpreter
          instead, and the first such fallback in the process is logged
          on stderr. *)

type launch_sig = {
  sig_global : int list;
  sig_args : [ `B of int | `I of int | `R ] list;
}
(** Verification-cache key: the static verdict of a launch depends only
    on the kernel, the NDRange, and the arguments through scalar values
    and buffer extents. *)

exception Unsafe_kernel of Kernel_ast.Check.report
(** Raised at dispatch (when verification is on) if
    {!module:Kernel_ast.Check} refutes race-freedom or bounds-safety of
    the kernel as launched; the report carries the concrete witness. *)

type kernel_stats = {
  mutable k_launches : int;
  mutable total_s : float;
  mutable min_s : float;
  mutable max_s : float;
  mutable arg_bytes : int;
      (** bytes of buffer arguments bound across launches, at the
          kernel's precision *)
  mutable k_opt : Kernel_ast.Opt.report option;
      (** report from the {!module:Kernel_ast.Opt} pipeline, when the
          runtime optimized this kernel before dispatch *)
}

type kernel_acc
(** A kernel's launch counters as dispatch accumulates them; {!stats}
    copies them out as {!kernel_stats}. *)

type prepared
(** A launch prepared once per raw kernel value: the kernel as dispatched
    with its {!module:Kernel_ast.Opt} report and structural digest, its
    engine entry (a {!Native.launcher}, or the interpreter), and the
    last few launch signatures verified clean (at most 8). *)

type bound_op
(** A [Launch] or [Swap] op whose buffer names are resolved to cells of
    the buffer table, once per op value. *)

type t = {
  buffers : (string, Buffer.t ref) Hashtbl.t;
      (** the buffer table: one cell per name.  {!bind} writes a name's
          cell and [Swap] exchanges two cells' contents; a cell is never
          replaced, so an op resolved to cells stays resolved. *)
  opt_cache : (Kernel_ast.Cast.kernel * Kernel_ast.Opt.report) Kcache.t;
      (** raw-kernel digest -> (optimized kernel, report), so each
          distinct raw kernel is optimized once *)
  check_cache : unit Kcache.t;
      (** (kernel, launch signature) digests already statically verified
          clean (no [Unsafe]) *)
  native_cache : Native.compiled option Kcache.t;
      (** structural digest -> loaded native binary (backed by the
          process-wide memo and on-disk binary cache in {!module:Native});
          bounded, LRU-evicted.  [None] marks a kernel that runs on the
          interpreter because no C compiler could be run. *)
  mutable prepared : prepared list;
      (** prepared launches keyed by the raw kernel value (physical
          equality), newest first, at most 32 *)
  mutable bound_ops : bound_op list;
      (** [Launch] and [Swap] ops resolved to cells, keyed by the op
          value (physical equality), newest first, at most 32 *)
  kstats : (string, kernel_acc) Hashtbl.t;
  engine : engine;
  optimize : bool;
      (** when set (the default), launched kernels pass through the
          {!module:Kernel_ast.Opt} pipeline before compilation or
          interpretation *)
  unroll_budget : int option;
      (** optimizer unroll-gate override; [None] keeps the default *)
  precision : Kernel_ast.Cast.precision;
      (** element width used for real-buffer transfer accounting *)
  verify : bool;
      (** statically race/bounds-check every dispatched kernel
          ({!module:Kernel_ast.Check}) and raise {!Unsafe_kernel} on a
          refuted one *)
  sanitizer : Sanitizer.t option;
      (** when present, launches run under the shadow-memory sanitizer
          (forcing the reference interpreter regardless of [engine]) *)
  mutable launches : int;
  mutable h2d_bytes : int;
  mutable d2h_bytes : int;
  mutable d2d_bytes : int;  (** device-to-device copies: halo exchanges *)
}

val create :
  ?engine:engine ->
  ?optimize:bool ->
  ?unroll_budget:int ->
  ?precision:Kernel_ast.Cast.precision ->
  ?verify:bool ->
  ?sanitize:bool ->
  unit ->
  t
(** [engine] defaults to [Native].  [precision] (default [Double]) sets
    how many bytes a real element counts for in the transfer
    statistics: 4 in single precision, 8 in double, matching the
    paper's traffic model.  [optimize] (default
    [true]) runs the {!module:Kernel_ast.Opt} pass pipeline on each
    distinct kernel before dispatch; the per-kernel report appears in
    {!stats}.  [unroll_budget] overrides the optimizer's unroll gate for
    every kernel this runtime optimizes (the autotuner's knob); the
    default keeps {!Kernel_ast.Opt}'s built-in budget.

    [verify] (default [false]) gates fail-fast static verification of
    every launch.  [sanitize] (default [false]) runs every launch under
    {!module:Sanitizer} via the reference interpreter, overriding
    [engine]; violation counts appear in {!stats}.  Each of the
    runtime's kernel caches holds {!Kcache.default_capacity} entries. *)

val sanitizer : t -> Sanitizer.t option
(** The runtime's sanitizer, when created with [~sanitize:true]. *)

val bind : t -> string -> Buffer.t -> unit
(** Bind a buffer by name: write the name's cell, creating it on first
    use.  Ops already resolved to that cell see the new buffer at their
    next dispatch. *)

val cell : t -> string -> Buffer.t ref
(** A name's cell.  A cell is never replaced, so a caller may keep it
    and read the name's current buffer through it after any {!bind} or
    [Swap].
    @raise Failure if the name is unbound. *)

val buffer : t -> string -> Buffer.t
(** The buffer a name's cell holds now.
    @raise Failure if the name is unbound. *)

val buffer_opt : t -> string -> Buffer.t option

val slice_bytes : precision:Kernel_ast.Cast.precision -> Buffer.t -> int -> int
(** Bytes moved by a sub-buffer copy of [elems] elements of the given
    buffer, at the runtime's transfer precision: 4 per int element, 1
    per element of a byte-stored ({!Buffer.U8}) buffer. *)

val blit_buffers :
  src:Buffer.t -> src_off:int -> dst:Buffer.t -> dst_off:int -> elems:int -> unit
(** Raw sub-buffer copy between two device buffers.
    @raise Failure if the element types disagree.
    @raise Invalid_argument if an int buffer meets a byte-stored one. *)

val account_d2d : t -> int -> unit
(** Charge [bytes] to the device-to-device transfer counter (used by
    {!module:Multi} for cross-device exchanges). *)

val resolve_arg : t -> arg -> Args.t
(** Resolve one launch argument against the buffer table now — the
    clSetKernelArg moment: a buffer name reads its cell.
    @raise Failure on an unbound buffer name. *)

val launch_resolved :
  ?spans:Spans.t -> t -> Kernel_ast.Cast.kernel -> args:Args.t list -> global:int list -> float
(** Dispatch a launch whose arguments were already resolved with
    {!resolve_arg}, dimension 0 over [spans] (default: all of it), and
    return its timed kernel window in seconds — the duration its kernel
    stats record.  {!Multi.run_async} resolves
    arguments at each op's list position and charges this duration to
    the device's virtual clock.

    The first launch of a kernel value prepares it, unless {!prepare}
    did: optimized, its native binary fetched (after verification, so a
    refused kernel compiles nothing) and wrapped in a
    {!Native.launcher}.  Every later
    launch of that value reuses the preparation, and under [verify]
    compares its launch signature (NDRange, int scalars, buffer extents)
    with the few last verified clean, without allocating, and
    re-verifies only when none matches: a kernel launched over several
    ranges per step, like an overlapped step's split volume kernel,
    verifies each range once.
    Each lookup a prepared launch skips counts as a hit of the cache it
    stands in for ([opt], [check], [native]), so {!stats} reads as if
    every lookup had been made.  A launch counts in {!stats} once its
    engine ran it.
    @raise Unsafe_kernel if verification refutes the launch.
    @raise Invalid_argument on an argument count, kind or storage
    mismatch. *)

val run_op : t -> op -> unit
(** A [Launch] or a [Swap] resolves its buffer names to cells once per
    op value.  A [Launch] reads the cells at each dispatch, then runs as
    {!launch_resolved}; a [Swap] exchanges two cells' contents.
    @raise Failure if an [Alloc] reuses a binding whose element count or
    type differs from the plan's allocation. *)

val run : t -> plan -> unit

val prepare : (t * op list) list -> unit
(** Prepare the [Launch] ops of one step, given per runtime, ahead of
    its first launch (other ops are ignored).  Each kernel is optimized
    and, under [verify], its first launch in the step is checked with
    its arguments as the buffer table binds them now, so a refused
    launch raises {!Unsafe_kernel} before anything is built (a later
    launch of the same kernel is checked at its own dispatch).  Then
    every kernel some runtime has no native
    entry for is built in one {!Native.build}: each distinct kernel (by
    structural digest) rendered and looked up once, one [cc] run for all
    that miss the disk cache, and every runtime launching it takes its
    entry from that build.  The lookups made here stand for each
    launch's next dispatch, which then counts none, so {!stats} reads
    as if that dispatch had made them.  A launch that was never prepared
    still prepares itself at its first dispatch, building its kernel
    alone.
    @raise Unsafe_kernel if verification refutes a launch.
    @raise Failure if the C compiler rejects a kernel (the others are
    built and loaded). *)

(** {2 Launch-level observability} *)

type stats = {
  s_launches : int;
  s_h2d_bytes : int;
  s_d2h_bytes : int;
  s_d2d_bytes : int;  (** halo-exchange / device-copy bytes *)
  s_violations : Sanitizer.counts option;
      (** dynamic violation counts; [Some] iff the runtime sanitizes *)
  s_caches : (string * Kcache.counters) list;
      (** per-cache hit/miss/eviction counters, labelled [opt],
          [check], [native] *)
  per_kernel : (string * kernel_stats) list;  (** sorted by kernel name *)
}

val stats : t -> stats
(** Snapshot of the counters: total launches, transfer bytes, and
    per-kernel launch count / wall time (total, min, mean via total,
    max) / buffer bytes bound.  The per-kernel records are copies, so
    later launches leave a value already taken unchanged. *)

val reset_stats : t -> unit
(** Zero all counters, including the per-cache hit/miss/eviction
    counters; cached entries themselves are kept. *)

val pp_stats : Format.formatter -> stats -> unit

val set_clock : (unit -> float) -> unit
(** Replace the clock used to time kernel launches (process-wide; the
    default is the monotonic {!Clock.now}).  The autotuner's determinism
    tests inject a fake timer here; production code never needs it.
    A launch's timed window covers the kernel run only: its compiled
    code (cc + dlopen) is resolved before the timer starts. *)

val reset_clock : unit -> unit
(** Restore {!set_clock} to {!Clock.now}. *)
