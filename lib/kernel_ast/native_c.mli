(** Portable-C rendering of kernel ASTs for the native compiled backend.

    Renders a {!Cast.kernel} as a C99 entry function that runs the
    NDRange, and any number of entries as one translation unit
    ({!translation_unit}).  The rendering is semantics-exact against the
    reference interpreter ([Vgpu.Exec]): IEEE double arithmetic,
    [int64_t] integers with truncating division, [fmod] for real [Mod],
    OCaml-faithful [Fmin]/[Fmax] helpers, and single-precision rounding
    on stores to global real buffers.  The prelude includes no header:
    the fixed-width types come from the compiler's predefined macros,
    the libm functions have prototypes, and [signbit]/[memset] are
    compiler builtins.  [Vgpu.Native] compiles units with the system C
    compiler and dispatches launches through their entries. *)

val entry_macro : string
(** [RK_ENTRY], the name every entry is rendered under (its body
    function is [RK_BODY], which the {!preamble} names after it).  An
    entry is
    [void RK_ENTRY(double **fb, int64_t **ib, uint8_t **u8b,
                   const int64_t *isc, const double *fsc,
                   const int64_t *gsz,
                   const int64_t *rk_sp, int64_t rk_nsp)]
    — real buffers, int buffers (tagged OCaml words), byte-stored int
    buffers ({!Cast.U8}), int scalars, real scalars (each indexed by the
    slots of {!bindings}), the three NDRange sizes (missing dimensions
    padded with 1), and the span table: [rk_nsp] pairs [lo, hi) of
    dimension-0 work items, as tagged OCaml words, ascending and
    disjoint inside [[0, gsz[0])] (a plain launch passes the one span
    [[0, gsz[0])]).  {!translation_unit} defines the macro to each
    entry's exported name. *)

type binding =
  | Arg_fbuf of int  (** real buffer -> [fb[slot]] *)
  | Arg_ibuf of int  (** int buffer -> [ib[slot]] *)
  | Arg_u8buf of int  (** byte-stored int buffer -> [u8b[slot]] *)
  | Arg_iscalar of int  (** int scalar -> [isc[slot]] *)
  | Arg_rscalar of int  (** real scalar -> [fsc[slot]] *)

val bindings : Cast.kernel -> binding list
(** ABI slot of each parameter, in parameter order; slot indices count
    per category in order of appearance.  The launcher must coerce
    scalars when marshalling arguments (real argument to int parameter
    truncates, int argument to real parameter widens). *)

val written_params : Cast.kernel -> string list
(** The global-buffer parameters the kernel stores to, in parameter
    order — the write set behind the qualifier emission of
    {!entry_source}.  Proven by {!Footprint}'s abstract interpretation
    (whose write side counts every static store site, indirect scatters
    included), unioned with a syntactic walk over [Store] targets as a
    conservative floor: a buffer is reported read-only only when both
    analyses agree it is never written. *)

val calls_libm : Cast.kernel -> bool
(** Does the kernel's entry call one of the eight libm functions the
    {!preamble} declares ([sqrt], [fabs], [exp], [log], [sin], [cos],
    [floor], and [fmod] for a real [Mod])?  [Vgpu.Native] links libm
    only into units holding such an entry. *)

val preamble : string
(** The prelude every translation unit starts with: types, libm
    prototypes, the [Fmin]/[Fmax] helpers and the [RK_BODY] macro. *)

val entry_source : ?noalias:bool -> Cast.kernel -> string
(** One kernel's entry, named {!entry_macro}, and its body function.
    Deterministic: equal kernels render to equal strings, so the text
    can key a binary cache.

    The body is a [static], always-inlined function taking the kernel's
    parameters as C parameters, in parameter order, then the three
    NDRange sizes and the span table; the exported entry unpacks the
    slot arrays and calls it once.  Parameters, not locals, because the
    C compiler honours [restrict] on parameters (also after inlining)
    and ignores it on block-scope pointers loaded from the slot arrays.
    A parameter the body never reads is cast to [void], so the source
    compiles without warnings under [-Wall -Wextra].  The body loops
    over the NDRange dimensions the kernel declares
    ({!Cast.launch_dims}), dimension 0 over the span table, and reads
    [get_global_id] of any other dimension as 0, which the rank rule
    ({!Cast.check_ndrange}) makes exact.

    Buffer parameters outside {!written_params} are emitted [const].
    With [noalias] (the default) every buffer parameter is additionally
    qualified [restrict] — licensed only when no buffer in
    {!written_params} is bound to the same array as any other buffer
    parameter.  [Vgpu.Native.dispatch] checks exactly that per launch
    and dispatches a [~noalias:false] rendering (a distinct cache entry)
    for the rare aliased launch, so the fast path keeps the qualifier
    without ever lying to the C compiler, which does act on it: a
    [restrict] build may keep a value loaded through one buffer in a
    register across a store through another.
    @raise Failure on an unbound identifier (the kernel would not
    interpret either).
    @raise Cast.Work_group_size on a kernel whose [local_size] is not
    [[]]. *)

val translation_unit : (string * string) list -> string
(** [translation_unit [(symbol, entry); ...]]: the {!preamble} once,
    then each entry (from {!entry_source}) exported as its [symbol].
    Entries do not see one another: each is compiled to the code it
    would get alone. *)
