(** Portable-C rendering of kernel ASTs for the native compiled backend.

    Renders a {!Cast.kernel} as a self-contained C99 translation unit
    exporting a single entry point ({!entry_symbol}) that runs the full
    NDRange.  The rendering is semantics-exact against the reference
    interpreter ([Vgpu.Exec]): IEEE double arithmetic, [int64_t] integers with truncating division,
    [fmod] for real [Mod], OCaml-faithful [Fmin]/[Fmax] helpers, and
    single-precision rounding on stores to global real buffers.
    [Vgpu.Native] compiles the source with the system C compiler and
    dispatches launches through it. *)

val entry_symbol : string
(** Name of the exported entry:
    [void racs_kernel_entry(double **fb, int64_t **ib, uint8_t **u8b,
                            const int64_t *isc, const double *fsc,
                            const int64_t *gsz)]
    — real buffers, int buffers (tagged OCaml words), byte-stored int
    buffers ({!Cast.U8}), int scalars, real scalars (each indexed by the
    slots of {!bindings}), and the three NDRange sizes (missing
    dimensions padded with 1). *)

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
    {!kernel_source}.  Proven by {!Footprint}'s abstract interpretation
    (whose write side counts every static store site, indirect scatters
    included), unioned with a syntactic walk over [Store] targets as a
    conservative floor: a buffer is reported read-only only when both
    analyses agree it is never written. *)

val kernel_source : ?noalias:bool -> Cast.kernel -> string
(** The complete translation unit.  Deterministic: equal kernels render
    to equal strings, so the source digest can key a binary cache.

    Buffer parameters outside {!written_params} are emitted [const].
    With [noalias] (the default) every buffer parameter is additionally
    qualified [restrict] — licensed only when no buffer in
    {!written_params} is bound to the same array as any other buffer
    parameter.  [Vgpu.Native.launch] checks exactly that per launch and
    re-renders with [~noalias:false] (a distinct cache entry) for the
    rare aliased launch, so the fast path keeps the qualifier without
    ever lying to the C compiler.
    @raise Failure on an unbound identifier (the kernel would not
    interpret either). *)
