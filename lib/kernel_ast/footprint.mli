(** Static stencil-footprint inference over kernel ASTs.

    For every global buffer a kernel touches, infer the {e footprint} of
    its accesses: per grid axis, how far reads and writes reach relative
    to the cell the work-item owns — the quantity a halo exchange must
    cover (Devito's MPI-X derives communication schedules from exactly
    this; arXiv:2312.13094).

    The analysis evaluates expressions with {!module:Check}'s transfer
    function ({!Domain.eval}) and adds {b value provenance} through its
    hooks: every abstract value carries the set of global-buffer cells
    it was loaded from, and
    provenance flows through scalar registers, private arrays and
    [__local] staging buffers.  Loop-carried registers age by one
    iteration per trip (the [z]-march idiom of 2.5D-tiled stencils), so
    a tiled stencil's register-held below-plane reads surface as a [z-1]
    arm even though no load instruction mentions [z-1]:

    - a {b flat} 7-point stencil infers reads of [curr] at
      [x±1, y±1, z±1] from the six neighbour loads directly;
    - a {b tiled} 2.5D variant (no production kernel is one; the tests
      keep one as a fixture) stages a plane in local memory and marches
      [z] in a register; provenance through the tile and the aged
      register recovers the same [±1] extents;
    - {b interior/frontier} range launches ({!Cast.offset_global_id})
      keep their extents because the unknown [goff] parameter is
      launch-uniform ({!Domain.Tparam}) and cancels in offset
      differences.

    Offsets are relative to the {e anchor}: the buffer whose stores
    define the work-item's cell (the [next] grid by convention).
    Kernels whose stores are indirect scatters (the boundary kernels'
    [next\[bidx\[i\]\]]) get [None] relative extents and an
    [s_indirect] flag — the sanitizer's territory, as for
    {!module:Check}. *)

type axis = { ax_lo : int; ax_hi : int }
(** Inclusive relative offset range along one axis, [ax_lo <= 0 <= ax_hi]
    for any footprint that includes the cell itself. *)

(** One direction (reads or writes) of a buffer's footprint. *)
type side = {
  s_rel : axis array option;
      (** per-axis offset extents relative to the anchor cell (axis 0 is
          the unit-stride axis); [None] when some access could not be
          reduced to a constant offset (indirect index, or no anchor) *)
  s_abs : Domain.itv array;
      (** per-axis absolute index interval over the whole launch box *)
  s_lin : Domain.itv;  (** absolute linear index interval *)
  s_indirect : bool;
      (** some access index was data-dependent or non-affine *)
  s_sites : int;  (** distinct static access sites (0 = no accesses) *)
}

type buf = {
  fb_name : string;
  fb_read : side;
  fb_write : side;
  fb_exact : bool;
      (** relative extents are backed by exact dataflow: no approximate
          register aging, no dropped provenance *)
}

type t = {
  fp_kernel : string;
  fp_anchor : string option;  (** buffer anchoring relative offsets *)
  fp_strides : int array;  (** axis strides used for decomposition *)
  fp_bufs : buf list;  (** global buffers with accesses, sorted by name *)
  fp_notes : string list;  (** reasons parts of the inference gave up *)
}

val infer : ?anchor:string -> ?strides:int array -> Check.env -> Cast.kernel -> t
(** [infer ~strides env k] runs the provenance-carrying abstract
    interpretation of [k] under [env] (same parameter resolution as
    {!Check.check}).  [strides] are the linear strides of the grid axes
    in ascending order, e.g. [\[|1; nx; nx*ny|\]] for an
    [x + nx*y + nx*ny*z] layout; constant offsets decompose onto the
    axes by balanced (nearest-multiple) rounding.  Defaults to the
    one-axis layout [\[|1|\]], under which relative extents are linear
    offsets.  [anchor] overrides anchor-buffer selection (default:
    [next] when it has affine stores, else the unique buffer with affine
    stores).
    @raise Invalid_argument if [strides] is empty, not strictly
    increasing, or does not start at 1. *)

val find : t -> string -> buf option

val read_rel : t -> string -> axis array option
(** Relative read extents of a buffer; [None] when the buffer has no
    inferable relative read footprint.  A buffer with {e no} reads gets
    all-zero extents. *)

val write_rel : t -> string -> axis array option

val read_radius : t -> string -> int option
(** [max (-ax_lo) ax_hi] over the {e last} (highest-stride) axis of
    {!read_rel} — the slab-halo width in planes the buffer's reads
    require.  [None] when not inferable. *)

val pp : Format.formatter -> t -> unit
val pp_axis : Format.formatter -> axis -> unit
