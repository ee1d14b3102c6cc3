(** Shadow-memory sanitizer: checked execution mode for the reference
    interpreter.

    Dynamically verifies the properties {!module:Kernel_ast.Check}
    cannot prove statically — chiefly the indirect [next\[bidx\[i\]\]]
    boundary scatters.  Per buffer cell it shadows the launch epoch and
    work-item of the last store, and reports:

    - {b write-write races}: two distinct work-items storing the same
      cell within one launch;
    - {b out-of-bounds} loads and stores (the access is suppressed so
      the run survives to collect the full picture);
    - {b reads of never-written cells}: neither host-initialised, copied
      into, nor stored by a kernel.

    One sanitizer instance follows one device's buffers; shadows are
    keyed on the physical identity of the underlying arrays, so the
    runtime's re-wrapping of arrays into fresh [Buffer.t] values is
    invisible to it. *)

type t

type kind =
  | Write_race of (int * int * int)  (** the earlier writer *)
  | Oob_store
  | Oob_load
  | Read_uninit

type violation = {
  v_kernel : string;
  v_buf : string;
  v_idx : int;
  v_gid : int * int * int;
  v_kind : kind;
}

type counts = {
  n_races : int;
  n_oob : int;
  n_uninit : int;
}

val no_violations : counts
val add_counts : counts -> counts -> counts
val total : counts -> int

val create : ?max_kept:int -> unit -> t
(** [max_kept] caps the retained {!violations} list (default 64);
    {!counts} always reflects every violation. *)

(** {2 Lifecycle notifications (called by the runtime)} *)

val note_host_write : t -> Buffer.t -> unit
(** The host initialised (or re-initialised) the whole buffer. *)

val note_alloc : t -> Buffer.t -> unit
(** A fresh device allocation: contents are undefined until written. *)

val note_blit : t -> Buffer.t -> off:int -> len:int -> unit
(** [len] cells starting at [off] of the destination buffer received
    defined data (device-to-device copy / halo exchange). *)

val begin_launch : t -> kernel:string -> unit
(** Start a new launch epoch: stores from different work-items of {e
    this} launch to one cell are races; overwrites across launches are
    not. *)

val set_gid : t -> int * int * int -> unit
(** Attribute subsequent accesses to this work-item (wired to
    [Exec.launch ~on_workitem]). *)

val hook : t -> Exec.access_hook
(** The access hook to pass to [Exec.launch ~hook]. *)

val launch :
  ?spans:Spans.t -> t -> Kernel_ast.Cast.kernel -> args:Args.t list -> global:int list -> unit
(** Convenience: [begin_launch] + [Exec.launch] with this sanitizer's
    hook and work-item attribution installed, over the same [spans].
    @raise Kernel_ast.Cast.Ndrange_rank or
    {!Kernel_ast.Cast.Work_group_size} before the launch begins, as
    {!Exec.launch} would, and [Invalid_argument] as it does on a span
    past the NDRange. *)

(** {2 Results} *)

val counts : t -> counts
val violations : t -> violation list
(** In detection order, capped at [max_kept]. *)

val access_extents : t -> (string * (int * int) option * (int * int) option) list
(** Per global-buffer argument name (sorted), the inclusive [(min, max)]
    linear-index interval of observed loads and of observed stores,
    accumulated across every launch this sanitizer has followed; [None]
    when no access of that direction occurred.  Out-of-bounds attempts
    are included — a sound static footprint ({!Kernel_ast.Footprint})
    must cover them too — which makes this the dynamic ground truth the
    footprint property tests compare against. *)

val pp_violation : Format.formatter -> violation -> unit
val pp_counts : Format.formatter -> counts -> unit

val pp : Format.formatter -> t -> unit
(** Full report: summary line plus each retained violation. *)
