(** Multi-device virtual GPU: an array of independent {!Runtime.t}
    devices plus an [Exchange] plan primitive that moves a sub-buffer
    slice between two devices' buffers — the halo-exchange step of the
    Z-sharded acoustics backend.

    Exchange bytes are accounted once, on the source device, at its
    transfer precision, and surface as {!Runtime.stats.s_d2d_bytes} both
    per device and in the aggregate view.  Each device also keeps a
    clock on the virtual timeline of {!run_async}; the clocks belong to
    the [t], so two simulations never share a timeline. *)

(** A device's clock on the virtual timeline, in ns. *)
type clock = {
  vclock : float;  (** when the device's last command retired *)
  vbase : float;  (** [vclock] at the last {!reset_stats} *)
  busy_ns : float;  (** sum of command durations since reset *)
  cmds : int;  (** commands run since reset *)
}

type t = { devices : Runtime.t array; clocks : clock array }

val create :
  ?engine:Runtime.engine ->
  ?optimize:bool ->
  ?unroll_budget:int ->
  ?precision:Kernel_ast.Cast.precision ->
  ?verify:bool ->
  ?sanitize:bool ->
  devices:int ->
  unit ->
  t
(** [engine] (default [Native]), [optimize] (default [true]), [verify]
    and [sanitize] are forwarded to every device's {!Runtime.create};
    each device gets its own sanitizer (its shadow state follows its own
    buffers, with halo exchanges marking destination cells defined).
    @raise Invalid_argument if [devices < 1]. *)

val n_devices : t -> int

val device : t -> int -> Runtime.t
(** @raise Invalid_argument on an out-of-range device index. *)

val bind : t -> int -> string -> Buffer.t -> unit
(** [bind t i name buf] binds [buf] in device [i]'s buffer table. *)

type op =
  | Dev of int * Runtime.op  (** a single-device op on the given device *)
  | Exchange of {
      src_dev : int;
      src : string;
      src_off : int;
      dst_dev : int;
      dst : string;
      dst_off : int;
      elems : int;
    }  (** cross-device sub-buffer copy (peer-to-peer halo transfer) *)

type plan = op list

val run_op : t -> op -> unit
val run : t -> plan -> unit

val prepare : t -> op list -> unit
(** {!Runtime.prepare} of each device's [Launch] ops: the step's
    launches are optimized and verified on their devices, then every
    distinct kernel that misses is built in one batch for all of them.
    [Exchange] ops are ignored. *)

(** {2 Asynchronous execution}

    An async plan tags each op with explicit event dependencies: ops run
    on their device's in-order queue ([Exchange] on the {e source}
    device's), so per-device FIFO order plus the signal→wait edges is the
    complete happens-before relation.  {!run_async} executes it on the
    calling domain. *)

type async_op = {
  a_op : op;
  a_waits : int list;  (** event ids that must fire before the op runs *)
  a_signal : int option;  (** event id fired when the op retires *)
}

type async_plan = async_op list

val default_link_gb_s : float
(** Modeled cross-device link bandwidth used to price [Exchange]
    commands on the virtual timeline (matches
    {!Acoustics.Perf_model.predict_sharded}'s default). *)

val run_async :
  ?imports:(int * float) list -> ?pick:(int -> int) -> t -> async_plan -> (int * float) list
(** Execute the plan on the calling domain.  Buffer names resolve at
    each op's list position (the clSetKernelArg moment), and host-only
    ops ([Alloc], [Swap]) run there; the commands then run in the order
    [pick] chooses among the ready device heads (an index into them,
    taken modulo their count; default the first), so every [pick] is a
    legal queue interleaving and any sanitizer sees a deterministic run.

    Each device's clock advances as an in-order queue's would: a
    command starts at the later of the device clock and the stamps of
    the events it waits on, and lasts its launch's measured kernel
    window, [bytes / default_link_gb_s] ns for an exchange, or its
    measured wall time for a transfer.  A signalled event's
    stamp is its command's retirement time.

    [imports] are events of earlier plans with their stamps.  The
    result maps each event the plan signals to its stamp, in plan
    order, for the next plan's [imports].
    @raise Failure on a wait on an event neither imported nor signalled
    earlier in the plan, on an event signalled twice, or when no ready
    head remains (deadlock); a failing command's exception propagates. *)

val async_vclock : t -> float
(** Critical path of everything run so far: the latest device clock
    (ns).  Monotonic — measure an interval as a delta. *)

(** {2 Aggregated observability} *)

type overlap_stats = {
  o_busy_ns : float;  (** sum of command durations across devices *)
  o_span_ns : float;  (** critical path: max per-device clock advance since reset *)
  o_saved_ns : float;  (** [busy - span]: time hidden by overlap *)
  o_clocks : clock array;  (** per device *)
}

val overlap_stats : t -> overlap_stats

val per_device_stats : t -> (int * Runtime.stats) list

val stats : t -> Runtime.stats
(** Merge of the per-device stats: counters and bytes sum; per-kernel
    entries sharing a name merge (launches/time/bytes sum, min of mins,
    max of maxes). *)

val reset_stats : t -> unit
(** Zero every device's counters and align the clocks to the latest one
    (clocks never rewind), so the next interval starts level. *)

val pp_stats : Format.formatter -> t -> unit
(** One device: its {!Runtime.pp_stats}.  Several: the aggregate block,
    then one block per device, then the virtual-time line (busy,
    critical path, overlap saved) and one line per device when
    {!run_async} ran commands since the last {!reset_stats}. *)
