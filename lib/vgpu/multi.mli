(** Multi-device virtual GPU: an array of independent {!Runtime.t}
    devices plus an [Exchange] plan primitive that moves a sub-buffer
    slice between two devices' buffers — the halo-exchange step of the
    Z-sharded acoustics backend.

    Exchange bytes are accounted once, on the source device, at its
    transfer precision, and surface as {!Runtime.stats.s_d2d_bytes} both
    per device and in the aggregate view. *)

type t = { devices : Runtime.t array }

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

(** {2 Asynchronous execution}

    An async plan tags each op with explicit event dependencies: ops run
    on their device's {!Queue} ([Exchange] on the {e source} device's
    queue), so per-queue FIFO order plus the signal→wait edges is the
    complete happens-before relation.  Buffer names are resolved at
    submission (the clSetKernelArg moment), so host-side rebinding
    between time steps never races a queued op.  Host-only ops
    ([Alloc], [Swap]) execute during submission itself. *)

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

val submit_async :
  ?imports:(int * Queue.event) list ->
  ?link_gb_s:float ->
  t ->
  async_plan ->
  (int * Queue.event) list
(** Enqueue the plan on the per-device queues and return immediately.
    The result maps each event id the plan signals to its
    {!Queue.event}, for [imports] of a later submission (cross-step
    dependencies under pipelining).  Waits must reference imported or
    earlier-signaled ids.
    @raise Invalid_argument if any device sanitizes — checked execution
    needs deterministic scheduling; use {!run_async_with}.
    @raise Failure on a wait on an unknown event or a duplicate signal. *)

val finish_async : t -> unit
(** Drain every device queue; re-raise the first command failure after
    all queues have drained. *)

val run_async :
  ?imports:(int * Queue.event) list ->
  ?link_gb_s:float ->
  t ->
  async_plan ->
  (int * Queue.event) list
(** [submit_async] then [finish_async]. *)

val async_vclock : t -> float
(** Critical path of everything retired so far: the maximum virtual
    clock (ns) across this instance's device queues.  Monotonic —
    measure an interval as a delta. *)

val run_async_with : ?imports:int list -> ?pick:(int -> int) -> t -> async_plan -> unit
(** Deterministic single-threaded replay: same buffer resolution as
    {!submit_async}, but commands run on the calling domain in an order
    chosen by [pick] (index into the ready queue heads, taken modulo
    their count) — every [pick] is a legal queue interleaving, which is
    the qcheck handle on the bit-identity invariant.  Sanitizers are
    allowed.  [imports] lists event ids assumed already fired.
    @raise Failure on deadlock (a wait that can never fire). *)

(** {2 Aggregated observability} *)

val queue_stats : t -> (int * Queue.stats) list
(** Stats of the spawned queues among this instance's device indices. *)

type overlap_stats = {
  o_busy_ns : float;  (** sum of command durations across queues *)
  o_span_ns : float;  (** critical path: max per-queue vclock span since reset *)
  o_saved_ns : float;  (** [busy - span]: time hidden by overlap *)
  o_queues : (int * Queue.stats) list;
}

val overlap_stats : t -> overlap_stats

val per_device_stats : t -> (int * Runtime.stats) list

val stats : t -> Runtime.stats
(** Merge of the per-device stats: counters and bytes sum; per-kernel
    entries sharing a name merge (launches/time/bytes sum, min of mins,
    max of maxes). *)

val reset_stats : t -> unit

val pp_stats : Format.formatter -> t -> unit
(** Aggregate block, then one block per device when there are several. *)
