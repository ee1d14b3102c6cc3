(** Host-plan lint: static well-formedness checks on host programs and
    sharded multi-device plans, before (and independent of) compilation.

    {!check_host} walks a {!Host.hexpr} mirroring the compiler's
    evaluation order and reports:
    - {b use-before-ToGPU} (error): a kernel argument, copy endpoint or
      WriteTo target buffer that was never transferred to the device;
    - {b dead transfers} (warning): ToGPU whose buffer is never consumed
      afterwards, double transfers with no use in between, ToHost of a
      buffer that never lived on the device;
    - {b arity/kind mismatches} (error): kernel calls checked against
      the Lift lambda's parameters — wrong argument count, scalar where
      a buffer is expected and vice versa.

    Sharded plans are {!Vgpu.Multi.async_plan}s — the values
    {!Acoustics.Gpu_sim.plan} returns and {!Acoustics.Gpu_sim.step}
    executes, for every schedule.  {!check_async} checks their events
    are well-formed; {!verify_async} runs the static stencil-footprint
    inference ({!Kernel_ast.Footprint}) on every launch and proves per
    ghost plane that exchanges are wide enough, fresh enough, and
    ordered between the launches that write and read those planes. *)

type severity =
  | Error
  | Warning

type issue = {
  severity : severity;
  code : string;  (** stable machine-readable tag *)
  message : string;
}

val check_host : Host.hexpr -> issue list
(** Issues in program order (dead-transfer warnings last). *)

val check_async : ?imports:int list -> Vgpu.Multi.async_plan -> issue list
(** Event well-formedness of an async plan:
    - {b wait-unsignaled} (error): a wait naming an event no earlier op
      signals and that is not in [imports].  [imports] defaults to the
      events waited on before any op signals them — the carried-over
      signals of a preceding plan segment (e.g. the previous time
      step's exchanges);
    - {b duplicate-event} (error): an event signaled twice.

    Ordering hazards are {!verify_async}'s. *)

(* -- Footprint-driven dataflow verification --------------------------- *)

type slab = {
  sl_nx : int;
  sl_ny : int;
  sl_planes : int array;
      (** Z-planes per device, {e including} the ghost planes — the
          allocated slab depth ([Vgpu.Shard.slab.planes]). *)
}
(** Slab geometry of a Z-cut sharded run, against which plane ranges of
    launches and exchange offsets are interpreted. *)

val verify_async :
  ?halo:int -> ?state_bufs:string list -> slab -> Vgpu.Multi.async_plan -> issue list
(** Symbolic dataflow verification of a sharded plan under its
    happens-before order: per-queue FIFO ([Exchange] on its source
    device's queue) plus signal→wait edges.  A plan run in list order
    states the barriers that order provides as events, so one verifier
    covers every schedule.  Every [Launch] is analysed with
    {!Kernel_ast.Footprint.infer} under the environment its arguments
    define; reads reaching a ghost plane of the device's slab are
    checked against the {e validity} of that ghost.  [halo] (default 1)
    is the ghost depth per side — the temporal block depth T.  Ghost
    validity starts at the fill width of the exchange (or [halo] for
    host-seeded ghosts) and {e ages}: each in-block launch that rewrites
    ghost planes (the redundant frontier recompute of a temporally-
    blocked schedule) carries validity one read-radius shallower than
    its most-decayed input, so a depth-T exchange proves exactly T steps
    of re-launches and one plane too few is caught at the step where
    validity runs out; ghost planes a launch skips fall a generation
    behind.  Buffer identities follow the plan's [Swap] rotation, and
    ghosts are tracked for every buffer an [Exchange] or [Swap] names,
    so a plan with its exchanges dropped is still checked.  [state_bufs]
    names branch-state buffers (exchanged at block boundaries, rotated,
    but not slab-shaped), which are excluded from the ghost-plane model.
    - {b halo-too-narrow} (error): a kernel's inferred read radius
      (planes) exceeds the ghost validity at that launch — the
      acceptance-defeating cases being a width-0 exchange against a
      radius-1 stencil, and a depth T-1 exchange driving a depth-T
      block.  The diagnostic names the exchange width that would have
      sufficed;
    - {b stale-halo} (error): the source device rewrote the frontier
      planes backing the ghost after the exchange copied them;
    - {b clobbered-halo} (error): the reading device itself overwrote
      its ghost planes after the fill;
    - {b unordered-ghost-read} (error): a launch reads a ghost plane but
      is not ordered after the exchange that fills it — the race a
      dropped frontier wait introduces;
    - {b unordered-ghost-write} (error): an exchange fills ghost planes
      that an earlier launch on the destination writes (at an affine,
      statically known range) but is not ordered after that launch, so
      the launch can land last and overwrite the fresh halo;
    - {b uninit-read} (error): a launch, readback, copy or exchange
      consumes a buffer that an [Alloc] created but nothing wrote or
      uploaded;
    - {b exchange-wrong-source} (error): a ghost filled from a device
      that is not the neighbour across that cut;
    - {b halo-unverified} (warning, once per kernel/buffer): reads are
      data-dependent (indirect), so ghost coverage cannot be proven
      statically and is left to the runtime sanitizer;
    - {b exchange-partial-plane} (warning): an exchange that is not a
      whole number of XY planes.

    Buffers not mentioned in the plan are assumed host-seeded with
    coherent depth-[halo] ghosts (the scatter performed by
    {!Acoustics.Gpu_sim} before stepping).  Flow checks only; run
    {!check_async} as well for event well-formedness. *)

val errors : issue list -> issue list
(** The [Error]-severity subset. *)

val pp_issue : Format.formatter -> issue -> unit
