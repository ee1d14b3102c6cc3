(** Optimization pipeline over kernel ASTs.

    Runs after code generation and before interpretation or C emission.
    Passes, in order: algebraic simplification and constant folding
    (via {!Cast.simplify_kernel}, which includes bit-exact strength
    reduction), full unrolling of small constant-trip loops,
    common-subexpression elimination into fresh scalar temporaries,
    loop-invariant code motion, a second folding pass, and
    dead-store/dead-declaration elimination.

    All passes are semantics-preserving bit-for-bit: hoisting is
    restricted to load-free expressions that cannot trap (divisions only
    by non-zero literals) and whose free variables are in scope and
    unmodified over the region they move across.  See ARCHITECTURE.md
    for the full rules. *)

type report = {
  nodes_before : int;  (** AST nodes in the kernel before optimization *)
  nodes_after : int;   (** AST nodes after the full pipeline *)
  cse_fired : int;     (** expressions hoisted into CSE temporaries *)
  licm_hoisted : int;  (** expressions moved out of loops *)
  unrolled : int;      (** constant-trip loops fully unrolled *)
  strength_reduced : int;
      (** shift/mask operations standing in for div/mod after folding *)
  dead_removed : int;  (** dead declarations and assignments deleted *)
}

val optimize : ?unroll_budget:int -> Cast.kernel -> Cast.kernel * report
(** [optimize k] runs the full pass pipeline and returns the optimized
    kernel together with a per-kernel report.  Idempotent in effect:
    re-optimizing an optimized kernel is safe (and a near no-op).  When
    no pass changes the kernel, the input is returned {e physically}
    ([==]), so caches keyed on physical identity are shared between the
    raw and optimized kernel.  Unrolling is gated on the spliced body
    size ([trips * body nodes]) as well as the trip count, so
    large-bodied loops are left rolled.  [unroll_budget] overrides the
    default spliced-node gate (512): [0] disables unrolling entirely, a
    large value unrolls aggressively — the autotuner sweeps this knob. *)

val kernel_nodes : Cast.kernel -> int
(** Total AST node count of a kernel (body plus NDRange expressions);
    the size measure used in {!type:report}. *)

val pp_report : Format.formatter -> report -> unit
