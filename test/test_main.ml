(* Domain-pool workers spawned by one test would stay parked for the
   rest of the process and slow every later test down, so each test
   releases them when it ends; they respawn on demand. *)
let release_domains (name, speed, f) =
  (name, speed, fun () -> Fun.protect ~finally:(fun () -> Vgpu.Pool.shutdown Vgpu.Pool.global) f)

(* Every native binary and tuned plan goes to the scratch root, never to
   the user's caches, from the first group on. *)
let () =
  Vgpu.Native.set_cache_dir (Test_util.scratch_dir "native");
  Harness.Plan_cache.set_cache_dir (Test_util.scratch_dir "plans");
  at_exit (fun () -> Test_util.remove_tree (Lazy.force Test_util.scratch_root))

let () =
  Alcotest.run "lift-room-acoustics"
  @@ List.map (fun (group, suite) -> (group, List.map release_domains suite))
  @@ [
      ("size", Test_size.suite);
      ("typecheck", Test_typecheck.suite);
      ("eval", Test_eval.suite);
      ("rewrite", Test_rewrite.suite);
      ("macros", Test_macros.suite);
      ("explore", Test_explore.suite);
      ("views (property)", Test_views_q.suite);
      ("golden kernels", Test_golden.suite);
      ("edges", Test_edges.suite);
      ("optimizer", Test_opt.suite);
      ("sharding", Test_shard.suite);
      ("overlap", Test_overlap.suite);
      ("temporal blocking", Test_tblock.suite);
      ("analysis", Test_analysis.suite);
      ("check & sanitize", Test_check.suite);
      ("footprint & plan verify", Test_footprint.suite);
      ("perf model", Test_perf_model.suite);
      ("material", Test_material.suite);
      ("geometry", Test_geometry.suite);
      ("lift basics", Test_lift_basics.suite);
      ("acoustics", Test_acoustics.suite);
      ("host", Test_host.suite);
      ("em extension", Test_em.suite);
      ("runtime & printing", Test_runtime_print.suite);
      ("host memory", Test_host_memory.suite);
      ("native backend", Test_native.suite);
      ("autotune", Test_autotune.suite);
      ("engine conformance", Engine_conformance.suite);
      ("audio", Test_audio.suite);
    ]
