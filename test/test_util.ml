(* Shared helpers for the test suites. *)

(* One scratch root per test process, in the temp directory: every
   cache and file a test writes lives below it, and [Test_main] removes
   it at exit. *)
let scratch_root = lazy (Filename.temp_dir "racs-test-" "")

(* A directory [name] under the scratch root, created on first use. *)
let scratch_dir name =
  let dir = Filename.concat (Lazy.force scratch_root) name in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Substring search (no external string library in the dependency set). *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Non-overlapping occurrences of [needle] (non-empty) in [haystack]. *)
let count haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub haystack i nn = needle then go (i + nn) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* The OpenCL host program of a simulation's plan, each buffer sized as
   the simulation bound it on its device. *)
let emit_plan sim plan = Lift.Emit_c.host_program ~extent:(Acoustics.Gpu_sim.extent sim) plan

(* Assert two float arrays are bit-for-bit identical — the equality the
   engine/backend cross-validation suites rely on (plain [=] would
   conflate 0. with -0. and fail on NaN). *)
let check_bits msg (a : float array) (b : float array) =
  Alcotest.(check int) (msg ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float b.(i))) then
        Alcotest.failf "%s: index %d differs bit-for-bit: %.17g vs %.17g" msg i x b.(i))
    a
