(* The clock the benchmark times with, its jobs spread over the CPUs,
   and the reference computation that measures the host's speed. *)

(* Seconds on the monotonic clock, to the nanosecond: a millisecond
   sample timed to the microsecond would repeat the same value across
   runs. *)
external now : unit -> (float[@unboxed]) = "benchsuite_now" "benchsuite_now_unboxed" [@@noalloc]

(* On a shared host one CPU can run slower than the other for as long as
   its physical core is busy with another tenant's work, and a
   single-threaded run that stays on it reads slow from start to end.
   Pinning the jobs to the allowed CPUs in turn gives every run samples
   from every CPU, so a low quantile over them reads the same whichever
   CPU the scheduler would have chosen. *)

external allowed_cpus : unit -> int array = "benchsuite_allowed_cpus"
external set_cpus : int array -> bool = "benchsuite_set_cpus"

(* [rotate f] calls [f pin], where [pin i] moves the calling thread to
   the [i]-th allowed CPU, modulo their number; the thread may use every
   allowed CPU again once [f] returns.  Where the system refuses,
   [pin] leaves the thread where it is. *)
let rotate f =
  let cpus = allowed_cpus () in
  let n = Array.length cpus in
  let pin i = if n > 1 then ignore (set_cpus [| cpus.(i mod n) |]) in
  Fun.protect ~finally:(fun () -> if n > 1 then ignore (set_cpus cpus)) (fun () -> f pin)

(* The reference sweep.  On a shared host the speed of a CPU drifts by
   10-20% over minutes, as other tenants' work comes and goes, and the
   step time of every workload drifts with it.  A fixed computation of
   the same kind, timed on the same CPU between the jobs, drifts the same
   way, so the step time divided by it holds still.  The computation is
   a leapfrog sweep over three grids of the workload's size, with the
   memory pattern of the volume update, in C that belongs to the
   benchmark: no change to the program can make it faster or slower. *)

external ref_sweeps : Float.Array.t -> Float.Array.t -> Float.Array.t -> int array -> unit
  = "benchsuite_ref_sweeps"

(* Seconds per sweep over an [nx * ny * nz] grid, one value per sample:
   at least [min_samples] samples, for at least [min_s] seconds.  A
   sample is as many sweeps as take about a millisecond. *)
let ref_sweep ~nx ~ny ~nz ~min_samples ~min_s =
  let n = nx * ny * nz in
  let grid () = Float.Array.make n 1. in
  let a = grid () and b = grid () and c = grid () in
  let sweeps = max 1 (1_000_000 / n) in
  let t0 = now () in
  let rec go k acc =
    if k >= min_samples && now () -. t0 >= min_s then acc
    else begin
      let ts = now () in
      ref_sweeps a b c [| nx; ny; nz; sweeps |];
      go (k + 1) (((now () -. ts) /. float_of_int sweeps) :: acc)
    end
  in
  go 0 []
