(* On-disk best-plan cache for the autotuner.

   One file per tuning key, holding the winning execution plan plus the
   numbers behind the choice, in a line-oriented text format (robust
   across compiler versions, unlike Marshal, and greppable).  The
   install discipline mirrors the native backend's binary cache: write
   to a process-unique temp file in the same directory, then rename —
   atomic on POSIX — so concurrent tuners can never expose a torn entry.
   A corrupt or truncated entry is treated as a miss and overwritten by
   the next store, never trusted.

   The same directory also holds the perf-model calibration table
   (measured/predicted correction factors per device x kernel), persisted
   with the same atomic rename. *)

let magic = "racs-plan-v4"
let calibration_magic = "racs-calibration-v1"

type schedule = [ `Seq | `Concurrent | `Overlap ]

type plan = {
  pl_unroll : int option;  (* Opt unroll-budget override *)
  pl_shards : int;
  pl_schedule : schedule;
  pl_tblock : int;  (* temporal block depth T, 1 = per-step exchanges *)
}

let default_plan =
  {
    pl_unroll = None;
    pl_shards = 1;
    pl_schedule = `Seq;
    pl_tblock = 1;
  }

type key = {
  k_scheme : string;
  k_shape : string;
  k_dims : int * int * int;
  k_precision : string;
  k_device : string;
  k_engine : string;
  k_digest : string;  (* digest of the candidate kernel code, see Autotune *)
}

type entry = {
  e_plan : plan;
  e_predicted_s : float;  (* model time of the winning plan, per step *)
  e_measured_s : float;  (* measured median time of the winner, per step *)
  e_default_s : float;  (* measured median of the default plan, per step *)
  e_samples : int;  (* measurement repeats behind the medians *)
}

(* -- Counters -------------------------------------------------------- *)

let c_hits = Atomic.make 0
let c_misses = Atomic.make 0
let c_stores = Atomic.make 0

let counters () =
  (Atomic.get c_hits, Atomic.get c_misses, Atomic.get c_stores)

let reset_counters () =
  Atomic.set c_hits 0;
  Atomic.set c_misses 0;
  Atomic.set c_stores 0

(* -- Cache directory -------------------------------------------------- *)

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let override_dir : string option ref = ref None

let cache_dir () =
  match !override_dir with
  | Some d -> d
  | None -> (
      match Sys.getenv_opt "RACS_PLAN_DIR" with
      | Some d when d <> "" -> d
      | _ -> (
          match Sys.getenv_opt "XDG_CACHE_HOME" with
          | Some d when d <> "" -> Filename.concat d "racs/plans"
          | _ -> (
              match Sys.getenv_opt "HOME" with
              | Some h when h <> "" -> Filename.concat h ".cache/racs/plans"
              | _ -> Filename.concat (Filename.get_temp_dir_name ()) "racs-plans")))

let set_cache_dir d = override_dir := Some d

(* -- Serialisation ---------------------------------------------------- *)

let string_of_schedule = function
  | `Seq -> "seq"
  | `Concurrent -> "concurrent"
  | `Overlap -> "overlap"

let schedule_of_string = function
  | "seq" -> Some `Seq
  | "concurrent" -> Some `Concurrent
  | "overlap" -> Some `Overlap
  | _ -> None

let key_digest (k : key) =
  let x, y, z = k.k_dims in
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            magic; k.k_scheme; k.k_shape; string_of_int x; string_of_int y;
            string_of_int z; k.k_precision; k.k_device; k.k_engine; k.k_digest;
          ]))

let entry_path k = Filename.concat (cache_dir ()) (key_digest k ^ ".plan")

let render_entry (k : key) (e : entry) =
  let x, y, z = k.k_dims in
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%s" magic;
  line "scheme %s" k.k_scheme;
  line "shape %s" k.k_shape;
  line "dims %d %d %d" x y z;
  line "precision %s" k.k_precision;
  line "device %s" k.k_device;
  line "engine %s" k.k_engine;
  line "digest %s" k.k_digest;
  line "unroll %s"
    (match e.e_plan.pl_unroll with None -> "default" | Some n -> string_of_int n);
  line "shards %d" e.e_plan.pl_shards;
  line "schedule %s" (string_of_schedule e.e_plan.pl_schedule);
  line "tblock %d" e.e_plan.pl_tblock;
  line "predicted_ns %.0f" (e.e_predicted_s *. 1e9);
  line "measured_ns %.0f" (e.e_measured_s *. 1e9);
  line "default_ns %.0f" (e.e_default_s *. 1e9);
  line "samples %d" e.e_samples;
  Buffer.contents b

(* Parse an entry file.  Any deviation — wrong magic, missing field,
   malformed value, key fields that do not match the requested key —
   yields [None]: a corrupt entry is a miss, not an error. *)
let parse_entry (k : key) (contents : string) : entry option =
  match String.split_on_char '\n' contents with
  | m :: rest when m = magic -> (
      let fields = Hashtbl.create 16 in
      List.iter
        (fun l ->
          match String.index_opt l ' ' with
          | Some i ->
              Hashtbl.replace fields (String.sub l 0 i)
                (String.sub l (i + 1) (String.length l - i - 1))
          | None -> ())
        rest;
      let f name = Hashtbl.find_opt fields name in
      let int_f name = Option.bind (f name) int_of_string_opt in
      let float_f name = Option.bind (f name) float_of_string_opt in
      let x, y, z = k.k_dims in
      let key_matches =
        f "scheme" = Some k.k_scheme
        && f "shape" = Some k.k_shape
        && f "dims" = Some (Printf.sprintf "%d %d %d" x y z)
        && f "precision" = Some k.k_precision
        && f "device" = Some k.k_device
        && f "engine" = Some k.k_engine
        && f "digest" = Some k.k_digest
      in
      if not key_matches then None
      else
        let unroll =
          match f "unroll" with
          | Some "default" -> Some None
          | Some s -> (
              match int_of_string_opt s with Some n -> Some (Some n) | None -> None)
          | None -> None
        in
        let schedule = Option.bind (f "schedule") schedule_of_string in
        (match
           ( unroll, int_f "shards", schedule, int_f "tblock",
             ( float_f "predicted_ns", float_f "measured_ns", float_f "default_ns",
               int_f "samples" ) )
         with
        | ( Some pl_unroll, Some pl_shards, Some pl_schedule, Some pl_tblock,
            (Some pred, Some meas, Some dflt, Some e_samples) )
          when pl_shards >= 1 && pl_tblock >= 1 ->
            Some
              {
                e_plan = { pl_unroll; pl_shards; pl_schedule; pl_tblock };
                e_predicted_s = pred *. 1e-9;
                e_measured_s = meas *. 1e-9;
                e_default_s = dflt *. 1e-9;
                e_samples;
              }
        | _ -> None))
  | _ -> None

(* -- Disk operations -------------------------------------------------- *)

(* Atomic install: write a process-unique sibling, rename over. *)
let write_file path contents =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents);
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let find (k : key) : entry option =
  let path = entry_path k in
  let r =
    if Sys.file_exists path then
      match read_file path with
      | contents -> parse_entry k contents
      | exception _ -> None
    else None
  in
  (match r with
  | Some _ -> Atomic.incr c_hits
  | None -> Atomic.incr c_misses);
  r

let store (k : key) (e : entry) : unit =
  let dir = cache_dir () in
  mkdirs dir;
  write_file (entry_path k) (render_entry k e);
  Atomic.incr c_stores

(* -- Calibration persistence ------------------------------------------ *)

let calibration_path () = Filename.concat (cache_dir ()) "calibration"

(* Lines: "<log_sum> <samples> <device/kernel>" — the key last because it
   may contain spaces (device names do). *)
let save_calibration (c : Vgpu.Perf_model.Calibration.t) : unit =
  let dir = cache_dir () in
  mkdirs dir;
  let b = Buffer.create 256 in
  Buffer.add_string b (calibration_magic ^ "\n");
  List.iter
    (fun (key, log_sum, samples) ->
      Buffer.add_string b (Printf.sprintf "%.17g %d %s\n" log_sum samples key))
    (Vgpu.Perf_model.Calibration.entries c);
  write_file (calibration_path ()) (Buffer.contents b)

let load_calibration () : Vgpu.Perf_model.Calibration.t =
  let c = Vgpu.Perf_model.Calibration.create () in
  let path = calibration_path () in
  (if Sys.file_exists path then
     match String.split_on_char '\n' (read_file path) with
     | m :: rest when m = calibration_magic ->
         List.iter
           (fun l ->
             match String.split_on_char ' ' l with
             | log_sum :: samples :: key_parts when key_parts <> [] -> (
                 let key = String.concat " " key_parts in
                 match
                   ( float_of_string_opt log_sum, int_of_string_opt samples,
                     String.index_opt key '/' )
                 with
                 | Some log_sum, Some samples, Some i when samples > 0 ->
                     Vgpu.Perf_model.Calibration.set c
                       ~device:(String.sub key 0 i)
                       ~kernel_name:
                         (String.sub key (i + 1) (String.length key - i - 1))
                       ~log_sum ~samples
                 | _ -> ())
             | _ -> ())
           rest
     | _ | (exception _) -> ());
  c
