(* Multi-device virtual GPU.

   A [Multi.t] is an array of independent [Runtime.t] devices — each with
   its own buffer table, kernel caches and launch statistics — plus one extra
   plan primitive, [Exchange], that moves a sub-buffer slice from one
   device's buffer to another's.  That is the halo-exchange step of the
   Z-sharded acoustics backend: every other op addresses exactly one
   device, so a multi-device plan is a single-device plan tagged with
   device indices, interleaved with exchanges.

   Exchange bytes are accounted once, on the *source* device, at its
   transfer precision — the same convention a real driver would use for
   a peer-to-peer copy — and surface as [Runtime.stats.s_d2d_bytes] both
   per device and in the aggregate view.

   Each device also keeps a clock on the virtual timeline of
   [run_async] (below).  The clocks belong to the [Multi.t], so two
   simulations in one process never share a timeline. *)

(* A device's clock on the async executor's virtual timeline (ns). *)
type clock = {
  vclock : float;  (* when the device's last command retired *)
  vbase : float;  (* [vclock] at the last [reset_stats] *)
  busy_ns : float;  (* sum of command durations since reset *)
  cmds : int;  (* commands run since reset *)
}

let level_clock at = { vclock = at; vbase = at; busy_ns = 0.; cmds = 0 }

type t = { devices : Runtime.t array; clocks : clock array }

let create ?(engine = Runtime.Native) ?(optimize = true) ?unroll_budget
    ?(precision = Kernel_ast.Cast.Double) ?verify ?(sanitize = false) ~devices () =
  if devices < 1 then invalid_arg "Vgpu.Multi.create: need at least one device";
  {
    devices =
      Array.init devices (fun _ ->
          Runtime.create ~engine ~optimize ?unroll_budget ~precision ?verify
            ~sanitize ());
    clocks = Array.make devices (level_clock 0.);
  }

let n_devices t = Array.length t.devices

let device t i =
  if i < 0 || i >= Array.length t.devices then
    invalid_arg (Printf.sprintf "Vgpu.Multi.device: no device %d" i);
  t.devices.(i)

let bind t i name buf = Runtime.bind (device t i) name buf

type op =
  | Dev of int * Runtime.op
  | Exchange of {
      src_dev : int;
      src : string;
      src_off : int;
      dst_dev : int;
      dst : string;
      dst_off : int;
      elems : int;
    }

type plan = op list

(* The cross-device copy: blit the slice, mark the destination cells
   defined for its sanitizer once the exchange lands, and charge the
   bytes to the source device. *)
let exchange t ~src_dev ~(sb : Buffer.t) ~src_off ~dst_dev ~(db : Buffer.t) ~dst_off ~elems =
  let sdev = device t src_dev in
  Runtime.blit_buffers ~src:sb ~src_off ~dst:db ~dst_off ~elems;
  (match Runtime.sanitizer (device t dst_dev) with
  | Some s -> Sanitizer.note_blit s db ~off:dst_off ~len:elems
  | None -> ());
  Runtime.account_d2d sdev (Runtime.slice_bytes ~precision:sdev.Runtime.precision sb elems)

let run_op t = function
  | Dev (i, op) -> Runtime.run_op (device t i) op
  | Exchange { src_dev; src; src_off; dst_dev; dst; dst_off; elems } ->
      let sb = Runtime.buffer (device t src_dev) src in
      let db = Runtime.buffer (device t dst_dev) dst in
      exchange t ~src_dev ~sb ~src_off ~dst_dev ~db ~dst_off ~elems

let run t (plan : plan) = List.iter (run_op t) plan

(* Prepare a step's launches on every device with one batch build. *)
let prepare t (ops : op list) =
  Runtime.prepare
    (Array.to_list
       (Array.mapi
          (fun i d -> (d, List.filter_map (function Dev (j, op) when j = i -> Some op | _ -> None) ops))
          t.devices))

(* -- Asynchronous execution ------------------------------------------ *)

(* An async plan is a plan whose ops carry explicit event dependencies:
   integer event ids fixed when the plan is built.  An op runs on its
   device's in-order queue ([Exchange] on the *source* device's, where
   an OpenCL host program would enqueue the peer-to-peer copy), so
   per-device FIFO order plus the signal→wait edges is the complete
   happens-before relation.

   [run_async] executes such a plan on the calling domain.  Timing is
   virtual: each device's clock advances by every command's duration (a
   launch's measured kernel window, a modelled cost for an exchange),
   and a command starts no earlier than the stamps of the events it
   waits on — the retirement times of their signalling commands.  The
   overlapped cost of a schedule is the critical path, [max over
   devices of vclock], against the busy sum. *)

type async_op = {
  a_op : op;
  a_waits : int list;  (* event ids that must fire before the op runs *)
  a_signal : int option;  (* event id fired when the op retires *)
}

type async_plan = async_op list

let default_link_gb_s = 12.

(* A plan op compiled for deferred execution: buffer names resolved at
   its list position (the clSetKernelArg moment), so a [Swap] listed
   after it cannot redirect it even when the executor runs it later.
   Host-only ops — [Alloc], [Swap] — execute during compilation, in list
   order, and produce no command.  [c_run] returns the command's
   virtual duration in ns. *)
type cmd = {
  c_dev : int;
  c_label : string;
  c_waits : int list;
  c_signal : int option;
  c_run : unit -> float;
}

let timed f =
  let t0 = Clock.now_ns () in
  f ();
  float_of_int (Clock.now_ns () - t0)

let compile_async t (plan : async_plan) : cmd list =
  List.filter_map
    (fun { a_op; a_waits; a_signal } ->
      let cmd c_dev c_label c_run =
        Some { c_dev; c_label; c_waits = a_waits; c_signal = a_signal; c_run }
      in
      match a_op with
      | Dev (i, ((Runtime.Alloc _ | Runtime.Swap _) as op)) ->
          Runtime.run_op (device t i) op;
          None
      | Dev (i, Runtime.Launch { kernel; args; global; spans }) ->
          let d = device t i in
          let args = List.map (Runtime.resolve_arg d) args in
          (* the kernel window only: optimize, verify and a first
             launch's compile are not device time *)
          cmd i kernel.Kernel_ast.Cast.name (fun () ->
              1e9 *. Runtime.launch_resolved ?spans d kernel ~args ~global)
      | Dev (i, Runtime.Copy_to_gpu name) ->
          let d = device t i in
          let b = Runtime.buffer d name in
          let bytes = Runtime.slice_bytes ~precision:d.Runtime.precision b (Buffer.length b) in
          cmd i ("h2d " ^ name) (fun () ->
              timed (fun () -> d.Runtime.h2d_bytes <- d.Runtime.h2d_bytes + bytes))
      | Dev (i, Runtime.Copy_to_host name) ->
          let d = device t i in
          let b = Runtime.buffer d name in
          let bytes = Runtime.slice_bytes ~precision:d.Runtime.precision b (Buffer.length b) in
          cmd i ("d2h " ^ name) (fun () ->
              timed (fun () -> d.Runtime.d2h_bytes <- d.Runtime.d2h_bytes + bytes))
      | Exchange { src_dev; src; src_off; dst_dev; dst; dst_off; elems } ->
          let sdev = device t src_dev in
          let sb = Runtime.buffer sdev src and db = Runtime.buffer (device t dst_dev) dst in
          (* priced, not measured: a memcpy's wall time on the host says
             nothing about a PCIe/NVLink transfer, so the clock advances
             by bytes / link bandwidth instead *)
          let bytes = Runtime.slice_bytes ~precision:sdev.Runtime.precision sb elems in
          cmd src_dev (Printf.sprintf "exchange d%d->d%d" src_dev dst_dev) (fun () ->
              exchange t ~src_dev ~sb ~src_off ~dst_dev ~db ~dst_off ~elems;
              float_of_int bytes /. default_link_gb_s))
    plan

(* Execute an async plan on the calling domain.  [pick] chooses among
   the ready device heads (an index into them, modulo their count), so
   every [pick] is a legal queue interleaving.  [imports] are events of
   earlier plans, with their stamps; the result lists the events this
   plan signals, with theirs, for the next plan's [imports]. *)
let run_async ?(imports = []) ?(pick = fun _ -> 0) t (plan : async_plan) =
  let cmds = compile_async t plan in
  (* waits name imported or earlier-signalled events, signals are unique *)
  let known = Hashtbl.create 16 in
  List.iter (fun (id, _) -> Hashtbl.replace known id ()) imports;
  List.iter
    (fun c ->
      List.iter
        (fun id ->
          if not (Hashtbl.mem known id) then
            failwith
              (Printf.sprintf
                 "Vgpu.Multi.run_async: wait on event %d that is neither imported nor signaled \
                  earlier in the plan"
                 id))
        c.c_waits;
      Option.iter
        (fun id ->
          if Hashtbl.mem known id then
            failwith (Printf.sprintf "Vgpu.Multi.run_async: event %d signaled twice" id);
          Hashtbl.replace known id ())
        c.c_signal)
    cmds;
  (* event id -> virtual ns at which its signalling command retired *)
  let stamps = Hashtbl.create 16 in
  List.iter (fun (id, at) -> Hashtbl.replace stamps id at) imports;
  (* one FIFO per device, in order of first use *)
  let devs =
    List.rev
      (List.fold_left (fun acc c -> if List.mem c.c_dev acc then acc else c.c_dev :: acc) [] cmds)
  in
  let fifos = List.map (fun d -> ref (List.filter (fun c -> c.c_dev = d) cmds)) devs in
  let rec loop step =
    match List.filter (fun r -> !r <> []) fifos with
    | [] -> ()
    | live -> (
        match
          List.filter (fun r -> List.for_all (Hashtbl.mem stamps) (List.hd !r).c_waits) live
        with
        | [] ->
            failwith
              (Printf.sprintf
                 "Vgpu.Multi.run_async: deadlock — %d queue(s) blocked on events that never fire \
                  (first blocked op: %s)"
                 (List.length live) (List.hd !(List.hd live)).c_label)
        | ready ->
            let n = List.length ready in
            let r = List.nth ready (((pick step mod n) + n) mod n) in
            let c = List.hd !r in
            r := List.tl !r;
            let dur = c.c_run () in
            let clk = t.clocks.(c.c_dev) in
            let start =
              List.fold_left (fun acc id -> Float.max acc (Hashtbl.find stamps id)) clk.vclock
                c.c_waits
            in
            let vclock = start +. dur in
            t.clocks.(c.c_dev) <-
              { clk with vclock; busy_ns = clk.busy_ns +. dur; cmds = clk.cmds + 1 };
            Option.iter (fun id -> Hashtbl.replace stamps id vclock) c.c_signal;
            loop (step + 1))
  in
  loop 0;
  List.filter_map (fun c -> Option.map (fun id -> (id, Hashtbl.find stamps id)) c.c_signal) cmds

(* Critical path of everything run so far: the latest device clock (ns,
   monotonic — measure intervals as deltas). *)
let async_vclock t = Array.fold_left (fun acc c -> Float.max acc c.vclock) 0. t.clocks

(* -- Aggregated observability --------------------------------------- *)

let per_device_stats t =
  Array.to_list (Array.mapi (fun i d -> (i, Runtime.stats d)) t.devices)

(* Merge the per-device stats into one [Runtime.stats]: counters and
   bytes sum; per-kernel entries sharing a name merge (min of mins, max
   of maxes). *)
let stats t : Runtime.stats =
  let merged : (string, Runtime.kernel_stats) Hashtbl.t = Hashtbl.create 8 in
  let launches = ref 0 and h2d = ref 0 and d2h = ref 0 and d2d = ref 0 in
  let violations = ref None in
  let caches = ref [] in
  (* sum per-cache counters across devices, label by label; every device
     reports the same labels in the same order, so the first device's
     list is the template *)
  let merge_caches per_device =
    if !caches = [] then caches := per_device
    else
      caches :=
        List.map
          (fun (label, acc) ->
            match List.assoc_opt label per_device with
            | Some c -> (label, Kcache.add_counters acc c)
            | None -> (label, acc))
          !caches
  in
  Array.iter
    (fun d ->
      let s = Runtime.stats d in
      launches := !launches + s.Runtime.s_launches;
      h2d := !h2d + s.Runtime.s_h2d_bytes;
      d2h := !d2h + s.Runtime.s_d2h_bytes;
      d2d := !d2d + s.Runtime.s_d2d_bytes;
      (match (s.Runtime.s_violations, !violations) with
      | Some c, Some acc -> violations := Some (Sanitizer.add_counts acc c)
      | Some c, None -> violations := Some c
      | None, _ -> ());
      merge_caches s.Runtime.s_caches;
      List.iter
        (fun (name, (k : Runtime.kernel_stats)) ->
          match Hashtbl.find_opt merged name with
          | None ->
              Hashtbl.replace merged name
                {
                  Runtime.k_launches = k.Runtime.k_launches;
                  total_s = k.Runtime.total_s;
                  min_s = k.Runtime.min_s;
                  max_s = k.Runtime.max_s;
                  arg_bytes = k.Runtime.arg_bytes;
                  k_opt = k.Runtime.k_opt;
                }
          | Some m ->
              m.Runtime.k_launches <- m.Runtime.k_launches + k.Runtime.k_launches;
              m.Runtime.total_s <- m.Runtime.total_s +. k.Runtime.total_s;
              m.Runtime.min_s <- Float.min m.Runtime.min_s k.Runtime.min_s;
              m.Runtime.max_s <- Float.max m.Runtime.max_s k.Runtime.max_s;
              m.Runtime.arg_bytes <- m.Runtime.arg_bytes + k.Runtime.arg_bytes;
              (* every device optimizes the same kernel: keep the first *)
              if m.Runtime.k_opt = None then m.Runtime.k_opt <- k.Runtime.k_opt)
        s.Runtime.per_kernel)
    t.devices;
  let per_kernel =
    Hashtbl.fold (fun name k acc -> (name, k) :: acc) merged []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    Runtime.s_launches = !launches;
    s_h2d_bytes = !h2d;
    s_d2h_bytes = !d2h;
    s_d2d_bytes = !d2d;
    s_violations = !violations;
    s_caches = !caches;
    per_kernel;
  }

type overlap_stats = {
  o_busy_ns : float;  (* sum of command durations across devices *)
  o_span_ns : float;  (* critical path: max per-device clock advance *)
  o_saved_ns : float;  (* busy - span: time hidden by overlap *)
  o_clocks : clock array;  (* per device *)
}

let overlap_stats t =
  let busy = Array.fold_left (fun a c -> a +. c.busy_ns) 0. t.clocks in
  let span = Array.fold_left (fun a c -> Float.max a (c.vclock -. c.vbase)) 0. t.clocks in
  {
    o_busy_ns = busy;
    o_span_ns = span;
    o_saved_ns = Float.max 0. (busy -. span);
    o_clocks = Array.copy t.clocks;
  }

let reset_stats t =
  Array.iter Runtime.reset_stats t.devices;
  (* align the clocks to the horizon, so the next measurement interval
     starts on a level timeline — skew left by earlier work would
     otherwise hide or inflate the critical path; clocks never rewind *)
  Array.fill t.clocks 0 (Array.length t.clocks) (level_clock (async_vclock t))

(* One device reports as its runtime does: with one queue there is no
   aggregate to form and no overlap to show. *)
let pp_stats ppf t =
  match t.devices with
  | [| d |] -> Runtime.pp_stats ppf (Runtime.stats d)
  | devices ->
      Fmt.pf ppf "aggregate over %d device(s): %a" (Array.length devices) Runtime.pp_stats
        (stats t);
      Array.iteri
        (fun i d -> Fmt.pf ppf "@.device %d: %a" i Runtime.pp_stats (Runtime.stats d))
        devices;
      let o = overlap_stats t in
      if Array.exists (fun c -> c.cmds > 0) o.o_clocks then begin
        Fmt.pf ppf "@.async queues: busy %.3f ms, critical path %.3f ms, overlap saved %.3f ms@."
          (o.o_busy_ns /. 1e6) (o.o_span_ns /. 1e6) (o.o_saved_ns /. 1e6);
        Array.iteri
          (fun i c -> Fmt.pf ppf "queue %d: %d cmd(s), busy %.3f ms@." i c.cmds (c.busy_ns /. 1e6))
          o.o_clocks
      end
