(* Shared plumbing for the three workloads: command line, clocks,
   percentiles, the timed closed loop, the environment record, scratch
   files and the result line. *)

let t_process = Unix.gettimeofday ()

let now () = Unix.gettimeofday ()

type args = { workload : string; seed : int; seconds : float; trace : bool }

let usage =
  "bench --workload (mem-engine|disk-cold|cluster-rw) [--seed N] [--seconds S] \
   [--trace 0|1]"

let parse_args () =
  let workload = ref "" and seed = ref 42 and seconds = ref 15. in
  let trace = ref false in
  let rec go = function
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: s :: rest -> seed := int_of_string s; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; go rest
    | "--trace" :: t :: rest -> trace := t = "1"; go rest
    | [] -> ()
    | arg :: _ -> failwith (Printf.sprintf "unknown argument %S; usage: %s" arg usage)
  in
  go (List.tl (Array.to_list Sys.argv));
  if !seconds <= 0. then failwith "--seconds must be positive";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace }

(* Progress notes on stderr when BENCH_DEBUG is set. *)
let debug fmt =
  Printf.ksprintf
    (fun msg ->
      if Sys.getenv_opt "BENCH_DEBUG" <> None then
        let g = Gc.quick_stat () in
        Printf.eprintf "[%7.2fs] heap %.0fMB top %.0fMB: %s\n%!" (now () -. t_process)
          (float (g.Gc.heap_words * 8) /. 1e6) (float (g.Gc.top_heap_words * 8) /. 1e6) msg)
    fmt

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

(* Nearest-rank percentile of an unsorted sample ([p] in 0..1). *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let median xs = percentile 0.5 xs

let sum xs = List.fold_left ( +. ) 0. xs

let mean xs = match xs with [] -> 0. | _ -> sum xs /. float (List.length xs)

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Metrics and the result line                                         *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One "name value unit" line per metric for people, then the
   machine-read JSON object as the very last line of stdout. *)
let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "%-34s %14.6g %s\n" x.name x.value x.unit_)
    metrics;
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
          (json_float x.value) (json_string x.unit_))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* Process and environment                                             *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let read_lines path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb () =
  match
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (read_lines "/proc/self/status")
  with
  | Some l ->
    Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
        float kb /. 1024.)
  | None -> nan

(* Live heap bytes after a full compaction. *)
let live_heap_bytes () =
  Gc.compact ();
  float ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8))

(* The filesystem type holding [dir], from the longest matching mount. *)
let fs_type dir =
  let dir = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  let best = ref ("?", -1) in
  (try
     List.iter
       (fun l ->
         match String.split_on_char ' ' l with
         | _ :: mnt :: ty :: _ ->
           let n = String.length mnt in
           let prefix =
             n <= String.length dir
             && String.sub dir 0 n = mnt
             && (n = String.length dir || mnt = "/" || dir.[n] = '/')
           in
           if prefix && n > snd !best then best := (ty, n)
         | _ -> ())
       (read_lines "/proc/mounts")
   with Sys_error _ -> ());
  fst !best

(* Scratch files live under the working directory (the checkout), one
   directory per process, removed on exit. *)
let scratch_dir =
  lazy
    (let root = Filename.concat (Sys.getcwd ()) ".bench_tmp" in
     (try Unix.mkdir root 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
     let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
     (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
     at_exit (fun () ->
         (try
            Array.iter
              (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
              (Sys.readdir dir);
            Unix.rmdir dir
          with Sys_error _ | Unix.Unix_error _ -> ());
         try Unix.rmdir root with Unix.Unix_error _ -> ());
     dir)

let scratch name = Filename.concat (Lazy.force scratch_dir) name

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let copy_file src dst =
  let data = read_file src in
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc data)

let remove_db path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; path ^ ".wal" ]

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)

(* The runner's speed drifts by +-25% over seconds (other tenants share
   the host): a fixed integer loop ran between 2600 and 4900 iterations
   per 0.8 s slice, on CPU time as well as wall time.  Every timing is
   therefore scaled to a reference speed, measured by two calibration
   kernels interleaved with the work: a shell sort of 8192 integers
   (core speed) and a pointer chase through a 16 MiB random cycle
   outside the OCaml heap (memory latency).  Neither allocates, so the
   program's heap and GC state cannot change their cost.  A time
   measured while the kernels ran [c] and [m] times slower than their
   reference times is reported divided by [c * m]; rates are multiplied.
   Over 60 s of the mem-engine query mix on the 2-core runner, in 1-s
   buckets, this left 5% residual variation against 8% for the sort
   alone and 16% unscaled.  The env line records both kernels' median
   times beside their references, the overall scale a run applied. *)
module Speed = struct
  let buf = Array.make 8192 0

  let sort_kernel () =
    let n = Array.length buf in
    let s = ref 12345 in
    for i = 0 to n - 1 do
      s := ((!s * 1103515245) + 12345) land 0x3fffffff;
      Array.unsafe_set buf i !s
    done;
    let gap = ref (n / 2) in
    while !gap > 0 do
      let g = !gap in
      for i = g to n - 1 do
        let v = Array.unsafe_get buf i in
        let j = ref i in
        while !j >= g && Array.unsafe_get buf (!j - g) > v do
          Array.unsafe_set buf !j (Array.unsafe_get buf (!j - g));
          j := !j - g
        done;
        Array.unsafe_set buf !j v
      done;
      gap := g / 2
    done

  (* A single random cycle (Sattolo's shuffle) over 2^21 slots. *)
  let chase_slots = 1 lsl 21

  let chase =
    let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout chase_slots in
    for i = 0 to chase_slots - 1 do a.{i} <- i done;
    let s = ref 987654321 in
    for i = chase_slots - 1 downto 1 do
      s := ((!s * 1103515245) + 12345) land 0x3fffffff;
      let j = !s mod i in
      let t = a.{i} in
      a.{i} <- a.{j};
      a.{j} <- t
    done;
    a

  let chase_bytes = chase_slots * 8

  let at = ref 0

  let chase_kernel () =
    let p = ref !at in
    for _ = 1 to 10_000 do
      p := Bigarray.Array1.unsafe_get chase !p
    done;
    at := !p

  (* The kernels' times at the reference speed. *)
  let reference_sort_s = 1.3e-3
  let reference_chase_s = 1.6e-3

  (* Kernel samples, at least [interval] apart: (mid time, sort s,
     chase s). *)
  type t = {
    mutable samples : (float * float * float) list;
    mutable last : float;
    lock : Mutex.t;
  }

  let interval = 0.1

  let create () = { samples = []; last = neg_infinity; lock = Mutex.create () }

  let sample t =
    let t0 = now () in
    sort_kernel ();
    let t1 = now () in
    chase_kernel ();
    let t2 = now () in
    Mutex.protect t.lock (fun () ->
        t.samples <- ((t0 +. t2) /. 2., t1 -. t0, t2 -. t1) :: t.samples;
        t.last <- t2)

  let tick t = if now () -. t.last >= interval then sample t

  (* A background sampler for multi-threaded windows; stop it with the
     returned function. *)
  let sampler t =
    let running = Atomic.make true in
    let th =
      Thread.create
        (fun () ->
          while Atomic.get running do
            Thread.delay interval;
            sample t
          done)
        ()
    in
    fun () ->
      Atomic.set running false;
      Thread.join th

  let scale = function
    | [] -> 1.
    | xs ->
      (reference_sort_s /. median (List.map (fun (_, c, _) -> c) xs))
      *. (reference_chase_s /. median (List.map (fun (_, _, m) -> m) xs))

  (* The scale from the samples within half a second of [at]; the
     nearest five when fewer are that close. *)
  let factor t at =
    let near = List.filter (fun (ts, _, _) -> Float.abs (ts -. at) <= 0.5) t.samples in
    if List.length near >= 3 then scale near
    else
      List.sort
        (fun (a, _, _) (b, _, _) -> compare (Float.abs (a -. at)) (Float.abs (b -. at)))
        t.samples
      |> List.filteri (fun i _ -> i < 5)
      |> scale

  (* The scale from the samples taken in [a, b]. *)
  let factor_between t a b = scale (List.filter (fun (ts, _, _) -> ts >= a && ts <= b) t.samples)

  let median_ms t f = 1000. *. median (List.map f t.samples)
end

(* Latencies (s) at the reference speed, from (completion stamp,
   latency) points. *)
let scaled speed pts = List.map (fun (stamp, lat) -> lat *. Speed.factor speed (stamp -. (lat /. 2.))) pts

(* ------------------------------------------------------------------ *)
(* Set-up and the timed loop                                           *)

(* Run [build] [reps] times and keep the last result; the reported
   set-up time is the median of the repetitions, each scaled by the
   kernel samples a background sampler takes while it runs.  The first
   repetition is timed from process start.  Earlier results are
   released (and the heap compacted) before the next repetition so they
   do not inflate memory or GC work. *)
let repeated_setup ~speed ~reps ~release build =
  let times = ref [] in
  let rec go i t0 =
    let stop_sampler = Speed.sampler speed in
    let r = build () in
    let t1 = now () in
    Speed.sample speed;
    stop_sampler ();
    times := ((t1 -. t0) *. Speed.factor_between speed t0 (now ())) :: !times;
    if i + 1 < reps then begin
      release r;
      Gc.compact ();
      go (i + 1) (now ())
    end
    else r
  in
  let r = go 0 t_process in
  (r, median !times)

(* Outcome accounting shared by every workload: an operation counts as
   ok only when it returned OK and its answer was the expected one. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record tl ok =
  tl.attempted <- tl.attempted + 1;
  if not ok then tl.failed <- tl.failed + 1

(* Throughput at the reference speed: completions per second in each of
   [slices] equal slices of the window, each slice scaled by the host
   speed during it, averaged after dropping the fastest and the slowest
   slice (so one stall or burst moves the figure by at most a tenth of
   its own size). *)
let slices = 10

let slice_rate ~speed ~t0 ~seconds stamps =
  let width = seconds /. float slices in
  let counts = Array.make slices 0 in
  List.iter
    (fun t ->
      let i = int_of_float ((t -. t0) /. width) in
      if i >= 0 && i < slices then counts.(i) <- counts.(i) + 1)
    stamps;
  let rates =
    Array.mapi
      (fun i c -> float c /. width /. Speed.factor speed (t0 +. ((float i +. 0.5) *. width)))
      counts
  in
  debug "slice counts %s; scaled rates %s"
    (String.concat " " (Array.to_list (Array.map string_of_int counts)))
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") rates)));
  let sorted = List.sort compare (Array.to_list rates) in
  mean (List.filteri (fun i _ -> i > 0 && i < slices - 1) sorted)

(* One operation of a closed loop: [prep] runs untimed before each
   timed [run] (the cold-cache flush, say). *)
type op = { prep : unit -> unit; run : unit -> unit }

let op ?(prep = ignore) run = { prep; run }

(* A single-client closed loop over [ops] (cycled in order) for
   [seconds], sampling the host speed between operations: returns the
   window start and (completion stamp, latency) points. *)
let closed_loop ~speed ~seconds ops =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let pts = ref [] in
  let t0 = now () in
  let stop = t0 +. seconds in
  let rec go i =
    Speed.tick speed;
    let o = ops.(i mod n) in
    o.prep ();
    let t = now () in
    if t < stop then begin
      o.run ();
      let t' = now () in
      pts := (t', t' -. t) :: !pts;
      go (i + 1)
    end
  in
  go 0;
  (t0, !pts)

(* Settle: every operation once, untimed, then a compaction so set-up's
   garbage is not collected inside the window. *)
let settle ops =
  List.iter (fun o -> o.prep (); o.run ()) ops;
  Gc.compact ()

(* The end-to-end metrics every workload prints. *)
let end_to_end ~speed ~setup_s ~qps ~queries ~updates ~tally ~space_ratio =
  let q = scaled speed queries and u = scaled speed updates in
  [
    m "setup_s" "s" setup_s;
    m "qps" "1/s" qps;
    m "query_p50_ms" "ms" (1000. *. percentile 0.5 q);
    m "query_p99_ms" "ms" (1000. *. percentile 0.99 q);
    m "update_p50_ms" "ms" (1000. *. percentile 0.5 u);
    m "update_p95_ms" "ms" (1000. *. percentile 0.95 u);
    m "ok_frac" "ratio"
      (ratio (float (tally.attempted - tally.failed)) (float tally.attempted));
    (* The calibration buffer is the benchmark's, not the program's. *)
    m "peak_rss_mb" "MB" (peak_rss_mb () -. (float Speed.chase_bytes /. 1048576.));
    m "space_ratio" "ratio" space_ratio;
  ]

(* The environment line printed before the result. *)
let print_env ~args ~speed fields =
  let base =
    [
      ("workload", json_string args.workload);
      ("seed", string_of_int args.seed);
      ("seconds", json_float args.seconds);
      ("trace", string_of_bool args.trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("tmp_fs", json_string (fs_type (Lazy.force scratch_dir)));
      ("sort_kernel_ms", json_float (Speed.median_ms speed (fun (_, c, _) -> c)));
      ("sort_kernel_ms_reference", json_float (1000. *. Speed.reference_sort_s));
      ("chase_kernel_ms", json_float (Speed.median_ms speed (fun (_, _, m) -> m)));
      ("chase_kernel_ms_reference", json_float (1000. *. Speed.reference_chase_s));
    ]
  in
  Printf.printf "env {%s}\n%!"
    (String.concat ", "
       (List.map (fun (k, v) -> json_string k ^ ": " ^ v) (base @ fields)))

(* Seeded Fisher-Yates shuffle. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Blas_datagen.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let ms s = s *. 1000.

let us s = s *. 1e6

(* Time one call. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
