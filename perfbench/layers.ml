(* The per-layer metrics a traced run prints, in the fixed layer order
   parse/plan, optimizer, engines, cache, buffer pool, codec, pager,
   WAL, update engine, server, router, set-up, runtime, benchmark.
   Every workload prints every metric; a layer a workload does not
   exercise reads 0. *)

let all =
  [
    ("parser.parse_us", "us");
    ("translate.plan_us", "us");
    ("translate.branches", "count");
    ("optimizer.choose_us", "us");
    ("optimizer.qerror_p50", "ratio");
    ("optimizer.qerror_max", "ratio");
    ("engine_rdbms.exec_ms", "ms");
    ("engine.visited", "count");
    ("engine.djoins", "count");
    ("engine.intermediate", "count");
    ("engine.index_seeks", "count");
    ("engine_twig.exec_ms", "ms");
    ("twig.visited", "count");
    ("qcache.memo_hit_ratio", "ratio");
    ("qcache.scan_hit_ratio", "ratio");
    ("qcache.invalidations_per_update", "count");
    ("buffer_pool.requests_per_query", "count");
    ("buffer_pool.misses_per_query", "count");
    ("buffer_pool.hit_ratio", "ratio");
    ("codec.entries_per_page", "count");
    ("codec.decode_us_per_page", "us");
    ("codec.decode_frac", "ratio");
    ("codec.v1_cold_ms", "ms");
    ("codec.v2_cold_ms", "ms");
    ("codec.v1_misses_per_query", "count");
    ("codec.v2_misses_per_query", "count");
    ("pager.reads_per_query", "count");
    ("pager.read_us", "us");
    ("wal.fsyncs_per_update", "count");
    ("wal.read_fsyncs", "count");
    ("wal.fsync_ms", "ms");
    ("wal.bytes_per_update", "bytes");
    ("store.checkpoint_ms", "ms");
    ("update.apply_ms", "ms");
    ("update.relabeled_nodes", "count");
    ("update.pages_written", "count");
    ("server.request_ms", "ms");
    ("server.queue_wait_ms", "ms");
    ("server.lock_wait_ms", "ms");
    ("server.self_ms", "ms");
    ("server.busy_frac", "ratio");
    ("router.queue_wait_ms", "ms");
    ("router.self_ms", "ms");
    ("router.network_ms", "ms");
    ("router.hedge_fired_frac", "ratio");
    ("router.replica_lag", "ms");
    ("setup.index_s", "s");
    ("setup.bulkload_s", "s");
    ("setup.open_s", "s");
    ("setup.cluster_start_s", "s");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections_per_op", "count");
    ("trace.overhead_frac", "ratio");
    ("trace.unattributed_frac", "ratio");
  ]

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64

let set (t : t) name v =
  if not (List.mem_assoc name all) then invalid_arg ("Layers.set: " ^ name);
  Hashtbl.replace t name v

let metrics (t : t) =
  List.map
    (fun (name, unit_) ->
      Common.m name unit_ (Option.value (Hashtbl.find_opt t name) ~default:0.))
    all

(* GC work per operation over a window: minor words allocated and major
   collections, from the runtime's own counters. *)
type gc_mark = { minor : float; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; majors = s.Gc.major_collections }

let set_gc t ~before ~ops =
  let a = gc_mark () in
  let n = float (max 1 ops) in
  set t "gc.minor_words_per_op" ((a.minor -. before.minor) /. n);
  set t "gc.major_collections_per_op" (float (a.majors - before.majors) /. n)

(* The optimizer's estimate-vs-actual error for one executed pick. *)
let qerror ~est ~actual =
  let est = Float.max est 1. and actual = Float.max actual 1. in
  Float.max (est /. actual) (actual /. est)

(* Disk I/O totals ([Storage.dk_io]) summed over storages. *)
type io = {
  fsyncs : float;
  fsync_ns : float;
  checkpoints : float;
  checkpoint_ns : float;
  reads : float;
  read_ns : float;
}

let io_total storages =
  List.fold_left
    (fun acc s ->
      match Blas.Storage.disk s with
      | None -> acc
      | Some d ->
        let io = d.Blas.Storage.dk_io () in
        {
          fsyncs = acc.fsyncs +. float io.Blas_disk.Store.io_wal_fsyncs;
          fsync_ns = acc.fsync_ns +. float io.io_wal_fsync_ns;
          checkpoints = acc.checkpoints +. float io.io_checkpoints;
          checkpoint_ns = acc.checkpoint_ns +. float io.io_checkpoint_ns;
          reads = acc.reads +. float io.io_page_reads;
          read_ns = acc.read_ns +. float io.io_page_read_ns;
        })
    { fsyncs = 0.; fsync_ns = 0.; checkpoints = 0.; checkpoint_ns = 0.; reads = 0.; read_ns = 0. }
    storages

let io_diff ~before a =
  {
    fsyncs = a.fsyncs -. before.fsyncs;
    fsync_ns = a.fsync_ns -. before.fsync_ns;
    checkpoints = a.checkpoints -. before.checkpoints;
    checkpoint_ns = a.checkpoint_ns -. before.checkpoint_ns;
    reads = a.reads -. before.reads;
    read_ns = a.read_ns -. before.read_ns;
  }

let set_pager t io ~queries =
  set t "pager.reads_per_query" (Common.ratio io.reads (float queries));
  set t "pager.read_us" (Common.ratio (io.read_ns /. 1e3) io.reads)

let set_wal t io ~updates =
  set t "wal.fsyncs_per_update" (Common.ratio io.fsyncs (float updates));
  set t "wal.fsync_ms" (Common.ratio (io.fsync_ns /. 1e6) io.fsyncs);
  set t "store.checkpoint_ms" (Common.ratio (io.checkpoint_ns /. 1e6) io.checkpoints)
