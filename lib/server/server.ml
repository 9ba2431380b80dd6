(** The resident TCP query server: the {!Frontend} wire front end over
    the hosted documents of a {!Service}.  Workers execute QUERY /
    UPDATE through the service, i.e. under the per-document
    reader–writer locks, on the shared domain pool; the front end owns
    admission, deadlines, tracing and the drain, after which the owned
    pool is shut down. *)

let log_src = Logs.Src.create "blas_server" ~doc:"BLAS network server"

module Log = (val Logs.src_log log_src)

type config = {
  name : string;  (** identity announced in the HELLO handshake *)
  host : string;
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  max_inflight : int;  (** worker threads executing requests *)
  queue_depth : int;  (** admission slots beyond the workers *)
  default_deadline_ms : int option;  (** per-request budget; [None] = none *)
  jobs : int;  (** domain-pool lanes for query execution *)
  cache : bool;  (** per-document semantic query cache *)
  group_commit_ms : float;
      (** batch WAL fsyncs for UPDATEs within this window; 0 = off *)
  allow_sleep : bool;  (** accept the debug SLEEP verb (tests, bench) *)
  metrics_port : int option;
      (** plain-HTTP [GET /metrics] listener; 0 picks an ephemeral port
          (see {!metrics_port}) *)
  slow_ms : float option;  (** slow-query log threshold; [None] = off *)
  slow_log : string;  (** slow-query log path (JSONL) *)
  ts_interval_ms : int;  (** time-series sampling period *)
  ts_slots : int;  (** time-series ring capacity *)
  trace_ring : int;  (** recent traces kept for [TRACE GET] *)
}

let default_config =
  {
    name = "blas";
    host = "127.0.0.1";
    port = 4004;
    max_inflight = 4;
    queue_depth = 16;
    default_deadline_ms = None;
    jobs = 1;
    cache = true;
    group_commit_ms = 0.;
    allow_sleep = false;
    metrics_port = None;
    slow_ms = None;
    slow_log = "blas-slow.jsonl";
    ts_interval_ms = 1000;
    ts_slots = 120;
    trace_ring = 64;
  }

type t = { service : Service.t; front : Frontend.t }

let frontend t = t.front

let port t = Frontend.port t.front

let registry t = Frontend.registry t.front

let service t = t.service

let stop t = Frontend.stop t.front

(* Scrape-time mirroring: the disk layer and the buffer pool keep their
   own cumulative totals (one owner per number); every exposition
   refreshes the registry from them instead of double-counting events.
   The handle lookups are hash probes — fine on the scrape path. *)
let refresh_gauges registry service () =
  List.iter
    (fun (d : Service.doc) ->
      let labels = [ ("doc", d.Service.name) ] in
      let gauge name = Blas_obs.Metrics.gauge registry ~labels name in
      let counter name = Blas_obs.Metrics.counter registry ~labels name in
      let pool = Blas.Storage.pool d.Service.storage in
      let requests = Blas_rel.Buffer_pool.requests pool in
      let misses = Blas_rel.Buffer_pool.misses pool in
      let ratio =
        if requests = 0 then 1.0
        else float_of_int (requests - misses) /. float_of_int requests
      in
      Blas_obs.Metrics.set (gauge "blas.pool.hit_ratio") ratio;
      Blas_obs.Metrics.set_counter
        (counter "blas.pool.dirty_evictions")
        (Blas_rel.Buffer_pool.dirty_evictions pool);
      match Blas.Storage.disk d.Service.storage with
      | None -> ()
      | Some dk ->
        let io = dk.Blas.Storage.dk_io () in
        Blas_obs.Metrics.set_counter
          (counter "blas.disk.wal.fsyncs")
          io.Blas_disk.Store.io_wal_fsyncs;
        Blas_obs.Metrics.set_counter
          (counter "blas.disk.commits")
          io.Blas_disk.Store.io_commits;
        Blas_obs.Metrics.set_counter
          (counter "blas.disk.checkpoints")
          io.Blas_disk.Store.io_checkpoints;
        Blas_obs.Metrics.set_counter
          (counter "blas.disk.page.reads")
          io.Blas_disk.Store.io_page_reads;
        Blas_obs.Metrics.set_counter
          (counter "blas.disk.group.commits")
          io.Blas_disk.Store.io_group_commits;
        Blas_obs.Metrics.set_counter
          (counter "blas.disk.group.saved_fsyncs")
          io.Blas_disk.Store.io_group_saved_fsyncs;
        Blas_obs.Metrics.set
          (gauge "blas.disk.wal.backlog_bytes")
          (float_of_int (dk.Blas.Storage.dk_wal_bytes ())))
    (Service.docs service)

let backend config registry service owned_pool : Frontend.backend =
  {
    prefix = "server";
    list = (fun () -> Service.list_payload service);
    stats_fields = (fun () -> [ ("jobs", Blas_obs.Json.Int config.jobs) ]);
    stats_sections = (fun () -> [ ("docs", Service.docs_json service) ]);
    refresh_gauges = refresh_gauges registry service;
    reject = (fun _ -> None);
    query =
      (fun req ~doc ~translator ~engine xpath ->
        Service.query_info service ~token:req.token ~tracer:req.tracer ~doc
          ~translator ~engine xpath);
    update =
      (fun req ~doc edit ->
        Service.update_full service ~tracer:req.tracer ~doc edit);
    inval = (fun _ ~doc payload -> Service.invalidate service ~doc payload);
    drained = (fun () -> Option.iter Blas.Par.shutdown owned_pool);
  }

(** [start ?registry config ~docs] — host [docs] and start the front
    end; return immediately.  [registry] receives all server metrics
    (fresh by default). *)
let start ?(registry = Blas_obs.Metrics.create ()) config ~docs =
  let owned_pool =
    if config.jobs > 1 then Some (Blas.Par.create ~domains:config.jobs)
    else None
  in
  let service =
    Service.create ?pool:owned_pool ~cache:config.cache
      ~group_commit_ms:config.group_commit_ms docs
  in
  (* Event-time duration histograms of the disk layer (WAL fsync,
     checkpoint); the counts are mirrored from the I/O totals at scrape
     time by [refresh_gauges]. *)
  List.iter
    (fun (d : Service.doc) ->
      match Blas.Storage.disk d.Service.storage with
      | Some dk ->
        dk.Blas.Storage.dk_set_metrics registry
          ~labels:[ ("doc", d.Service.name) ]
      | None -> ())
    (Service.docs service);
  let front =
    match
      Frontend.start ~registry
        {
          name = config.name;
          host = config.host;
          port = config.port;
          max_inflight = config.max_inflight;
          queue_depth = config.queue_depth;
          default_deadline_ms = config.default_deadline_ms;
          allow_sleep = config.allow_sleep;
          metrics_port = config.metrics_port;
          slow_ms = config.slow_ms;
          slow_log = config.slow_log;
          ts_interval_ms = config.ts_interval_ms;
          ts_slots = config.ts_slots;
          trace_ring = config.trace_ring;
        }
        (backend config registry service owned_pool)
    with
    | front -> front
    | exception e ->
      Option.iter Blas.Par.shutdown owned_pool;
      raise e
  in
  Log.info (fun m ->
      m "serving %d document(s) on %s:%d (-j %d, %d workers, queue %d)"
        (List.length docs) config.host (Frontend.port front) config.jobs
        (max 1 config.max_inflight) (max 0 config.queue_depth));
  { service; front }

(** [with_server ?registry config ~docs f] — {!start}, run [f],
    {!stop} (tests and benches). *)
let with_server ?registry config ~docs f =
  let t = start ?registry config ~docs in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)
