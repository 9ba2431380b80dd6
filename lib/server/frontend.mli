(** The wire front end shared by {!Server} and the cluster router:
    bounded admission (overload answers [BUSY], never blocks),
    per-request deadlines with cooperative cancellation (late answers
    become [TIMEOUT]), the one-shot [DEADLINE] / [TRACE*] headers,
    request tracing with a ring of recent traces and the slow-query
    log, the time-series sampler, the plain-HTTP [/metrics] listener
    and a graceful drain.  What a request {e does} is the backend's
    business. *)

type config = {
  name : string;  (** identity announced in the HELLO handshake *)
  host : string;
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  max_inflight : int;  (** worker threads executing requests *)
  queue_depth : int;  (** admission slots beyond the workers *)
  default_deadline_ms : int option;  (** per-request budget; [None] = none *)
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

(** What an admitted request body receives. *)
type request = {
  token : Blas.Par.Token.t;
      (** cancellation token; fires once the deadline passes *)
  deadline_ns : int64 option;  (** absolute, on {!Blas_obs.Clock} *)
  tracer : Blas_obs.Trace.t;
      (** the request's tracer (disabled when untraced); spans recorded
          here nest under the ["request"] span *)
  trace_id : string;  (** [""] when untraced *)
}

(** A backend: the functions the front end calls.  Request bodies run
    on a worker thread, after admission. *)
type backend = {
  prefix : string;
      (** metric-name prefix and STATS key (["server"], ["router"]) *)
  list : unit -> string;  (** the LIST payload (also sent on HELLO) *)
  stats_fields : unit -> (string * Blas_obs.Json.t) list;
      (** extra fields of the STATS [prefix] object *)
  stats_sections : unit -> (string * Blas_obs.Json.t) list;
      (** extra top-level STATS sections, before ["metrics"] *)
  refresh_gauges : unit -> unit;
      (** mirror backend state into the registry (scrape time) *)
  reject : Proto.command -> Proto.reply option;
      (** a pre-queue refusal of QUERY / UPDATE / UPDATEX / INVAL *)
  query :
    request ->
    doc:string ->
    translator:Blas.translator ->
    engine:Blas.engine ->
    string ->
    Proto.reply * Service.info;
  update :
    request ->
    doc:string ->
    Proto.edit ->
    Proto.reply * Service.info * Blas.Update.invalidation option;
      (** UPDATE and UPDATEX; the front end prefixes the invalidation
          to an UPDATEX reply *)
  inval : request -> doc:string -> string -> Proto.reply;
  drained : unit -> unit;
      (** runs once in {!stop}, after every request was answered *)
}

type t

(** [start ~registry config backend] — bind, spawn the accept, worker
    and sampler threads (and the HTTP listener when configured), return
    immediately.  Metrics are named [<prefix>.requests],
    [<prefix>.request.latency_ns], [<prefix>.queue.depth],
    [<prefix>.inflight] and [<prefix>.connections].
    @raise Unix.Unix_error when an address cannot be bound. *)
val start : registry:Blas_obs.Metrics.t -> config -> backend -> t

(** The actual bound port (useful with [port = 0]). *)
val port : t -> int

(** The bound port of the HTTP metrics listener, when configured. *)
val metrics_port : t -> int option

val registry : t -> Blas_obs.Metrics.t

(** The STATS reply body (pretty-printed JSON): phase and admission
    state plus the backend's fields and sections, then the metrics. *)
val stats_payload : t -> string

(** Flag a graceful shutdown; async-signal-safe (a single atomic
    store), so a SIGTERM handler may call it directly.  {!wait}
    observes the flag; the owner then runs {!stop}. *)
val request_shutdown : t -> unit

(** Block until {!stop} completed or a shutdown was requested (SHUTDOWN
    verb or {!request_shutdown}). *)
val wait : t -> unit

(** Graceful drain; idempotent.  Stops accepting, rejects new
    admissions, finishes queued and in-flight requests (each still
    bounded by its own deadline), closes connections, joins every
    thread, runs the backend's [drained] hook and flushes final
    gauges. *)
val stop : t -> unit
