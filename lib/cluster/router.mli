(** The scatter-gather router: the ordinary wire protocol on the front
    (a {!Blas_server.Frontend} backend), pooled client connections to N shard groups (primary + read
    replicas) on the back.  Whole documents route by the shard that
    announced them; range-partitioned documents are answered by
    scattering per-chunk sub-queries and merging their answers in
    document order, byte-identical to a single-server run.  Endpoints
    carry circuit breakers; reads fail over to replicas and may hedge a
    second attempt after a p99-derived delay; writes fan the applied
    edit and its §11 invalidation out to replicas.  See the
    implementation header and DESIGN.md §17. *)

type endpoint = { host : string; port : int }

(** ["host:port"] or bare ["port"] (host defaults to 127.0.0.1).
    @raise Invalid_argument on malformed input. *)
val endpoint_of_string : string -> endpoint

val endpoint_to_string : endpoint -> string

(** One shard: its primary and read replicas. *)
type group = { primary : endpoint; replicas : endpoint list }

(** Cut a flat endpoint list into groups of [1 + replicas] (primary
    first) — the CLI's [--shards a,b,c --replicas k] form.
    @raise Invalid_argument when the list does not divide evenly. *)
val groups_of_endpoints : replicas:int -> endpoint list -> group list

type hedge_policy =
  | Hedge_off
  | Hedge_auto  (** delay = the target shard's observed p99 latency *)
  | Hedge_ms of float  (** fixed delay, milliseconds *)

type config = {
  name : string;  (** identity announced in the HELLO handshake *)
  host : string;
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  groups : group list;  (** one per shard, primary first *)
  max_inflight : int;
  queue_depth : int;
  default_deadline_ms : int option;
  hedge : hedge_policy;
  hedge_min_samples : int;
      (** [Hedge_auto] stays off until a shard has this many observed
          queries *)
  breaker_failures : int;  (** consecutive transport failures to open *)
  breaker_cooldown_ms : float;  (** open time before a half-open probe *)
  metrics_port : int option;  (** plain-HTTP [GET /metrics] listener *)
  trace_ring : int;
}

(** 127.0.0.1:4104, no groups, 8 workers, queue 32, auto hedging after
    32 samples, breaker at 3 failures with a 1 s cooldown. *)
val default_config : config

type t

(** [start ?registry config] — handshake with every shard primary,
    build the routing table (chunk-named documents reassemble into
    range partitions), bind the front socket, spawn the workers.
    @raise Invalid_argument on an empty shard list, a document hosted
    by two shards, or an incomplete partition.
    @raise Unix.Unix_error when a primary is unreachable or the address
    cannot be bound. *)
val start : ?registry:Blas_obs.Metrics.t -> config -> t

(** The router's wire front end (shared with the single server).  Its
    STATS payload adds per-endpoint breaker / pool / latency detail,
    the routing table and the hedge and replication counters; METRICS
    refreshes the breaker gauges at scrape time. *)
val frontend : t -> Blas_server.Frontend.t

(** The actual bound port (useful with [port = 0]). *)
val port : t -> int

val registry : t -> Blas_obs.Metrics.t

val shards : t -> int

(** Graceful drain; idempotent.  Finishes admitted requests, closes
    front connections and the pooled back-end connections. *)
val stop : t -> unit

val with_router : ?registry:Blas_obs.Metrics.t -> config -> (t -> 'a) -> 'a
