(** The wire front end shared by the single server and the router.

    One accept thread, one handler thread per connection, and a fixed
    pool of [max_inflight] worker threads draining a bounded admission
    queue.  Handler threads parse frames and answer the cheap verbs
    (PING, LIST, STATS, METRICS, TRACE GET, HELLO) inline; QUERY /
    UPDATE / UPDATEX / INVAL / SLEEP are {e admitted}:

    - at most [max_inflight + queue_depth] requests are outstanding;
      past that the reply is an immediate [BUSY] — overload never
      blocks the socket (a backend may also refuse a request with its
      own [reject] before it is queued);
    - every admitted request carries an absolute deadline (the
      connection's [DEADLINE] header, else [default_deadline_ms]); a
      request that is already past it when a worker picks it up — or
      whose cooperative cancellation token fires mid-run — answers
      [TIMEOUT];
    - workers run the backend's request body with the token, the
      deadline and the request's tracer.

    Drain ({!stop}, or SIGTERM via {!request_shutdown} + {!wait}):
    stop accepting, reject new admissions, finish the queued and
    in-flight work (each still bounded by its own deadline), close the
    remaining connections, join every thread, run the backend's
    [drained] hook and flush final gauges.  {!stop} is idempotent. *)

let log_src = Logs.Src.create "blas_frontend" ~doc:"BLAS wire front end"

module Log = (val Logs.src_log log_src)
module Json = Blas_obs.Json
module Metrics = Blas_obs.Metrics

type config = {
  name : string;
  host : string;
  port : int;
  max_inflight : int;
  queue_depth : int;
  default_deadline_ms : int option;
  allow_sleep : bool;
  metrics_port : int option;
  slow_ms : float option;
  slow_log : string;
  ts_interval_ms : int;
  ts_slots : int;
  trace_ring : int;
}

type request = {
  token : Blas.Par.Token.t;
  deadline_ns : int64 option;
  tracer : Blas_obs.Trace.t;
  trace_id : string;
}

type backend = {
  prefix : string;
  list : unit -> string;
  stats_fields : unit -> (string * Json.t) list;
  stats_sections : unit -> (string * Json.t) list;
  refresh_gauges : unit -> unit;
  reject : Proto.command -> Proto.reply option;
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
  inval : request -> doc:string -> string -> Proto.reply;
  drained : unit -> unit;
}

type phase = Running | Draining | Stopped

type job = {
  run :
    token:Blas.Par.Token.t ->
    deadline_ns:int64 option ->
    queue_ns:int64 ->
    Proto.reply;
      (** [queue_ns] is the admission-queue wait, measured at pick-up *)
  verb : string;
  deadline_ns : int64 option;  (** absolute, on {!Blas_obs.Clock} *)
  enqueued_ns : int64;
  mutable result : Proto.reply option;
}

type t = {
  config : config;
  backend : backend;
  registry : Metrics.t;
  listen_fd : Unix.file_descr;
  port : int;
  lock : Mutex.t;
  nonempty : Condition.t;  (* a job was queued, or drain began *)
  job_done : Condition.t;  (* some job completed *)
  queue : job Queue.t;
  mutable inflight : int;
  mutable phase : phase;
  shutdown_requested : bool Atomic.t;
  mutable workers : Thread.t list;
  mutable accepter : Thread.t option;
  mutable conns : (Unix.file_descr * Thread.t) list;
  started_ns : int64;
  slowlog : Blas_obs.Slowlog.t option;
  timeseries : Blas_obs.Timeseries.t;
  mutable sampler : Thread.t option;
  http_fd : Unix.file_descr option;  (** the [GET /metrics] listener *)
  http_port : int option;
  mutable http : Thread.t option;
  (* recent traces, retrievable by id: (trace id, serialized body) *)
  traces : (string * string) option array;
  traces_lock : Mutex.t;
  mutable traces_next : int;
  (* resolved metric handles — one hash probe each at startup *)
  m_outcome : string -> Metrics.counter;
  m_latency : string -> Metrics.histogram;
  m_queue : Metrics.gauge;
  m_inflight : Metrics.gauge;
  m_conns : Metrics.counter;
}

let port t = t.port

let metrics_port t = t.http_port

let registry t = t.registry

(* ------------------------------------------------------------------ *)
(* Admission                                                          *)

let now_ns = Blas_obs.Clock.now_ns

let set_gauges_locked t =
  Metrics.set t.m_queue (float_of_int (Queue.length t.queue));
  Metrics.set t.m_inflight (float_of_int t.inflight)

let outcome_of_reply = function
  | Proto.Ok_payload _ | Proto.Bye -> "ok"
  | Proto.Err _ -> "error"
  | Proto.Busy -> "busy"
  | Proto.Timeout -> "timeout"

let outcomes = [ "ok"; "error"; "busy"; "timeout" ]

let record_outcome t reply = Metrics.incr (t.m_outcome (outcome_of_reply reply))

(** [submit t job] — admission control: reject with [BUSY] when
    [max_inflight + queue_depth] requests are already outstanding,
    with [ERR] when draining; otherwise block until a worker finishes
    the job and return its reply. *)
let submit t job =
  Mutex.lock t.lock;
  let reject reply =
    Mutex.unlock t.lock;
    record_outcome t reply;
    reply
  in
  if t.phase <> Running then
    reject (Proto.Err (t.backend.prefix ^ " is shutting down"))
  else if
    Queue.length t.queue + t.inflight
    >= t.config.max_inflight + t.config.queue_depth
  then reject Proto.Busy
  else begin
    Queue.push job t.queue;
    set_gauges_locked t;
    Condition.signal t.nonempty;
    while job.result = None do
      Condition.wait t.job_done t.lock
    done;
    let reply = Option.get job.result in
    Mutex.unlock t.lock;
    reply
  end

(* Runs one admitted job: deadline pre-check, then the job body under a
   token that expires at the deadline.  Outcome and latency are
   recorded here, so the counters reconcile with what clients saw. *)
let execute t job =
  let queue_ns = Int64.sub (now_ns ()) job.enqueued_ns in
  let reply =
    let expired_now () =
      match job.deadline_ns with
      | Some d -> Int64.compare (now_ns ()) d >= 0
      | None -> false
    in
    if expired_now () then Proto.Timeout
    else
      let token = Blas.Par.Token.create ~expired:expired_now () in
      match job.run ~token ~deadline_ns:job.deadline_ns ~queue_ns with
      | reply -> reply
      | exception Blas_par.Pool.Cancelled -> Proto.Timeout
      | exception e ->
        Log.warn (fun m ->
            m "%s request failed: %s" job.verb (Printexc.to_string e));
        Proto.Err (Printexc.to_string e)
  in
  record_outcome t reply;
  Metrics.observe
    (t.m_latency job.verb)
    (Int64.to_float (Int64.sub (now_ns ()) job.enqueued_ns));
  reply

let worker_loop t =
  let rec loop () =
    Mutex.lock t.lock;
    while t.phase = Running && Queue.is_empty t.queue do
      Condition.wait t.nonempty t.lock
    done;
    if Queue.is_empty t.queue then
      (* Draining and nothing left: exit.  Workers only stop once the
         queue is empty, so every admitted job gets a real reply. *)
      Mutex.unlock t.lock
    else begin
      let job = Queue.pop t.queue in
      t.inflight <- t.inflight + 1;
      set_gauges_locked t;
      Mutex.unlock t.lock;
      let reply = execute t job in
      Mutex.lock t.lock;
      job.result <- Some reply;
      t.inflight <- t.inflight - 1;
      set_gauges_locked t;
      Condition.broadcast t.job_done;
      Mutex.unlock t.lock;
      loop ()
    end
  in
  loop ()

let deadline_of t header_ms =
  let ms =
    match header_ms with Some ms -> Some ms | None -> t.config.default_deadline_ms
  in
  Option.map
    (fun ms -> Int64.add (now_ns ()) (Int64.of_int (ms * 1_000_000)))
    ms

let admitted t ~verb ~header_ms run =
  submit t
    {
      run;
      verb;
      deadline_ns = deadline_of t header_ms;
      enqueued_ns = now_ns ();
      result = None;
    }

(* ------------------------------------------------------------------ *)
(* STATS / METRICS                                                    *)

(** The METRICS reply body: the registry, refreshed by the backend, as
    Prometheus text exposition or as the registry's JSON. *)
let metrics_payload t fmt =
  t.backend.refresh_gauges ();
  match fmt with
  | `Prom -> Blas_obs.Expo.render t.registry
  | `Json -> Json.to_string_pretty (Metrics.to_json t.registry)

let timeseries_payload t =
  Json.to_string_pretty (Blas_obs.Timeseries.to_json t.timeseries)

let stats_payload t =
  t.backend.refresh_gauges ();
  Mutex.lock t.lock;
  let queued = Queue.length t.queue
  and inflight = t.inflight
  and phase = t.phase in
  Mutex.unlock t.lock;
  Json.to_string_pretty
    (Json.Obj
       (( t.backend.prefix,
          Json.Obj
            ([
               ("name", Json.Str t.config.name);
               ( "phase",
                 Json.Str
                   (match phase with
                   | Running -> "running"
                   | Draining -> "draining"
                   | Stopped -> "stopped") );
               ( "uptime_ns",
                 Json.Int (Int64.to_int (Int64.sub (now_ns ()) t.started_ns)) );
               ("inflight", Json.Int inflight);
               ("queued", Json.Int queued);
               ("max_inflight", Json.Int t.config.max_inflight);
               ("queue_depth", Json.Int t.config.queue_depth);
               ("connections", Json.Int (Metrics.counter_value t.m_conns));
               ( "requests",
                 Json.Obj
                   (List.map
                      (fun o ->
                        (o, Json.Int (Metrics.counter_value (t.m_outcome o))))
                      outcomes) );
             ]
            @ t.backend.stats_fields ()) )
       :: t.backend.stats_sections ()
       @ [ ("metrics", Metrics.to_json t.registry) ]))

(* ------------------------------------------------------------------ *)
(* Request tracing, trace ring and the slow-query log                 *)

let store_trace t id body =
  Mutex.lock t.traces_lock;
  t.traces.(t.traces_next) <- Some (id, body);
  t.traces_next <- (t.traces_next + 1) mod Array.length t.traces;
  Mutex.unlock t.traces_lock

let find_trace t id =
  Mutex.lock t.traces_lock;
  let found =
    Array.fold_left
      (fun acc slot ->
        match slot with Some (i, body) when i = id -> Some body | _ -> acc)
      None t.traces
  in
  Mutex.unlock t.traces_lock;
  found

let slow_record ~verb ~detail ~elapsed_ns ~queue_ns ~(info : Service.info)
    ~trace_id () =
  Json.Obj
    ([
       ("at_ms", Json.Float (Unix.gettimeofday () *. 1000.));
       ("verb", Json.Str verb);
     ]
    @ List.map (fun (k, v) -> (k, Json.Str v)) detail
    @ [
        ("elapsed_ns", Json.Int (Int64.to_int elapsed_ns));
        ("queue_wait_ns", Json.Int (Int64.to_int queue_ns));
        ("lock_wait_ns", Json.Int (Int64.to_int info.i_lock_wait_ns));
        ("pages_read", Json.Int info.i_pages_read);
        ("cache", Json.Str info.i_cache);
        ( "chosen_plan",
          match info.i_plan with Some p -> Json.Str p | None -> Json.Null );
        ( "est_cost",
          match info.i_est_cost with Some c -> Json.Float c | None -> Json.Null
        );
        ( "actual_cost",
          match info.i_actual_cost with
          | Some c -> Json.Float c
          | None -> Json.Null );
        ("trace_id", if trace_id = "" then Json.Null else Json.Str trace_id);
      ])

(* How a request is traced, set by the one-shot TRACE headers:
   [`Inline] (and [`Inline_id], which fixes the id — routers derive
   per-shard ids from the client's) replace the reply payload with the
   JSON trace envelope; [`Bg] stores the trace in the ring under the
   given id but leaves the reply payload untouched, so a router
   fanning out sub-queries still merges plain answer frames. *)
type trace_mode = [ `Off | `Inline | `Inline_id of string | `Bg of string ]

(* Runs one admitted request body with the request-scoped observability
   around it: a fresh per-request tracer when a TRACE header opted in
   (worker threads share one domain, so a shared tracer would
   interleave concurrent requests into one tree), the queue wait
   recorded from the admission stamp, the slow-log gate, and — when
   traced — the span tree stored in the ring and (inline modes only)
   returned as the JSON payload. *)
let traced_request t ~(trace : trace_mode) ~verb ~queue_ns ~detail f =
  let traced = trace <> `Off in
  let tracer =
    if traced then Blas_obs.Trace.create ~enabled:true ()
    else Blas_obs.Trace.disabled
  in
  let trace_id =
    match trace with
    | `Off -> ""
    | `Inline -> Blas_obs.Trace.fresh_id ()
    | `Inline_id id | `Bg id -> id
  in
  let t0 = now_ns () in
  let reply, info =
    Blas_obs.Trace.with_span tracer "request"
      ~attrs:(("verb", verb) :: ("trace_id", trace_id) :: detail)
    @@ fun () ->
    Blas_obs.Trace.record tracer ~name:"queue-wait"
      ~start_ns:(Int64.sub t0 queue_ns) ~duration_ns:queue_ns ();
    f ~tracer ~trace_id
  in
  let elapsed_ns = Blas_obs.Clock.elapsed_ns t0 in
  Option.iter
    (fun sl ->
      Blas_obs.Slowlog.maybe sl ~elapsed_ns
        (slow_record ~verb ~detail ~elapsed_ns ~queue_ns ~info ~trace_id))
    t.slowlog;
  if not traced then reply
  else begin
    (* In the inline modes the traced payload replaces the plain one;
       untraced and background-traced requests keep byte-identical
       replies (the soak tests and the router's merge compare them). *)
    let with_trace rest =
      Json.to_string
        (Json.Obj
           (("trace_id", Json.Str trace_id)
           :: (rest @ [ ("trace", Blas_obs.Trace.to_json tracer) ])))
    in
    let body =
      match reply with
      | Proto.Ok_payload payload -> with_trace [ ("payload", Json.Str payload) ]
      | other -> with_trace [ ("outcome", Json.Str (outcome_of_reply other)) ]
    in
    store_trace t trace_id body;
    match trace with
    | `Bg _ -> reply
    | _ -> (
      match reply with Proto.Ok_payload _ -> Proto.Ok_payload body | other -> other)
  end

(* ------------------------------------------------------------------ *)
(* Connection handling                                                *)

let sleep_job ms ~token =
  (* 1 ms naps with a cancellation check between them: the debug verb
     behaves like an adversarially slow query with perfect manners. *)
  let deadline = Int64.add (now_ns ()) (Int64.of_int (ms * 1_000_000)) in
  while Int64.compare (now_ns ()) deadline < 0 do
    Blas.Par.Token.check token;
    Thread.delay 0.001
  done;
  Proto.Ok_payload (Printf.sprintf "slept %d" ms)

(* One backend request: the backend's pre-queue refusal, else admission
   and the traced body. *)
let backend_request t cmd ~verb ~detail ~header_ms ~trace body =
  match t.backend.reject cmd with
  | Some refused ->
    record_outcome t refused;
    refused
  | None ->
    admitted t ~verb ~header_ms (fun ~token ~deadline_ns ~queue_ns ->
        traced_request t ~trace ~verb ~queue_ns ~detail
          (fun ~tracer ~trace_id -> body { token; deadline_ns; tracer; trace_id }))

(* The reply to one non-header command; [header_ms] and [trace] are the
   one-shot headers it consumed. *)
let respond t ~header_ms ~trace cmd =
  match cmd with
  | Proto.Ping -> Proto.Ok_payload "pong"
  | Proto.List_docs -> Proto.Ok_payload (t.backend.list ())
  | Proto.Stats -> Proto.Ok_payload (stats_payload t)
  | Proto.Stats_timeseries -> Proto.Ok_payload (timeseries_payload t)
  | Proto.Metrics fmt -> Proto.Ok_payload (metrics_payload t fmt)
  | Proto.Hello peer ->
    Log.debug (fun m -> m "HELLO from %s" peer);
    Proto.Ok_payload
      (Printf.sprintf "shard %s\n%s" t.config.name (t.backend.list ()))
  | Proto.Trace_get id -> (
    match find_trace t id with
    | Some body -> Proto.Ok_payload body
    | None -> Proto.Err (Printf.sprintf "unknown trace id %S" id))
  | Proto.Quit | Proto.Shutdown -> Proto.Bye
  | Proto.Sleep _ when not t.config.allow_sleep ->
    Proto.Err (Printf.sprintf "SLEEP is disabled on this %s" t.backend.prefix)
  | Proto.Sleep ms ->
    admitted t ~verb:"sleep" ~header_ms
      (fun ~token ~deadline_ns:_ ~queue_ns:_ -> sleep_job ms ~token)
  | Proto.Query { doc; translator; engine; xpath } ->
    backend_request t cmd ~verb:"query" ~header_ms ~trace
      ~detail:
        [
          ("doc", doc);
          ("query", xpath);
          ("translator", Proto.translator_to_string translator);
          ("engine", Proto.engine_to_string engine);
        ]
      (fun req -> t.backend.query req ~doc ~translator ~engine xpath)
  | Proto.Update { doc; edit } | Proto.Updatex { doc; edit } ->
    backend_request t cmd ~verb:"update" ~header_ms ~trace
      ~detail:[ ("doc", doc) ]
      (fun req ->
        match (cmd, t.backend.update req ~doc edit) with
        | Proto.Updatex _, (Proto.Ok_payload payload, info, Some inv) ->
          (* The UPDATEX reply's first line is the invalidation the
             router pushes to read replicas. *)
          ( Proto.Ok_payload
              (Proto.invalidation_to_string inv ^ "\n" ^ payload),
            info )
        | _, (reply, info, _) -> (reply, info))
  | Proto.Inval { doc; payload } ->
    backend_request t cmd ~verb:"inval" ~header_ms ~trace
      ~detail:[ ("doc", doc) ]
      (fun req -> (t.backend.inval req ~doc payload, Service.no_info))
  | Proto.Deadline _ | Proto.Trace_hdr | Proto.Trace_id _ | Proto.Trace_bg _ ->
    (* Headers never reach here: the frame loop keeps them. *)
    assert false

let handle_connection t fd =
  let io = Proto.Io.of_fd fd in
  Metrics.incr t.m_conns;
  (* The connection's one-shot headers: a DEADLINE (ms) and a TRACE mode
     (possibly id-carrying or record-only).  Both are consumed by the
     next frame that is not itself a header, whatever its verb or
     outcome — a header must never leak past the command it was sent
     before. *)
  let deadline = ref None and trace = ref (`Off : trace_mode) in
  let rec loop () =
    match Proto.Io.read_line io ~max:Proto.max_frame with
    | `Eof -> ()
    | `Too_long ->
      (* The stream cannot be resynchronized past an oversized frame:
         answer and hang up. *)
      Proto.write_reply io (Proto.Err "frame too large")
    | `Line line -> (
      match Proto.parse_command line with
      (* A header, not a request: no reply frame. *)
      | Ok (Proto.Deadline ms) ->
        deadline := Some ms;
        loop ()
      | Ok Proto.Trace_hdr ->
        trace := `Inline;
        loop ()
      | Ok (Proto.Trace_id id) ->
        trace := `Inline_id id;
        loop ()
      | Ok (Proto.Trace_bg id) ->
        trace := `Bg id;
        loop ()
      | parsed -> (
        let header_ms = !deadline and trace_mode = !trace in
        deadline := None;
        trace := `Off;
        match parsed with
        | Error msg ->
          (* Garbage is survivable frame by frame — answer ERR, keep the
             connection. *)
          Proto.write_reply io (Proto.Err msg);
          loop ()
        | Ok cmd -> (
          Proto.write_reply io (respond t ~header_ms ~trace:trace_mode cmd);
          match cmd with
          | Proto.Quit -> ()
          | Proto.Shutdown -> Atomic.set t.shutdown_requested true
          | _ -> loop ())))
  in
  (try loop () with
  | Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
    (* Peer vanished mid-reply; admitted work already ran to completion
       under its own locks, nothing leaks. *)
    ()
  | e ->
    Log.warn (fun m -> m "connection handler: %s" (Printexc.to_string e)));
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (* Deregister before closing: {!stop} only shuts down fds still in
     [conns] (under the lock), so it never touches a closed — possibly
     reused — descriptor. *)
  Mutex.lock t.lock;
  t.conns <- List.filter (fun (c, _) -> c != fd) t.conns;
  Mutex.unlock t.lock;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* The listen sockets are non-blocking and polled: a thread parked
   inside a blocking [Unix.accept] would not be woken by another thread
   closing the descriptor, and the drain would hang on its join. *)
let rec poll_accept t ~what fd on_conn =
  if t.phase = Running then
    match Unix.accept fd with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      Thread.delay 0.02;
      poll_accept t ~what fd on_conn
    | exception Unix.Unix_error (ECONNABORTED, _, _) ->
      poll_accept t ~what fd on_conn
    | exception Unix.Unix_error ((EBADF | EINVAL), _, _) ->
      (* The listen socket was closed: drain began. *)
      ()
    | exception e ->
      if t.phase = Running then
        Log.err (fun m -> m "%s: %s" what (Printexc.to_string e))
    | cfd, _ ->
      (* The connection socket itself stays blocking; {!stop} wakes
         parked reads with [Unix.shutdown], which does interrupt. *)
      Unix.clear_nonblock cfd;
      on_conn cfd;
      poll_accept t ~what fd on_conn

let accept_loop t =
  poll_accept t ~what:"accept" t.listen_fd (fun fd ->
      (* Replies are written as header + payload; without TCP_NODELAY
         Nagle holds the second write for the peer's delayed ACK and
         every round trip costs ~40 ms. *)
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      let thread = Thread.create (fun () -> handle_connection t fd) () in
      Mutex.lock t.lock;
      t.conns <- (fd, thread) :: t.conns;
      Mutex.unlock t.lock)

(* ------------------------------------------------------------------ *)
(* The time-series sampler and the plain-HTTP metrics listener        *)

(* One registry snapshot per interval into the fixed ring; naps in
   small slices so a drain never waits a full period. *)
let sampler_loop t =
  let rec nap remaining =
    if t.phase = Running && remaining > 0. then begin
      Thread.delay (Float.min 0.05 remaining);
      nap (remaining -. 0.05)
    end
  in
  let rec loop () =
    if t.phase = Running then begin
      t.backend.refresh_gauges ();
      Blas_obs.Timeseries.push t.timeseries
        ~at_ms:(Unix.gettimeofday () *. 1000.)
        (Metrics.to_json t.registry);
      nap (float_of_int t.config.ts_interval_ms /. 1000.);
      loop ()
    end
  in
  loop ()

(* A deliberately minimal HTTP/1.1 responder: one request per
   connection, GET only, close after the reply — all a Prometheus
   scraper needs. *)
let serve_http_request t cfd =
  let io = Proto.Io.of_fd cfd in
  match Proto.Io.read_line io ~max:Proto.max_frame with
  | `Eof | `Too_long -> ()
  | `Line request_line ->
    (* Drain the headers (bounded) so the peer's write never stalls. *)
    let rec drain n =
      if n > 0 then
        match Proto.Io.read_line io ~max:Proto.max_frame with
        | `Line "" | `Eof | `Too_long -> ()
        | `Line _ -> drain (n - 1)
    in
    drain 64;
    let path =
      match String.split_on_char ' ' request_line with
      | _meth :: path :: _ -> path
      | _ -> ""
    in
    let status, ctype, body =
      match path with
      | "/metrics" ->
        ( "200 OK",
          "text/plain; version=0.0.4; charset=utf-8",
          metrics_payload t `Prom )
      | "/metrics.json" -> ("200 OK", "application/json", metrics_payload t `Json)
      | _ -> ("404 Not Found", "text/plain; charset=utf-8", "not found\n")
    in
    Proto.Io.write io
      (Printf.sprintf
         "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
          Connection: close\r\n\r\n%s"
         status ctype (String.length body) body)

let http_loop t fd =
  poll_accept t ~what:"metrics accept" fd (fun cfd ->
      (try serve_http_request t cfd
       with Unix.Unix_error _ -> () (* scraper hung up mid-reply *));
      try Unix.close cfd with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)

(* A non-blocking listening socket on [host:port]; returns it with the
   port actually bound (port 0 picks an ephemeral one). *)
let listen ~host ~port ~backlog =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.listen fd backlog;
    Unix.set_nonblock fd;
    Unix.getsockname fd
  with
  | Unix.ADDR_INET (_, bound) -> (fd, bound)
  | _ -> (fd, port)
  | exception e ->
    Unix.close fd;
    raise e

let start ~registry config backend =
  let config =
    {
      config with
      max_inflight = max 1 config.max_inflight;
      queue_depth = max 0 config.queue_depth;
    }
  in
  let listen_fd, port =
    listen ~host:config.host ~port:config.port ~backlog:64
  in
  let http_fd, http_port =
    match config.metrics_port with
    | None -> (None, None)
    | Some p -> (
      match listen ~host:config.host ~port:p ~backlog:16 with
      | fd, bound -> (Some fd, Some bound)
      | exception e ->
        Unix.close listen_fd;
        raise e)
  in
  (* Writes to vanished peers are routine for a server; they must
     surface as EPIPE, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let prefixed name = backend.prefix ^ "." ^ name in
  let outcome_counter o =
    Metrics.counter registry ~labels:[ ("outcome", o) ] (prefixed "requests")
  in
  let latency_hist v =
    Metrics.histogram registry ~labels:[ ("verb", v) ]
      (prefixed "request.latency_ns")
  in
  (* Touch every outcome so STATS always shows all four. *)
  List.iter (fun o -> ignore (outcome_counter o)) outcomes;
  let t =
    {
      config;
      backend;
      registry;
      listen_fd;
      port;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      job_done = Condition.create ();
      queue = Queue.create ();
      inflight = 0;
      phase = Running;
      shutdown_requested = Atomic.make false;
      workers = [];
      accepter = None;
      conns = [];
      started_ns = now_ns ();
      slowlog =
        Option.map
          (fun threshold_ms ->
            Blas_obs.Slowlog.create ~path:config.slow_log ~threshold_ms ())
          config.slow_ms;
      timeseries = Blas_obs.Timeseries.create ~capacity:(max 1 config.ts_slots);
      sampler = None;
      http_fd;
      http_port;
      http = None;
      traces = Array.make (max 1 config.trace_ring) None;
      traces_lock = Mutex.create ();
      traces_next = 0;
      m_outcome = outcome_counter;
      m_latency = latency_hist;
      m_queue = Metrics.gauge registry (prefixed "queue.depth");
      m_inflight = Metrics.gauge registry (prefixed "inflight");
      m_conns = Metrics.counter registry (prefixed "connections");
    }
  in
  t.workers <-
    List.init config.max_inflight (fun _ -> Thread.create worker_loop t);
  t.accepter <- Some (Thread.create accept_loop t);
  t.sampler <- Some (Thread.create sampler_loop t);
  t.http <- Option.map (fun fd -> Thread.create (fun () -> http_loop t fd) ()) http_fd;
  t

let request_shutdown t = Atomic.set t.shutdown_requested true

let wait t =
  while t.phase <> Stopped && not (Atomic.get t.shutdown_requested) do
    Thread.delay 0.05
  done

let stop t =
  Mutex.lock t.lock;
  let already = t.phase <> Running in
  if not already then t.phase <- Draining;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  if not already then begin
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      t.http_fd;
    Option.iter Thread.join t.accepter;
    t.accepter <- None;
    Option.iter Thread.join t.http;
    t.http <- None;
    Option.iter Thread.join t.sampler;
    t.sampler <- None;
    List.iter Thread.join t.workers;
    t.workers <- [];
    (* Every admitted job has a reply now; unstick handlers blocked in
       read (shutdown interrupts a parked read; close would not) and
       let them run their cleanup.  Receive side only: a handler still
       flushing its last reply must get to finish the write.  Shutting
       down under the lock keeps us off descriptors a handler already
       closed. *)
    Mutex.lock t.lock;
    let conns = t.conns in
    List.iter
      (fun (fd, _) ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      conns;
    Mutex.unlock t.lock;
    List.iter (fun (_, thread) -> Thread.join thread) conns;
    t.backend.drained ();
    Option.iter Blas_obs.Slowlog.close t.slowlog;
    Mutex.lock t.lock;
    set_gauges_locked t;
    t.phase <- Stopped;
    Condition.broadcast t.job_done;
    Mutex.unlock t.lock;
    Log.info (fun m ->
        m "%s drained: %s" t.backend.prefix
          (String.concat ", "
             (List.map
                (fun o ->
                  Printf.sprintf "%s=%d" o
                    (Metrics.counter_value (t.m_outcome o)))
                outcomes)))
  end
