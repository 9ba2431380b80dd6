(* cluster-rw: [Blas_cluster.Local] runs a router over 2 shards with 1
   read replica each, on private .blasdb copies, with the servers'
   default configuration (query cache on, group commit off: every
   commit fsyncs its WAL).  Two client connections run a closed loop;
   queries hit hash-placed documents and one range-partitioned document
   (scatter and merge), and about one operation in ten is a seeded
   UPDATE.  This is the only workload where the wire protocol, the
   rwlock, cache hits and invalidation, the update engine, the WAL and
   replica fan-out do real work, and it reads beside writes.

   Each client owns the edit script of one document (on its own
   shard), so every document has a single writer and the expected
   answers are known: an in-process shadow storage applies the same
   script through [Blas.Update] ahead of the run, recording the answer
   to every query at every version.  A query on an edited document is
   correct when its answer matches a version between the edits acked
   before it was sent and the edits sent before its reply arrived. *)

module Local = Blas_cluster.Local
module Client = Blas_server.Client
module Proto = Blas_server.Proto

let shards = 2
let replicas = 1

(* Document sizes.  Edits re-label and re-encode in proportion to the
   document, so the edited documents stay small. *)
let edited_plays = 1
let edited_auction_scale = 2
let protein_entries = 120
let site_scale = 8
let site_chunks = 4

let update_share = 10  (* one operation in [update_share] is an UPDATE *)

(* Edits pre-computed per edited document; a client that runs out only
   queries. *)
let edits_per_doc = 500

let payload_of_starts = function
  | [] -> "answers 0"
  | starts ->
    Printf.sprintf "answers %d\n%s" (List.length starts)
      (String.concat " " (List.map string_of_int starts))

(* The storage a server hosts, kept for the in-process counters. *)
type hosted = { h_doc : string; h_storage : Blas.Storage.t; h_path : string }

type edited = {
  e_doc : string;
  e_edits : Edits.edit array;
  e_expect_update : string array;  (** prefix of edit k's reply *)
  e_answers : string array array;  (** version -> query -> payload *)
  e_apply_s : float list;  (** shadow apply times *)
  e_reports : Blas.Update.report list;
  sent : int Atomic.t;
  acked : int Atomic.t;
}

type doc_queries = {
  d_doc : string;
  d_queries : (string * string) list;
  d_static : string array option;  (** expected payloads of unedited docs *)
  d_edited : edited option;
}

type loaded = {
  cluster : Local.t;
  hosted : hosted list ref;
  trees : (string * Corpus.dataset) list;  (** hash-placed documents *)
  site : Corpus.dataset;
  xml_bytes : int;
  index_s : float;
  bulkload_s : float;
  open_s : float;
  start_s : float;
}

(* The first of [base], [base-1], ... that hashes onto shard [k]. *)
let name_on map base k =
  let rec go i =
    let name = if i = 0 then base else Printf.sprintf "%s-%d" base i in
    if Blas_cluster.Shard_map.shard_of_doc map name = k then name else go (i + 1)
  in
  go 0

let build ~trace () =
  let map = Blas_cluster.Shard_map.create ~vnodes:64 ~shards () in
  let docs =
    [
      (name_on map "plays" 0, Corpus.shakespeare ~plays:edited_plays);
      (name_on map "auction" 1, Corpus.auction ~scale:edited_auction_scale ());
      ("protein", Corpus.protein ~entries:protein_entries);
    ]
  in
  (* The range-partitioned document answers the XMark skeletons, which
     makes the cycle 3 + 3 + 8 + 5 = 19 queries: odd, so the median
     falls inside one query's distribution. *)
  let site =
    { (Corpus.auction ~seed:4 ~scale:site_scale ()) with ds_queries = Corpus.xmark_queries }
  in
  let index_s = ref 0. and bulkload_s = ref 0. and open_s = ref 0. in
  let templates =
    List.map
      (fun (name, (ds : Corpus.dataset)) ->
        let path = Common.scratch (name ^ ".tpl.blasdb") in
        Common.remove_db path;
        let mem, i = Common.timed (fun () -> Blas.index_of_tree ds.ds_tree) in
        let (), b = Common.timed (fun () -> Blas.Database.create ~path mem) in
        index_s := !index_s +. i;
        bulkload_s := !bulkload_s +. b;
        (name, path))
      docs
  in
  let hosted = ref [] and copies = ref 0 in
  let thunk name tpl () =
    incr copies;
    let path = Common.scratch (Printf.sprintf "%s.%d.blasdb" name !copies) in
    Common.copy_file tpl path;
    let storage, o =
      Common.timed (fun () -> Blas.Database.open_ ~mode:Blas.Database.Rw ~path ())
    in
    open_s := !open_s +. o;
    hosted := { h_doc = name; h_storage = storage; h_path = path } :: !hosted;
    storage
  in
  let server_config =
    if trace then { Blas_server.Server.default_config with trace_ring = 32768 }
    else Blas_server.Server.default_config
  in
  let cluster, start_s =
    Common.timed (fun () ->
        Local.start ~replicas ~server_config
          ~partition:("site", site.ds_tree, site_chunks)
          ~shards
          ~docs:(List.map (fun (name, tpl) -> (name, thunk name tpl)) templates)
          ())
  in
  {
    cluster; hosted; trees = docs; site;
    xml_bytes = Corpus.xml_bytes (site :: List.map snd docs);
    index_s = !index_s; bulkload_s = !bulkload_s; open_s = !open_s; start_s;
  }

let release l =
  Local.stop l.cluster;
  List.iter
    (fun h -> Blas.Storage.close h.h_storage; Common.remove_db h.h_path)
    !(l.hosted)

(* Run the seeded script on a shadow copy, recording every version's
   answers (outside set-up and the window). *)
let pregen ~seed ~tally doc (ds : Corpus.dataset) =
  let shadow = Blas.index_of_tree ds.ds_tree in
  let queries = Array.of_list (List.map snd ds.ds_queries) in
  let asts = Array.map Blas.query queries in
  let answers () =
    Array.map
      (fun ast ->
        payload_of_starts
          (Blas.run ~cache:false shadow ~engine:Blas.Rdbms ~translator:Blas.Pushup ast)
            .Blas.starts)
      asts
  in
  (* Most edits leave most answers unchanged: share the previous
     version's string then, or the table dominates the heap. *)
  let share prev cur = Array.map2 (fun p c -> if String.equal p c then p else c) prev cur in
  (* The shadow's engine answers must be the oracle's. *)
  let oracle_check () =
    Array.iter2
      (fun ast got -> Common.record tally (got = payload_of_starts (Blas.oracle shadow ast)))
      asts (answers ())
  in
  oracle_check ();
  let script = Edits.create ~seed in
  let versions = ref [ answers () ] and edits = ref [] and expect = ref [] in
  let apply_s = ref [] and reports = ref [] in
  for _ = 1 to edits_per_doc do
    let e = Edits.choose script shadow in
    let r, dt = Common.timed (fun () -> Edits.apply shadow e) in
    Edits.applied script shadow e;
    apply_s := dt :: !apply_s;
    reports := r :: !reports;
    edits := e :: !edits;
    expect :=
      Printf.sprintf "+%d -%d nodes, %d relabeled, %d plabels," r.nodes_inserted
        r.nodes_deleted r.nodes_relabeled r.plabels_allocated
      :: !expect;
    versions := share (List.hd !versions) (answers ()) :: !versions
  done;
  oracle_check ();
  {
    e_doc = doc;
    e_edits = Array.of_list (List.rev !edits);
    e_expect_update = Array.of_list (List.rev !expect);
    e_answers = Array.of_list (List.rev !versions);
    e_apply_s = !apply_s;
    e_reports = !reports;
    sent = Atomic.make 0;
    acked = Atomic.make 0;
  }

(* ------------------------------------------------------------------ *)
(* Client loop                                                         *)

type sample = {
  mutable q_pts : (float * float) list;  (** (completion stamp, latency) *)
  mutable u_pts : (float * float) list;
  mutable wal_bytes : int list;  (** WAL growth per update, all copies *)
  mutable traced : (float * string * (string -> bool)) list;
      (** client latency, traced reply, its answer check: parsed after
          the window, so the client's JSON work stays out of it *)
  mutable ok : int;
  mutable bad : int;
}

let new_sample () =
  { q_pts = []; u_pts = []; wal_bytes = []; traced = []; ok = 0; bad = 0 }

let count s ok = if ok then s.ok <- s.ok + 1 else s.bad <- s.bad + 1

(* The payload of a (possibly traced) OK reply. *)
let unwrap ~traced payload =
  if not traced then (payload, None)
  else
    let j = Jsonp.parse payload in
    (Jsonp.str (Jsonp.field "payload" j), Some j)

let wal_backlog l doc =
  List.fold_left
    (fun acc h ->
      if h.h_doc = doc then
        match Blas.Storage.disk h.h_storage with
        | Some d -> acc + d.Blas.Storage.dk_wal_bytes ()
        | None -> acc
      else acc)
    0 !(l.hosted)

let client ~l ~port ~seed ~docs ~mine ~traced ~stop sample =
  Client.with_client port @@ fun c ->
  let rng = Blas_datagen.Rng.create ~seed in
  (* Each client cycles through every query in its own seeded order, so
     every query's share of the mix is exact. *)
  let cycle =
    Array.of_list
      (Common.shuffle rng
         (List.concat_map (fun d -> List.mapi (fun i (_, xpath) -> (d, i, xpath)) d.d_queries) docs))
  in
  let next = ref 0 in
  let rec loop () =
    if Common.now () < stop then begin
      let next_edit =
        match mine with
        | Some e when Blas_datagen.Rng.int rng update_share = 0 ->
          let k = Atomic.get e.sent in
          if k < Array.length e.e_edits then Some (e, k) else None
        | _ -> None
      in
      (match next_edit with
      | Some (e, k) ->
        Atomic.set e.sent (k + 1);
        let w0 = wal_backlog l e.e_doc in
        let reply, dt =
          Common.timed (fun () ->
              Client.update ~trace:traced c ~doc:e.e_doc (Edits.to_proto e.e_edits.(k)))
        in
        let ok =
          match reply with
          | Proto.Ok_payload p ->
            String.starts_with ~prefix:e.e_expect_update.(k) (fst (unwrap ~traced p))
          | _ -> false
        in
        count sample ok;
        if ok then begin
          Atomic.set e.acked (k + 1);
          let w1 = wal_backlog l e.e_doc in
          if w1 >= w0 then sample.wal_bytes <- (w1 - w0) :: sample.wal_bytes
        end
        else (* the versions are unknown from here: stop editing *)
          Atomic.set e.sent (Array.length e.e_edits);
        sample.u_pts <- (Common.now (), dt) :: sample.u_pts
      | None ->
        let d, qi, xpath = cycle.(!next mod Array.length cycle) in
        incr next;
        let lo = match d.d_edited with Some e -> Atomic.get e.acked | None -> 0 in
        let t0 = Common.now () in
        let reply =
          Client.query ~trace:traced c ~doc:d.d_doc ~translator:Blas.Auto2
            ~engine:Blas.Rdbms xpath
        in
        let t1 = Common.now () in
        let expected =
          match (d.d_static, d.d_edited) with
          | Some want, _ -> fun payload -> payload = want.(qi)
          | None, Some e ->
            let hi = min (Atomic.get e.sent) (Array.length e.e_answers - 1) in
            fun payload ->
              let rec any k = k <= hi && (e.e_answers.(k).(qi) = payload || any (k + 1)) in
              any lo
          | None, None -> fun _ -> false
        in
        (match reply with
        | Proto.Ok_payload p when traced ->
          sample.traced <- (t1 -. t0, p, expected) :: sample.traced
        | Proto.Ok_payload p -> count sample (expected p)
        | _ -> count sample false);
        sample.q_pts <- (t1, t1 -. t0) :: sample.q_pts);
      loop ()
    end
  in
  loop ()

(* Both clients for [seconds]; returns the window start and the two
   samples. *)
let window ~l ~speed ~seed ~docs ~edited ~traced ~seconds =
  let port = Local.port l.cluster in
  let stop_sampler = Common.Speed.sampler speed in
  let t0 = Common.now () in
  let stop = t0 +. seconds in
  let samples = [| new_sample (); new_sample () |] in
  let threads =
    Array.mapi
      (fun i s ->
        Thread.create
          (fun () ->
            client ~l ~port ~seed:(seed + i) ~docs ~mine:(List.nth_opt edited i) ~traced
              ~stop s)
          ())
      samples
  in
  Array.iter Thread.join threads;
  stop_sampler ();
  (t0, samples)

let record_samples tally samples =
  Array.iter
    (fun s ->
      for _ = 1 to s.ok do Common.record tally true done;
      for _ = 1 to s.bad do Common.record tally false done)
    samples

(* ------------------------------------------------------------------ *)
(* Counters the program exposes                                        *)

let storages l = List.map (fun h -> h.h_storage) !(l.hosted)

let cache_sum l =
  List.fold_left
    (fun acc h ->
      let s = Blas.Storage.cache_stats h.h_storage in
      match acc with
      | None -> Some s
      | Some (a : Blas.Cache.stats) ->
        Some
          {
            Blas.Cache.plans = Blas_cache.Stats.sum a.plans s.plans;
            results = Blas_cache.Stats.sum a.results s.results;
            streams = Blas_cache.Stats.sum a.streams s.streams;
          })
    None !(l.hosted)
  |> Option.get

let pool_sum l =
  List.fold_left
    (fun (r, m) h ->
      let p = Blas.Storage.pool h.h_storage in
      (r + Blas_rel.Buffer_pool.requests p, m + Blas_rel.Buffer_pool.misses p))
    (0, 0) !(l.hosted)

let router_counter l name =
  Blas_obs.Metrics.counter_value
    (Blas_obs.Metrics.counter (Blas_cluster.Router.registry (Local.router l.cluster)) name)

let router_gauge l name =
  Blas_obs.Metrics.gauge_value
    (Blas_obs.Metrics.gauge (Blas_cluster.Router.registry (Local.router l.cluster)) name)

(* ------------------------------------------------------------------ *)
(* Trace stitching                                                     *)

let spans j = Jsonp.list (Jsonp.field "trace" j)

let name_of s = Jsonp.str (Jsonp.field "name" s)

let dur_s s = Jsonp.num (Jsonp.field "duration_ns" s) /. 1e9

let children s = Jsonp.list (Jsonp.field "children" s)

let request_span j = List.find_opt (fun s -> name_of s = "request") (spans j)

let child_sum s pred =
  List.fold_left (fun acc c -> if pred (name_of c) then acc +. dur_s c else acc) 0. (children s)

let rec descendants s = List.concat_map (fun c -> c :: descendants c) (children s)

type leg = {
  leg_s : float;  (** router-side hop time *)
  shard_req : float;
  shard_queue : float;
  shard_lock : float;
  shard_query : float;  (** the engine's [query] span *)
  shard_io : float;
  choose : float;
  translate : float;
  execute : float;
  twig : bool;  (** the optimizer picked the twig engine *)
}

(* The shard's span tree for hop [i] of router trace [id], asked of
   every endpoint of shard [k] (a hedged or failed-over hop ran on a
   replica). *)
let fetch_leg l conns ~id ~i ~k ~leg_s =
  let key = Printf.sprintf "%s-s%d" id i in
  let conn j =
    match Hashtbl.find_opt conns (k, j) with
    | Some c -> c
    | None ->
      let c = Client.connect (Local.endpoint_port l.cluster k j) in
      Hashtbl.add conns (k, j) c;
      c
  in
  let rec try_ep j =
    if j > replicas then None
    else
      match Client.trace_get (conn j) key with
      | Proto.Ok_payload body -> Some (Jsonp.parse body)
      | _ -> try_ep (j + 1)
  in
  match Option.bind (try_ep 0) request_span with
  | None -> None
  | Some req ->
    let query = List.find_opt (fun c -> name_of c = "query") (children req) in
    let within names =
      match query with
      | None -> 0.
      | Some q ->
        List.fold_left
          (fun acc c -> if List.mem (name_of c) names then acc +. dur_s c else acc)
          0. (descendants q)
    in
    Some
      {
        leg_s;
        shard_req = dur_s req;
        shard_queue = child_sum req (( = ) "queue-wait");
        shard_lock = child_sum req (( = ) "lock-wait");
        shard_query = child_sum req (( = ) "query");
        shard_io = child_sum req (( = ) "pager-io");
        choose = within [ "plan-choice" ];
        translate = within [ "translate"; "compile"; "decompose" ];
        execute = within [ "execute" ];
        twig =
          (match query with
          | None -> false
          | Some q ->
            List.exists
              (fun c ->
                name_of c = "plan-choice"
                && (let chosen =
                      Jsonp.str (Option.bind (Jsonp.field "attrs" c) (Jsonp.field "chosen"))
                    in
                    String.length chosen > 5
                    && List.mem "twig" (String.split_on_char '/' chosen)))
              (descendants q));
      }

type stitched = {
  client : float;
  router_req : float;
  router_queue : float;
  crit : leg;  (** the slowest hop, which the reply waited for *)
  all_legs : leg list;
}

let stitch l conns (client, id, j) =
  match request_span j with
  | None -> None
  | Some req ->
    let fanout =
      List.filter
        (fun c -> String.length (name_of c) > 7 && String.sub (name_of c) 0 7 = "fanout-")
        (children req)
    in
    let legs =
      List.filter_map
        (fun x -> x)
        (List.mapi
           (fun i c ->
             let k =
               int_of_string_opt
                 (Jsonp.str (Option.bind (Jsonp.field "attrs" c) (Jsonp.field "shard")))
             in
             match k with
             | Some k -> fetch_leg l conns ~id ~i ~k ~leg_s:(dur_s c)
             | None -> None)
           fanout)
    in
    if legs = [] || List.length legs <> List.length fanout then None
    else
      let crit =
        List.fold_left (fun a b -> if b.leg_s > a.leg_s then b else a) (List.hd legs) legs
      in
      Some
        {
          client;
          router_req = dur_s req;
          router_queue = child_sum req (( = ) "queue-wait");
          crit;
          all_legs = legs;
        }

(* At most this many traced queries are stitched (each costs one
   TRACE GET per hop). *)
let max_stitched = 1500

(* Queue waits are recorded as children of a request span but lie
   before it (measured from the admission stamp), so a hop's time is
   network + shard queue wait + shard request, and a request span's own
   time is what its in-span children leave over. *)
let stitched_layers layers ~seconds st =
  let n = float (max 1 (List.length st)) in
  let avg f = List.fold_left (fun acc s -> acc +. f s) 0. st /. n in
  let set = Layers.set layers in
  let shard_self c = c.shard_req -. c.shard_lock -. c.shard_query -. c.shard_io in
  set "router.queue_wait_ms" (Common.ms (avg (fun s -> s.router_queue)));
  set "router.self_ms" (Common.ms (avg (fun s -> s.router_req -. s.crit.leg_s)));
  set "router.network_ms"
    (Common.ms (avg (fun s -> s.crit.leg_s -. s.crit.shard_queue -. s.crit.shard_req)));
  set "server.request_ms" (Common.ms (avg (fun s -> s.crit.shard_req)));
  set "server.queue_wait_ms" (Common.ms (avg (fun s -> s.crit.shard_queue)));
  set "server.lock_wait_ms" (Common.ms (avg (fun s -> s.crit.shard_lock)));
  set "server.self_ms" (Common.ms (avg (fun s -> shard_self s.crit)));
  set "optimizer.choose_us" (Common.us (avg (fun s -> s.crit.choose)));
  set "translate.plan_us" (Common.us (avg (fun s -> s.crit.translate)));
  set "engine_rdbms.exec_ms"
    (Common.ms (avg (fun s -> if s.crit.twig then 0. else s.crit.execute)));
  set "engine_twig.exec_ms" (Common.ms (avg (fun s -> if s.crit.twig then s.crit.execute else 0.)));
  (* Share of the shard fleet's time spent inside requests. *)
  let busy =
    List.fold_left
      (fun acc s -> acc +. List.fold_left (fun a g -> a +. g.shard_req) 0. s.all_legs)
      0. st
  in
  set "server.busy_frac" (busy /. (seconds *. float (shards * (1 + replicas))));
  let client = avg (fun s -> s.client) in
  set "trace.unattributed_frac"
    (Common.ratio (client -. avg (fun s -> s.router_queue +. s.router_req)) client)

(* ------------------------------------------------------------------ *)

let run (args : Common.args) =
  let speed = Common.Speed.create () in
  let l, setup_s =
    Common.repeated_setup ~speed ~reps:3 ~release (build ~trace:args.trace)
  in
  Common.debug "setup done (%.2fs median)" setup_s;
  let tally = Common.tally () in
  let layers = Layers.create () in
  (* Expected answers: the oracle for the unedited documents, the shadow
     script for the edited ones. *)
  let edited =
    List.filteri (fun i _ -> i < 2) l.trees
    |> List.mapi (fun i (name, ds) ->
           pregen ~seed:(Corpus.sub_seed args.seed (30 + i)) ~tally name ds)
  in
  let static_answers (ds : Corpus.dataset) =
    let mem = Blas.index_of_tree ds.ds_tree in
    Array.of_list
      (List.map (fun (_, qs) -> payload_of_starts (Blas.oracle mem (Blas.query qs))) ds.ds_queries)
  in
  let docs =
    List.map
      (fun (name, (ds : Corpus.dataset)) ->
        let e = List.find_opt (fun e -> e.e_doc = name) edited in
        { d_doc = name; d_queries = ds.ds_queries; d_edited = e;
          d_static = (if e = None then Some (static_answers ds) else None) })
      l.trees
    @ [ { d_doc = "site"; d_queries = l.site.ds_queries; d_edited = None;
          d_static = Some (static_answers l.site) } ]
  in
  (* Bytes on disk (files and WAL of every copy) per XML byte they host,
     taken before any edit: the WAL backlog later depends on when the
     last checkpoint fell. *)
  let space_ratio () =
    let on_disk, xml =
      List.fold_left
        (fun (b, x) h ->
          ( b + Common.file_size h.h_path + Common.file_size (h.h_path ^ ".wal"),
            x + (List.assoc h.h_doc l.trees).Corpus.ds_xml_bytes ))
        (0, 0) !(l.hosted)
    in
    float on_disk /. float xml
  in
  Common.debug "pregen done";
  let space_ratio = space_ratio () in
  (* Settle: every query once and one edit of each kind per edited
     document, through the router. *)
  let port = Local.port l.cluster in
  Client.with_client port (fun c ->
      List.iter
        (fun d ->
          List.iter
            (fun (_, xpath) ->
              ignore (Client.query c ~doc:d.d_doc ~translator:Blas.Auto2 ~engine:Blas.Rdbms xpath))
            d.d_queries)
        docs;
      List.iter
        (fun e ->
          for _ = 1 to 3 do
            let k = Atomic.get e.sent in
            Atomic.set e.sent (k + 1);
            (match Client.update c ~doc:e.e_doc (Edits.to_proto e.e_edits.(k)) with
            | Proto.Ok_payload p ->
              Common.record tally (String.starts_with ~prefix:e.e_expect_update.(k) p)
            | _ -> Common.record tally false);
            Atomic.set e.acked (k + 1)
          done)
        edited);
  Gc.compact ();
  Common.debug "settled";
  let seconds = if args.trace then args.seconds /. 2. else args.seconds in
  let cache0 = cache_sum l in
  let pool0 = pool_sum l in
  let io0 = Layers.io_total (storages l) in
  let hedged0 = router_counter l "router.hedge.fired" in
  let gc0 = Layers.gc_mark () in
  let t0, samples =
    window ~l ~speed ~seed:(Corpus.sub_seed args.seed 40) ~docs ~edited ~traced:false
      ~seconds
  in
  let io = Layers.io_diff ~before:io0 (Layers.io_total (storages l)) in
  let hedged = router_counter l "router.hedge.fired" - hedged0 in
  let cache1 = cache_sum l in
  let pool1 = pool_sum l in
  let merged f = List.concat_map f (Array.to_list samples) in
  let q_pts = merged (fun s -> s.q_pts) and u_pts = merged (fun s -> s.u_pts) in
  let nq = List.length q_pts and nu = List.length u_pts in
  Layers.set_gc layers ~before:gc0 ~ops:(nq + nu);
  record_samples tally samples;
  let qps = Common.slice_rate ~speed ~t0 ~seconds (List.map fst q_pts) in
  if args.trace then begin
    let set = Layers.set layers in
    let t0', tsamples =
      window ~l ~speed ~seed:(Corpus.sub_seed args.seed 41) ~docs ~edited ~traced:true
        ~seconds
    in
    record_samples tally tsamples;
    let qps' =
      Common.slice_rate ~speed ~t0:t0' ~seconds
        (List.concat_map (fun s -> List.map fst s.q_pts) (Array.to_list tsamples))
    in
    set "trace.overhead_frac" (1. -. Common.ratio qps' qps);
    Common.debug "traced window done";
    let traces =
      List.concat_map
        (fun s ->
          List.map
            (fun (lat, raw, expected) ->
              let j = Jsonp.parse raw in
              Common.record tally (expected (Jsonp.str (Jsonp.field "payload" j)));
              (lat, Jsonp.str (Jsonp.field "trace_id" j), j))
            s.traced)
        (Array.to_list tsamples)
    in
    let traces = List.filteri (fun i _ -> i < max_stitched) traces in
    let conns = Hashtbl.create 8 in
    let st = List.filter_map (stitch l conns) traces in
    Hashtbl.iter (fun _ c -> Client.close c) conns;
    stitched_layers layers ~seconds st;
    Common.debug "stitched %d of %d" (List.length st) (List.length traces);
    let parse =
      List.concat_map
        (fun d ->
          List.map
            (fun (_, qs) ->
              Common.median
                (List.init 5 (fun _ -> snd (Common.timed (fun () -> Blas.query_union qs)))))
            d.d_queries)
        docs
    in
    set "parser.parse_us" (Common.us (Common.mean parse));
    let d = Blas_cache.Stats.diff in
    let rs = d ~before:cache0.results ~after:cache1.results in
    let ss = d ~before:cache0.streams ~after:cache1.streams in
    let ps = d ~before:cache0.plans ~after:cache1.plans in
    set "qcache.memo_hit_ratio" (Blas_cache.Stats.hit_rate rs);
    set "qcache.scan_hit_ratio" (Blas_cache.Stats.hit_rate ss);
    set "qcache.invalidations_per_update"
      (Common.ratio (float (rs.invalidations + ss.invalidations + ps.invalidations)) (float nu));
    let req = float (fst pool1 - fst pool0) and miss = float (snd pool1 - snd pool0) in
    set "buffer_pool.requests_per_query" (req /. float (max 1 nq));
    set "buffer_pool.misses_per_query" (miss /. float (max 1 nq));
    set "buffer_pool.hit_ratio" (Common.ratio (req -. miss) req);
    Layers.set_wal layers io ~updates:nu;
    Layers.set_pager layers io ~queries:nq;
    set "wal.bytes_per_update"
      (Common.mean (List.map float (merged (fun s -> s.wal_bytes))));
    set "router.hedge_fired_frac" (Common.ratio (float hedged) (float nq));
    set "router.replica_lag" (router_gauge l "router.replica.lag_ns" /. 1e6);
    Side_updates.set_update_layers layers
      ~apply_s:(List.concat_map (fun e -> e.e_apply_s) edited)
      ~reports:(List.concat_map (fun e -> e.e_reports) edited);
    set "setup.index_s" l.index_s;
    set "setup.bulkload_s" l.bulkload_s;
    set "setup.open_s" l.open_s;
    set "setup.cluster_start_s" l.start_s
  end;
  Common.print_env ~args ~speed
    [ ("corpus_xml_bytes", string_of_int l.xml_bytes);
      ("storage", Common.json_string "disk (default codec), 2 shards x (primary + 1 replica)");
      ("fsync_policy", Common.json_string "group commit off: one WAL fsync per commit");
      ("clients", "2");
      ("file_pages",
       string_of_int
         (List.fold_left
            (fun a h -> a + (Common.file_size h.h_path / 4096))
            0 !(l.hosted)));
      ("pool_pages",
       string_of_int
         (List.fold_left
            (fun a h -> a + Blas_rel.Buffer_pool.capacity (Blas.Storage.pool h.h_storage))
            0 !(l.hosted)));
      ("queries", string_of_int nq);
      ("updates", string_of_int nu) ];
  let end_to_end =
    Common.end_to_end ~speed ~setup_s ~qps ~queries:q_pts ~updates:u_pts ~tally
      ~space_ratio
  in
  release l;
  (tally, if args.trace then Layers.metrics layers else end_to_end)
