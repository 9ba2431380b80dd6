(* disk-cold: the Shakespeare and auction Figure 10 queries plus the
   XMark skeletons over replicated .blasdb files in the v2 codec, opened
   read-only with a buffer pool several times smaller than the file,
   the pool flushed ([Storage.cold_cache]) before every query.
   Translator and engine are pinned to Push-up and RDBMS so codec and
   I/O figures do not move with optimizer decisions.  Most of the time
   goes to buffer-pool misses, pager reads and codec decode; the
   workload only reads, so no fsync enters its query figures. *)

(* Corpus shape: base documents replicated [factor] times.  v2
   bulk-loading dominates set-up, so the corpus stays small. *)
let plays = 2
let auction_scale = 8
let factor = 2

(* Pool pages per file page: the pool is this many times smaller. *)
let pool_divisor = 4

let page_size = 4096

type db = {
  ds : Corpus.dataset;
  path : string;
  storage : Blas.Storage.t;
  file_pages : int;
  pool_pages : int;
}

type loaded = {
  dbs : db list;
  index_s : float;
  bulkload_s : float;
  open_s : float;
}

let open_db ~pool_pages path =
  Blas.Database.open_ ~cache_pages:pool_pages ~mode:Blas.Database.Ro ~path ()

let file_pages path = Common.file_size path / page_size

(* Bulk-load [ds] into a fresh file with [codec]: (path, index s,
   bulk-load s). *)
let create ~codec ~tag (ds : Corpus.dataset) =
  let path = Common.scratch (Printf.sprintf "%s-%s.blasdb" ds.ds_name tag) in
  Common.remove_db path;
  let mem, index_s = Common.timed (fun () -> Blas.index_of_tree ds.ds_tree) in
  let (), load_s =
    Common.timed (fun () -> Blas.Database.create ~page_size ~codec ~path mem)
  in
  (path, index_s, load_s)

let corpus () =
  [ Corpus.replicate factor (Corpus.shakespeare ~plays);
    Corpus.replicate factor (Corpus.auction ~scale:auction_scale ()) ]

let build () =
  let index_s = ref 0. and bulkload_s = ref 0. and open_s = ref 0. in
  let dbs =
    List.map
      (fun ds ->
        let path, i, b = create ~codec:Blas_rel.Codec.V2 ~tag:"v2" ds in
        index_s := !index_s +. i;
        bulkload_s := !bulkload_s +. b;
        let file_pages = file_pages path in
        let pool_pages = max 4 (file_pages / pool_divisor) in
        let storage, o = Common.timed (fun () -> open_db ~pool_pages path) in
        open_s := !open_s +. o;
        { ds; path; storage; file_pages; pool_pages })
      (corpus ())
  in
  { dbs; index_s = !index_s; bulkload_s = !bulkload_s; open_s = !open_s }

let release l = List.iter (fun d -> Blas.Storage.close d.storage; Common.remove_db d.path) l.dbs

let pushup = (Blas.Pushup, Blas.Rdbms)

(* One cold pass over [queries]: mean ms per query and misses per query,
   the median of [reps] passes. *)
let cold_pass ~reps queries =
  let pass () =
    List.fold_left
      (fun (t, m) (s, ast) ->
        Blas.Storage.cold_cache s;
        let r, dt =
          Common.timed (fun () ->
              Blas.run ~cache:false s ~engine:Blas.Rdbms ~translator:Blas.Pushup ast)
        in
        (t +. dt, m + r.Blas.page_reads))
      (0., 0) queries
  in
  let n = float (List.length queries) in
  let runs = List.init reps (fun _ -> pass ()) in
  ( Common.ms (Common.median (List.map fst runs)) /. n,
    float (snd (List.hd runs)) /. n )

(* Decode every data page of the v2 files once, timed around
   [Codec.decode_page]: (entries per page, us per page). *)
let codec_profile dbs =
  let pages = ref 0 and entries = ref 0 and decode = ref 0. in
  List.iter
    (fun d ->
      let s = d.storage in
      List.iter
        (fun tbl ->
          match Blas_rel.Table.paged_layout tbl with
          | None -> ()
          | Some (dir, _) ->
            let fmt = Blas_rel.Table.codec tbl in
            let pool = Blas.Storage.pool s in
            Array.iter
              (fun (de : Blas_rel.Table.dir_entry) ->
                let payload, _ =
                  Blas_rel.Buffer_pool.get pool ~table:(Blas_rel.Table.name tbl)
                    ~page:de.de_page
                in
                let rows, dt =
                  Common.timed (fun () -> Blas_rel.Codec.decode_page ~format:fmt payload)
                in
                incr pages;
                entries := !entries + List.length rows;
                decode := !decode +. dt)
              dir)
        [ s.Blas.Storage.sp; s.Blas.Storage.sd ];
      Blas.Storage.cold_cache s)
    dbs;
  (Common.ratio (float !entries) (float !pages), Common.us !decode /. float (max 1 !pages))

let run (args : Common.args) =
  let speed = Common.Speed.create () in
  let l, setup_s = Common.repeated_setup ~speed ~reps:3 ~release build in
  let tally = Common.tally () in
  let layers = Layers.create () in
  (* Oracle answers on in-memory indexes of the same documents, outside
     set-up. *)
  let expected =
    List.concat_map
      (fun d ->
        let mem = Blas.index_of_tree d.ds.Corpus.ds_tree in
        List.map
          (fun (_, qs) ->
            let ast = Blas.query qs in
            (d, ast, Blas.oracle mem ast))
          d.ds.Corpus.ds_queries)
      l.dbs
  in
  let rng = Blas_datagen.Rng.create ~seed:(Corpus.sub_seed args.seed 9) in
  let run_query ~traced (d, ast, want) =
    Common.op
      ~prep:(fun () -> Blas.Storage.cold_cache d.storage)
      (fun () ->
        let tracer =
          if traced then Blas_obs.Trace.create ~enabled:true () else Blas_obs.Trace.disabled
        in
        let r =
          Blas.run ~tracer ~cache:false d.storage ~engine:Blas.Rdbms ~translator:Blas.Pushup ast
        in
        Common.record tally (r.Blas.starts = want))
  in
  let order = Common.shuffle rng expected in
  let ops = List.map (run_query ~traced:false) order in
  Common.settle ops;
  let seconds = if args.trace then args.seconds /. 2. else args.seconds in
  let storages = List.map (fun d -> d.storage) l.dbs in
  let io0 = Layers.io_total storages in
  let gc0 = Layers.gc_mark () in
  let t0, pts = Common.closed_loop ~speed ~seconds ops in
  let nq = List.length pts in
  Layers.set_gc layers ~before:gc0 ~ops:nq;
  let reads = Layers.io_diff ~before:io0 (Layers.io_total storages) in
  (* A read-only open must never fsync. *)
  Common.record tally (reads.fsyncs = 0.);
  let qps = Common.slice_rate ~speed ~t0 ~seconds (List.map fst pts) in
  let file_bytes =
    List.fold_left
      (fun acc d -> acc + Common.file_size d.path + Common.file_size (d.path ^ ".wal"))
      0 l.dbs
  in
  let xml_bytes = Corpus.xml_bytes (List.map (fun d -> d.ds) l.dbs) in
  (* Update phase: a writable v2 copy of a small document, checked
     against an in-memory shadow. *)
  let small = Corpus.shakespeare ~plays:Side_updates.plays in
  let upath, _, _ = create ~codec:Blas_rel.Codec.V2 ~tag:"edit" small in
  let target = Blas.Database.open_ ~mode:Blas.Database.Rw ~path:upath () in
  let shadow = Blas.index_of_tree small.ds_tree in
  let wal0 = Layers.io_total [ target ] in
  let upd =
    Side_updates.run ~speed ~seed:(Corpus.sub_seed args.seed 11) ~n:600
      ~tally ~shadow target
  in
  let wal = Layers.io_diff ~before:wal0 (Layers.io_total [ target ]) in
  Side_updates.check_answers ~tally ~reference:shadow target
    (List.map (fun (_, qs) -> Blas.query qs) small.ds_queries);
  Blas.Storage.close target;
  Common.remove_db upath;
  if args.trace then begin
    let traced = List.map (run_query ~traced:true) order in
    let t0', pts' = Common.closed_loop ~speed ~seconds traced in
    let qps' = Common.slice_rate ~speed ~t0:t0' ~seconds (List.map fst pts') in
    let set = Layers.set layers in
    set "trace.overhead_frac" (1. -. Common.ratio qps' qps);
    set "setup.index_s" l.index_s;
    set "setup.bulkload_s" l.bulkload_s;
    set "setup.open_s" l.open_s;
    Layers.set_pager layers reads ~queries:nq;
    set "wal.read_fsyncs" reads.fsyncs;
    Layers.set_wal layers wal ~updates:(List.length upd.Side_updates.reports);
    Side_updates.report_layers layers upd;
    let entries_per_page, decode_us = codec_profile l.dbs in
    set "codec.entries_per_page" entries_per_page;
    set "codec.decode_us_per_page" decode_us;
    let items =
      List.map
        (fun (d, ast, _) ->
          { Engine_profile.storage = d.storage; ast; pinned = Some pushup; cold = true })
        expected
    in
    let tot = Engine_profile.measure items in
    Engine_profile.report layers items tot;
    (* Every page request decodes its page (hit or miss), so decoding
       costs requests x decode time of a query's latency. *)
    set "codec.decode_frac"
      (Common.ratio
         (float tot.Engine_profile.requests *. decode_us)
         (Common.us tot.Engine_profile.e2e));
    (* The same cold sequence over a v1 copy of the corpus, same pool
       size in pages. *)
    let v2_ms, v2_misses =
      cold_pass ~reps:5 (List.map (fun (d, ast, _) -> (d.storage, ast)) expected)
    in
    let v1 =
      List.map
        (fun d ->
          let path, _, _ = create ~codec:Blas_rel.Codec.V1 ~tag:"v1" d.ds in
          (d, (path, open_db ~pool_pages:d.pool_pages path)))
        l.dbs
    in
    let v1_ms, v1_misses =
      cold_pass ~reps:5 (List.map (fun (d, ast, _) -> (snd (List.assq d v1), ast)) expected)
    in
    List.iter (fun (_, (path, s)) -> Blas.Storage.close s; Common.remove_db path) v1;
    set "codec.v1_cold_ms" v1_ms;
    set "codec.v2_cold_ms" v2_ms;
    set "codec.v1_misses_per_query" v1_misses;
    set "codec.v2_misses_per_query" v2_misses
  end;
  Common.print_env ~args ~speed
    [ ("corpus_xml_bytes", string_of_int xml_bytes);
      ("storage", Common.json_string "disk v2, read-only");
      ("page_size", string_of_int page_size);
      ("file_pages", string_of_int (List.fold_left (fun a d -> a + d.file_pages) 0 l.dbs));
      ("pool_pages", string_of_int (List.fold_left (fun a d -> a + d.pool_pages) 0 l.dbs));
      ("fsync_policy",
       Common.json_string "queries: read-only, no fsync; update phase: fsync per commit");
      ("queries", string_of_int (List.length expected)) ];
  let end_to_end =
    Common.end_to_end ~speed ~setup_s ~qps ~queries:pts ~updates:upd.latencies ~tally
      ~space_ratio:(float file_bytes /. float xml_bytes)
  in
  release l;
  (tally, if args.trace then Layers.metrics layers else end_to_end)
