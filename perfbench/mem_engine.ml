(* mem-engine: the paper's own experiment.  The nine Figure 10 queries
   plus the XMark skeletons over the three full-scale in-memory data
   sets, translator Auto2 (the optimizer picks translator and engine),
   query cache off, one client, queries parsed once at set-up.  Almost
   all the time goes to translation, the optimizer and the two engines;
   none to disk, codec, cache or wire. *)

type query = { qname : string; storage : Blas.Storage.t; ast : Blas_xpath.Ast.t }

type loaded = {
  queries : query list;
  xml_bytes : int;
  index_s : float;
  parse_s : float list;  (** per query string *)
  edit_doc : Blas.Storage.t;  (** the small document of the update phase *)
  edit_asts : Blas_xpath.Ast.t list;
}

let build () =
  let dss =
    [ Corpus.shakespeare ~plays:20; Corpus.protein ~entries:1600;
      Corpus.auction ~scale:160 () ]
  in
  let index_s = ref 0. and parse_s = ref [] in
  let queries =
    List.concat_map
      (fun (d : Corpus.dataset) ->
        let storage, dt = Common.timed (fun () -> Blas.index_of_tree d.ds_tree) in
        index_s := !index_s +. dt;
        List.map
          (fun (qname, qs) ->
            let ast, dt = Common.timed (fun () -> Blas.query qs) in
            parse_s := dt :: !parse_s;
            { qname; storage; ast })
          d.ds_queries)
      dss
  in
  let small = Corpus.shakespeare ~plays:Side_updates.plays in
  let edit_doc = Blas.index_of_tree small.ds_tree in
  { queries; xml_bytes = Corpus.xml_bytes dss; index_s = !index_s;
    parse_s = !parse_s; edit_doc;
    edit_asts = List.map (fun (_, qs) -> Blas.query qs) small.ds_queries }

let run (args : Common.args) =
  let speed = Common.Speed.create () in
  let l, setup_s =
    Common.repeated_setup ~speed ~reps:3 ~release:(fun _ -> ()) build
  in
  let tally = Common.tally () in
  let layers = Layers.create () in
  (* Oracle answers: outside set-up and the window. *)
  let expected = List.map (fun q -> (q, Blas.oracle q.storage q.ast)) l.queries in
  let rng = Blas_datagen.Rng.create ~seed:(Corpus.sub_seed args.seed 9) in
  (* A traced operation records its span tree in a fresh tracer, like a
     traced server request. *)
  let run_query ~traced (q, want) =
    Common.op @@ fun () ->
    let tracer =
      if traced then Blas_obs.Trace.create ~enabled:true () else Blas_obs.Trace.disabled
    in
    let r = Blas.run ~tracer q.storage ~engine:Blas.Rdbms ~translator:Blas.Auto2 q.ast in
    Common.record tally (r.Blas.starts = want)
  in
  (* Figure 10's queries run twice per cycle and the XMark skeletons
     once: the cycle then has an odd number of operations (23), so the
     median falls inside one query's latency distribution rather than
     in the gap between two (with 14 equally weighted queries it
     flipped between neighbours from run to run). *)
  let order =
    Common.shuffle rng
      (List.concat_map
         (fun ((q, _) as e) ->
           if List.mem_assoc q.qname Corpus.xmark_queries then [ e ] else [ e; e ])
         expected)
  in
  let ops = List.map (run_query ~traced:false) order in
  Common.settle ops;
  let live = Common.live_heap_bytes () in
  let seconds = if args.trace then args.seconds /. 2. else args.seconds in
  let gc0 = Layers.gc_mark () in
  let t0, pts = Common.closed_loop ~speed ~seconds ops in
  Layers.set_gc layers ~before:gc0 ~ops:(List.length pts);
  let qps = Common.slice_rate ~speed ~t0 ~seconds (List.map fst pts) in
  let upd =
    Side_updates.run ~speed ~seed:(Corpus.sub_seed args.seed 11) ~n:1000
      ~tally l.edit_doc
  in
  Side_updates.check_answers ~tally l.edit_doc l.edit_asts;
  if args.trace then begin
    let t0', pts' =
      Common.closed_loop ~speed ~seconds (List.map (run_query ~traced:true) order)
    in
    let qps' = Common.slice_rate ~speed ~t0:t0' ~seconds (List.map fst pts') in
    Layers.set layers "trace.overhead_frac" (1. -. Common.ratio qps' qps);
    Layers.set layers "parser.parse_us" (Common.us (Common.mean l.parse_s));
    Layers.set layers "setup.index_s" l.index_s;
    Side_updates.report_layers layers upd;
    let items =
      List.map
        (fun q -> { Engine_profile.storage = q.storage; ast = q.ast; pinned = None; cold = false })
        l.queries
    in
    Engine_profile.report layers items (Engine_profile.measure items)
  end;
  Common.print_env ~args ~speed
    [ ("corpus_xml_bytes", string_of_int l.xml_bytes);
      ("storage", Common.json_string "memory");
      ("fsync_policy", Common.json_string "n/a (in-memory)");
      ("queries", string_of_int (List.length l.queries)) ];
  ( tally,
    if args.trace then Layers.metrics layers
    else
      Common.end_to_end ~speed ~setup_s ~qps ~queries:pts ~updates:upd.latencies ~tally
        ~space_ratio:(live /. float l.xml_bytes) )
