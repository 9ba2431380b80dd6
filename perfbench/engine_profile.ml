(* The in-process per-layer split of a query mix, for traced runs: the
   benchmark times its own calls into the optimizer ([Optimizer.choose]),
   the translator ([plan_for] / [decompose]) and the engines
   ([run_analyze], whose operator tree carries the execution time), and
   reads the deterministic counts from [report.counters].  Each query
   is measured [reps] times; times are medians, counts come from one
   execution and repeat exactly. *)

type item = {
  storage : Blas.Storage.t;
  ast : Blas_xpath.Ast.t;
  pinned : (Blas.translator * Blas.engine) option;
      (** [None]: [Auto2] picks translator and engine *)
  cold : bool;  (** flush the buffer pool before every execution *)
}

let run_translator it = match it.pinned with Some (tr, _) -> tr | None -> Blas.Auto2

let of_kind_translator = function
  | Blas.Optimizer.Planner.Split -> Blas.Split
  | Blas.Optimizer.Planner.Pushup -> Blas.Pushup
  | Blas.Optimizer.Planner.Unfold -> Blas.Unfold

let of_kind_engine = function
  | Blas.Optimizer.Planner.Rdbms -> Blas.Rdbms
  | Blas.Optimizer.Planner.Twig -> Blas.Twig

type totals = {
  mutable choose : float;
  mutable plan : float;
  mutable exec_rdbms : float;
  mutable exec_twig : float;
  mutable e2e : float;
  mutable branches : int;
  mutable visited : int;
  mutable twig_visited : int;
  mutable djoins : int;
  mutable intermediate : int;
  mutable seeks : int;
  mutable requests : int;
  mutable misses : int;
  mutable qerrors : float list;
}

let med reps f = Common.median (List.init reps (fun _ -> snd (Common.timed f)))

(* Returns the totals over the mix (sums over items). *)
let measure ?(reps = 5) items =
  let tot =
    { choose = 0.; plan = 0.; exec_rdbms = 0.; exec_twig = 0.; e2e = 0.;
      branches = 0; visited = 0; twig_visited = 0; djoins = 0;
      intermediate = 0; seeks = 0; requests = 0; misses = 0; qerrors = [] }
  in
  List.iter
    (fun it ->
      let s = it.storage in
      let chill () = if it.cold then Blas.Storage.cold_cache s in
      let choice, (tr, engine) =
        match it.pinned with
        | Some p -> (None, p)
        | None ->
          let c = Blas.Optimizer.choose s it.ast in
          tot.choose <- tot.choose +. med reps (fun () -> Blas.Optimizer.choose s it.ast);
          ( Some c,
            ( of_kind_translator c.Blas.Optimizer.ch_translator,
              of_kind_engine c.Blas.Optimizer.ch_engine ) )
      in
      tot.branches <- tot.branches + List.length (Blas.decompose s tr it.ast);
      tot.plan <-
        tot.plan
        +. med reps (fun () ->
               match engine with
               | Blas.Rdbms -> ignore (Blas.plan_for s tr it.ast)
               | Blas.Twig -> ignore (Blas.decompose s tr it.ast));
      let exec_once () =
        chill ();
        let (report, root), _ =
          Common.timed (fun () ->
              Blas.run_analyze ~cache:false s ~engine ~translator:tr it.ast)
        in
        let exec_ns =
          List.fold_left
            (fun acc n -> Int64.add acc n.Blas_obs.Analyze.elapsed_ns)
            0L root.Blas_obs.Analyze.children
        in
        (report, Int64.to_float exec_ns /. 1e9)
      in
      let report, _ = exec_once () in
      let exec = Common.median (List.init reps (fun _ -> snd (exec_once ()))) in
      (match engine with
      | Blas.Rdbms -> tot.exec_rdbms <- tot.exec_rdbms +. exec
      | Blas.Twig ->
        tot.exec_twig <- tot.exec_twig +. exec;
        tot.twig_visited <- tot.twig_visited + report.Blas.visited);
      let c = report.Blas.counters in
      tot.visited <- tot.visited + report.Blas.visited;
      tot.djoins <- tot.djoins + report.Blas.plan_djoins;
      tot.intermediate <- tot.intermediate + c.Blas_rel.Counters.intermediate;
      tot.seeks <- tot.seeks + c.Blas_rel.Counters.index_seeks;
      tot.requests <- tot.requests + c.Blas_rel.Counters.page_requests;
      tot.misses <- tot.misses + c.Blas_rel.Counters.page_reads;
      Option.iter
        (fun ch ->
          tot.qerrors <-
            Layers.qerror ~est:ch.Blas.Optimizer.ch_est_cost
              ~actual:(Blas.actual_cost ~engine report)
            :: tot.qerrors)
        choice;
      tot.e2e <-
        tot.e2e
        +. Common.median
             (List.init reps (fun _ ->
                  chill ();
                  snd
                    (Common.timed (fun () ->
                         Blas.run ~cache:false s ~engine ~translator:(run_translator it)
                           it.ast)))))
    items;
  tot

(* Per-query figures into the layer table. *)
let report layers items tot =
  let n = float (max 1 (List.length items)) in
  let per x = float x /. n in
  let set = Layers.set layers in
  set "translate.plan_us" (Common.us tot.plan /. n);
  set "translate.branches" (per tot.branches);
  set "optimizer.choose_us" (Common.us tot.choose /. n);
  (match tot.qerrors with
  | [] -> ()
  | qs ->
    set "optimizer.qerror_p50" (Common.median qs);
    set "optimizer.qerror_max" (List.fold_left Float.max 0. qs));
  set "engine_rdbms.exec_ms" (Common.ms tot.exec_rdbms /. n);
  set "engine_twig.exec_ms" (Common.ms tot.exec_twig /. n);
  set "engine.visited" (per tot.visited);
  set "twig.visited" (per tot.twig_visited);
  set "engine.djoins" (per tot.djoins);
  set "engine.intermediate" (per tot.intermediate);
  set "engine.index_seeks" (per tot.seeks);
  set "buffer_pool.requests_per_query" (per tot.requests);
  set "buffer_pool.misses_per_query" (per tot.misses);
  set "buffer_pool.hit_ratio"
    (Common.ratio (float (tot.requests - tot.misses)) (float tot.requests));
  let layered = tot.choose +. tot.plan +. tot.exec_rdbms +. tot.exec_twig in
  set "trace.unattributed_frac" (Common.ratio (tot.e2e -. layered) tot.e2e)
