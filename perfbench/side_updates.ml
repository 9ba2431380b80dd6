(* The update phase of the read-only workloads.  Every run reports
   update latency, so mem-engine and disk-cold apply a fixed seeded edit
   script after their query window, on the workload's own kind of
   storage.  The queries are finished by then, so no update cost or
   fsync enters the read figures.

   [target] receives the edits (timed).  When [shadow] is given (the
   disk case), edits are chosen on it, applied to it untimed, and each
   target report must agree with the shadow's on the storage-independent
   fields. *)

let same_labels (a : Blas.Update.report) (b : Blas.Update.report) =
  a.nodes_inserted = b.nodes_inserted
  && a.nodes_deleted = b.nodes_deleted
  && a.nodes_relabeled = b.nodes_relabeled
  && a.plabels_allocated = b.plabels_allocated

type result = {
  latencies : (float * float) list;  (** (completion stamp, seconds) per edit *)
  reports : Blas.Update.report list;
  wal_growth : int list;  (** WAL bytes each edit added (disk targets) *)
}

let run ~speed ~seed ~n ~tally ?shadow target =
  let script = Edits.create ~seed in
  let chooser = Option.value shadow ~default:target in
  let lat = ref [] and reports = ref [] and wal = ref [] in
  let wal_bytes () =
    Option.map (fun d -> d.Blas.Storage.dk_wal_bytes ()) (Blas.Storage.disk target)
  in
  for _ = 1 to n do
    Common.Speed.tick speed;
    let w0 = wal_bytes () in
    let e = Edits.choose script chooser in
    let outcome, dt =
      Common.timed (fun () ->
          match Edits.apply target e with
          | r -> Some r
          | exception Invalid_argument _ -> None)
    in
    let ok =
      match (outcome, shadow) with
      | None, _ -> false
      | Some r, None -> reports := r :: !reports; true
      | Some r, Some sh ->
        reports := r :: !reports;
        same_labels r (Edits.apply sh e)
    in
    Edits.applied script chooser e;
    (* A checkpoint empties the WAL; such edits give no sample. *)
    (match (w0, wal_bytes ()) with
    | Some a, Some b when b >= a -> wal := (b - a) :: !wal
    | _ -> ());
    Common.record tally ok;
    lat := (Common.now (), dt) :: !lat
  done;
  { latencies = !lat; reports = !reports; wal_growth = !wal }

(* Edit cost grows with the document, so the phase edits a small
   Shakespeare document of this many plays. *)
let plays = 1

(* The update-engine layer: median apply time, relabeled nodes and
   pages written per edit. *)
let set_update_layers layers ~apply_s ~reports =
  let n = float (max 1 (List.length reports)) in
  let per f = float (List.fold_left (fun acc r -> acc + f r) 0 reports) /. n in
  Layers.set layers "update.apply_ms" (Common.ms (Common.median apply_s));
  Layers.set layers "update.relabeled_nodes" (per (fun r -> r.Blas.Update.nodes_relabeled));
  Layers.set layers "update.pages_written" (per (fun r -> r.Blas.Update.pages_written))

let report_layers layers res =
  set_update_layers layers ~apply_s:(List.map snd res.latencies) ~reports:res.reports;
  if res.wal_growth <> [] then
    Layers.set layers "wal.bytes_per_update"
      (Common.mean (List.map float res.wal_growth))

(* Engine answers on the edited storage must still be the oracle's. *)
let check_answers ~tally ?(reference : Blas.Storage.t option) storage asts =
  let reference = Option.value reference ~default:storage in
  List.iter
    (fun ast ->
      Common.record tally
        ((Blas.run ~cache:false storage ~engine:Blas.Rdbms ~translator:Blas.Pushup ast)
           .Blas.starts
        = Blas.oracle reference ast))
    asts
