(* The benchmark program: one seeded workload per process.

     bench --workload <mem-engine|disk-cold|cluster-rw> --seed N
           --seconds S --trace <0|1>

   Untraced runs print the end-to-end metrics, traced runs the
   per-layer ones; the last line of stdout is the JSON result.  The run
   exits non-zero when any operation failed or answered wrongly. *)

let () =
  let args = Common.parse_args () in
  let tally, metrics =
    match args.workload with
    | "mem-engine" -> Mem_engine.run args
    | "disk-cold" -> Disk_cold.run args
    | "cluster-rw" -> Cluster_rw.run args
    | w -> failwith (Printf.sprintf "unknown workload %S; usage: %s" w Common.usage)
  in
  let correct = tally.Common.failed = 0 && tally.attempted > 0 in
  Common.print_result ~correct ~attempted:tally.attempted ~failed:tally.failed metrics;
  if not correct then exit 1
