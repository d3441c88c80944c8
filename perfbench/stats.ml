(* Order statistics and the metric vocabulary shared by every workload. *)

let sorted xs = List.sort Float.compare xs

(* nearest-rank percentile, [p] in [0, 1] *)
let percentile p xs =
  match sorted xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs =
  match sorted xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean = function
  | [] -> 0.
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

let ratio num den = if den = 0. then 0. else num /. den

let minimum = function [] -> 0. | x :: xs -> List.fold_left Float.min x xs

(* A run makes max 2 (seconds / unit_seconds) repetitions of its unit: a
   pass over the jobs, or a round of the request stream.  [unit_seconds]
   is the workload's nominal unit time (Inputs.unit_seconds).  The count
   depends on --seconds alone, never on how fast the host ran, so every
   run of a workload takes the same samples.  A shared 2-vCPU VM slows
   down in bursts (one TurboMap job on s420 read 2.0 to 3.1 s over twelve
   back-to-back repetitions), so each job's time is its minimum over the
   repetitions: one burst cannot move it. *)
let repeat ~unit_seconds ~seconds unit =
  List.init (max 2 (int_of_float (seconds /. unit_seconds))) unit

(* The end-to-end metrics, printed by every untraced run.  error_rate is
   printed beside them but is not listed in BENCHMARK.json: it is 0 on a
   correct run, and the same figure travels as the result line's
   failed/attempted. *)
let end_to_end =
  [
    ("compile_s", "s");
    ("peak_heap_mb", "MB");
    ("phi_geomean", "ratio");
    ("clock_period_sum", "count");
    ("luts_sum", "count");
    ("latency_p50_ms", "ms");
    ("throughput_rps", "1/s");
    ("setup_s", "s");
  ]

(* Printed after the end-to-end metrics but not listed in BENCHMARK.json,
   so no bound applies.  latency_p99_ms rests on a single job (the slowest
   of a batch) or a round's ten slowest requests, and across ten runs of
   the same code it spread up to 0.26, past the largest bound of 0.25,
   while compile_s spread 0.21. *)
let ungated = [ ("latency_p99_ms", "ms") ]

(* The per-layer ledger, printed by every traced run.  A layer the
   workload does not exercise reads 0 (no serve requests in a batch
   workload, no staged stage calls inside the server). *)
let per_layer =
  [
    (* decomp: resynthesis *)
    ("label.decomp_s", "s");
    ("label.resyn_eval_s", "s");
    ("label.decompose_call_s", "s");
    ("label.decomp_attempts", "count");
    ("label.resyn_cache_hits", "count");
    ("decomp.calls", "count");
    ("decomp.successes", "count");
    ("decomp.success_ratio", "ratio");
    ("decomp.bdd_peak_nodes", "count");
    (* seqmap: ratio search and labels *)
    ("seqmap.search_s", "s");
    ("seqmap.final_label_s", "s");
    ("search.probes", "count");
    ("search.infeasible_probes", "count");
    ("label.iterations", "count");
    ("label.worklist_pushes", "count");
    ("label.scc_self_s", "s");
    ("pld.checks", "count");
    ("pld.prunes", "count");
    (* flow: cut tests, with seqmap expansion *)
    ("label.flow_test_s", "s");
    ("label.cut_tests", "count");
    ("maxflow.networks", "count");
    ("maxflow.augmenting_paths", "count");
    ("cut.memo_hits", "count");
    ("cut.memo_misses", "count");
    ("cut.memo_hit_ratio", "ratio");
    ("label.expand_build_s", "s");
    ("expand.builds", "count");
    ("expand.nodes", "count");
    (* post-passes *)
    ("core.relax_s", "s");
    ("core.area_s", "s");
    ("seqmap.mapgen_s", "s");
    ("retime.realize_s", "s");
    (* flowmap *)
    ("flowmap.flowsyn_s", "s");
    (* memory *)
    ("gc.minor_mwords", "Mwords");
    ("gc.major_mwords", "Mwords");
    (* serve, netlist, workloads *)
    ("serve.hit_p50_ms", "ms");
    ("serve.hit_p99_ms", "ms");
    ("netlist.canon_ms", "ms");
    ("workloads.build_ms", "ms");
    ("serve.http_overhead_ms", "ms");
    ("serve.miss_p50_ms", "ms");
    ("serve.miss_p99_ms", "ms");
    ("serve.queue_wait_p99_ms", "ms");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.cache_misses", "count");
    (* checks and tracing overhead *)
    ("sim.equiv_s", "s");
    ("audit.verify_s", "s");
    ("obs.trace_overhead_ratio", "ratio");
  ]

(* Obs counters read verbatim into the ledger *)
let obs_counters =
  [
    "label.decomp_attempts";
    "label.resyn_cache_hits";
    "decomp.calls";
    "decomp.successes";
    "decomp.bdd_peak_nodes";
    "search.probes";
    "search.infeasible_probes";
    "label.iterations";
    "label.worklist_pushes";
    "pld.checks";
    "pld.prunes";
    "label.cut_tests";
    "maxflow.networks";
    "maxflow.augmenting_paths";
    "cut.memo_hits";
    "cut.memo_misses";
    "expand.builds";
    "expand.nodes";
  ]

let counter name = float_of_int (Option.value ~default:0 (Obs.Counter.find name))

(* the Obs-derived part of the ledger: counters, the ratios over them,
   and span totals read from the stats report *)
let obs_ledger () =
  let spans = Obs.Report.spans_json () in
  let span_seconds name =
    match Obs.Json.member name spans with
    | Some s -> (
        match Obs.Json.member "seconds" s with
        | Some (Obs.Json.Float f) -> f
        | Some (Obs.Json.Int i) -> float_of_int i
        | _ -> 0.)
    | None -> 0.
  in
  List.map (fun n -> (n, counter n)) obs_counters
  @ [
      ("decomp.success_ratio", ratio (counter "decomp.successes") (counter "decomp.calls"));
      ( "cut.memo_hit_ratio",
        ratio (counter "cut.memo_hits")
          (counter "cut.memo_hits" +. counter "cut.memo_misses") );
      ("label.resyn_eval_s", span_seconds "label.resyn_eval");
      ("label.decompose_call_s", span_seconds "label.decompose_call");
      ("label.flow_test_s", span_seconds "label.flow_test");
      ("label.expand_build_s", span_seconds "label.expand_build");
    ]

(* Self seconds per span name over the timeline ring (duration minus the
   direct children, nesting recovered from interval containment). *)
let self_seconds () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (stack, self) ->
      let leaf =
        match String.rindex_opt stack ';' with
        | Some i -> String.sub stack (i + 1) (String.length stack - i - 1)
        | None -> stack
      in
      Hashtbl.replace tbl leaf
        (self +. Option.value ~default:0. (Hashtbl.find_opt tbl leaf)))
    (Obs.Flame.fold_slices (Obs.Timeline.slices ()));
  tbl

(* what one run reports: human-readable rows, metrics by name (units
   come from the vocabularies above), and the operations checked *)
type report = {
  rows : string list;
  metrics : (string * float) list;
  attempted : int;
  failed : int;  (** operations with at least one failed check *)
  problems : string list;
}
