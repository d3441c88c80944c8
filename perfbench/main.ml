(* The repository benchmark.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Workloads: turbosyn-resyn, baselines-table1, serve-mix (NOTES.md).
   --trace 0 times the program with Obs off and prints the end-to-end
   metrics; --trace 1 prints the per-layer ledger.  Every output is
   checked; the last stdout line is the JSON result, and the exit code
   is 1 when any check failed. *)

let usage =
  "main.exe --workload turbosyn-resyn|baselines-table1|serve-mix [--seed N] \
   [--seconds S] [--trace 0|1]"

let () =
  let workload = ref "" and seed = ref Perfbench.Inputs.default_seed in
  let seconds = ref 30. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_string seed, " input seed (0 = the Table-1 circuits)");
      ("--seconds", Arg.Set_float seconds, " measuring time per run");
      ("--trace", Arg.Set_int trace, " 1 = per-layer ledger");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let traced = !trace = 1 in
  let report =
    match (!workload, Perfbench.Inputs.batch_jobs !workload) with
    | _, Some specs ->
        if traced then Perfbench.Batch.traced ~seed:!seed specs
        else
          Perfbench.Batch.untraced ~seed:!seed ~seconds:!seconds
            ~unit_seconds:(Perfbench.Inputs.unit_seconds !workload) specs
    | "serve-mix", None ->
        if traced then Perfbench.Serve_mix.traced ~seed:!seed
        else Perfbench.Serve_mix.untraced ~seed:!seed ~seconds:!seconds
    | w, None ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  let open Perfbench.Stats in
  Printf.printf "perfbench %s seed=%s trace=%d nproc=%d ocaml=%s\n" !workload !seed
    !trace (Domain.recommended_domain_count ()) Sys.ocaml_version;
  List.iter print_endline report.rows;
  let vocabulary = if traced then per_layer else end_to_end in
  let value name = Option.value ~default:0. (List.assoc_opt name report.metrics) in
  List.iter
    (fun (name, unit_) -> Printf.printf "%-26s %14.6f %s\n" name (value name) unit_)
    vocabulary;
  if not traced then
    List.iter
      (fun (name, unit_) ->
        Printf.printf "%-26s %14.6f %s (not in BENCHMARK.json)\n" name (value name) unit_)
      ungated;
  let error_rate = ratio (float_of_int report.failed) (float_of_int report.attempted) in
  Printf.printf "%-26s %14.6f ratio (%d of %d operations failed)\n" "error_rate" error_rate
    report.failed report.attempted;
  List.iter (fun p -> print_endline ("FAILED " ^ p)) report.problems;
  let correct = report.failed = 0 in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool correct);
            ("attempted", Obs.Json.Int report.attempted);
            ("failed", Obs.Json.Int report.failed);
            ( "metrics",
              Obs.Json.Obj
                (List.map
                   (fun (name, unit_) ->
                     ( name,
                       Obs.Json.Obj
                         [ ("value", Obs.Json.Float (value name)); ("unit", Obs.Json.Str unit_) ] ))
                   vocabulary) );
          ]));
  exit (if correct then 0 else 1)
