(* The benchmark's own checks:

   - the same seed gives the same inputs (circuit BLIF, request stream
     hash);
   - the default seed reproduces Workloads.Suite.build byte for byte;
     another seed declares the same circuits in another order (same
     Canon.digest, different BLIF) and draws another request stream;
   - every count-valued per-layer metric repeats exactly across two
     traced runs, and the staged replay reproduces Synth.run;
   - BENCHMARK.json, when its path is given, names exactly the metrics
     the runs print.

   Run with `python3 perfbench/run.py --selftest` (about two minutes on a
   2-core host); exits 1 when any check failed. *)

open Perfbench

let failures = ref 0

let expect what ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let blif ~seed spec = Circuit.Blif.to_string (Inputs.circuit ~seed spec)

let inputs () =
  List.iter
    (fun (spec : Workloads.Suite.spec) ->
      let suite = Workloads.Suite.build spec in
      expect
        (Printf.sprintf "seed 7 reproduces %s" spec.name)
        (String.equal (blif ~seed:"7" spec) (blif ~seed:"7" spec));
      expect
        (Printf.sprintf "default seed is Suite.build on %s" spec.name)
        (String.equal (blif ~seed:Inputs.default_seed spec) (Circuit.Blif.to_string suite));
      expect
        (Printf.sprintf "seed 7 redeclares %s" spec.name)
        (not (String.equal (blif ~seed:"7" spec) (Circuit.Blif.to_string suite)));
      let nl = Inputs.circuit ~seed:"7" spec in
      expect
        (Printf.sprintf "seed 7 keeps the structure of %s" spec.name)
        (Circuit.Netlist.validate nl = []
        && Circuit.Canon.digest nl = Circuit.Canon.digest suite))
    Workloads.Suite.table1;
  let hash seed = Inputs.stream_hash (Inputs.stream ~seed) in
  expect "seed 7 reproduces the request stream" (hash "7" = hash "7");
  expect "seeds 7 and 8 draw different request streams" (hash "7" <> hash "8");
  expect "the stream asks for every serve key"
    (let s = Inputs.stream ~seed:"7" in
     List.for_all (fun k -> Array.mem k s) Inputs.serve_keys)

let counts (report : Stats.report) =
  List.filter_map
    (fun (name, unit_) ->
      if unit_ = "count" then
        Some (name, Option.value ~default:0. (List.assoc_opt name report.metrics))
      else None)
    Stats.per_layer

let repeat what run =
  let a = run () and b = run () in
  expect (what ^ ": traced runs pass every check") (a.Stats.failed = 0 && b.Stats.failed = 0);
  List.iter2
    (fun (name, x) (_, y) ->
      expect (Printf.sprintf "%s: %s repeats (%.0f, %.0f)" what name x y) (x = y))
    (counts a) (counts b)

(* BENCHMARK.json must name exactly the metrics the runs print, with the
   same units *)
let manifest path =
  let metrics key json =
    match Obs.Json.member key json with
    | Some (Obs.Json.List l) ->
        List.filter_map
          (fun m ->
            match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
            | Some (Obs.Json.Str n), Some (Obs.Json.Str u) -> Some (n, u)
            | _ -> None)
          l
    | _ -> []
  in
  match Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Error e -> expect (path ^ " parses: " ^ e) false
  | Ok json ->
      expect (path ^ " lists the end-to-end metrics") (metrics "end_to_end" json = Stats.end_to_end);
      expect (path ^ " lists the per-layer metrics") (metrics "per_layer" json = Stats.per_layer)

let () =
  if Array.length Sys.argv > 1 then manifest Sys.argv.(1);
  inputs ();
  let spec = Inputs.spec in
  repeat "batch"
    (fun () ->
      Batch.traced ~seed:"7"
        [ (`Turbosyn, spec "bbara"); (`Turbomap, spec "s298"); (`Flowsyn_s, spec "cse") ]);
  repeat "serve-mix" (fun () -> Serve_mix.traced ~seed:"7");
  if !failures > 0 then begin
    Printf.printf "%d self-test check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "all self-test checks passed"
