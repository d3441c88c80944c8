(* Batch workloads: Synth.run over a circuit set, one job after another,
   with the defaults `turbosyn map` runs (K = 5, jobs = 1,
   probe_jobs = 1). *)

open Prelude
module Synth = Turbosyn.Synth
module Netlist = Circuit.Netlist
module Label_engine = Seqmap.Label_engine

let options = Synth.default_options ()

type job = { algo : Synth.algo; nl : Netlist.t }

let name j = Netlist.name j.nl

(* circuits are generated once per distinct spec *)
let build ~seed specs =
  let made = Hashtbl.create 16 in
  List.map
    (fun (algo, (spec : Workloads.Suite.spec)) ->
      let nl =
        match Hashtbl.find_opt made spec.name with
        | Some nl -> nl
        | None ->
            let nl = Inputs.circuit ~seed spec in
            Hashtbl.add made spec.name nl;
            nl
      in
      { algo; nl })
    specs

(* what a result must reproduce on every pass, and what the identity
   guard compares *)
type outcome = {
  phi : Rat.t;
  clock_period : int;
  luts : int;
  blif : string;
}

let outcome_of (r : Synth.result) =
  {
    phi = r.phi;
    clock_period = r.clock_period;
    luts = r.luts;
    blif = Circuit.Blif.to_string r.mapped;
  }

let same a b =
  Rat.equal a.phi b.phi && a.clock_period = b.clock_period && a.luts = b.luts
  && String.equal a.blif b.blif

(* one job's untraced run: the result, or the exception it raised.  The
   heap is collected first, outside the timed region, so each job starts
   from a clean heap as it does in its own `turbosyn map` process, and
   no job pays for garbage an earlier one left. *)
let run_job j =
  Gc.full_major ();
  let t0 = Timer.wall () in
  let r = try Ok (Synth.run ~options j.algo j.nl) with e -> Error e in
  (r, Timer.wall () -. t0)

let pass jobs =
  let results = List.map run_job jobs in
  (results, List.fold_left (fun acc (_, s) -> acc +. s) 0. results)

(* Independent checks of one result, outside every timed region:
   simulation equivalence against the source for every result, and the
   audit verifier (which shares no label-engine code) for TurboSYN and
   TurboMap.  Returns the failures and the seconds each check took. *)
let check j (r : Synth.result) =
  let equiv_ok, equiv_s =
    Timer.time (fun () ->
        Sim.Equiv.mapped_equal (Rng.of_string ("equiv/" ^ name j)) j.nl r.mapped)
  in
  let audit, audit_s =
    match j.algo with
    | `Flowsyn_s -> (Ok (), 0.)
    | `Turbosyn | `Turbomap ->
        Timer.time (fun () ->
            match Audit.build ~source:j.nl ~options r with
            | Error e -> Error ("audit build: " ^ e)
            | Ok doc -> (
                match Audit.verify doc with
                | Error e -> Error ("audit verify: " ^ e)
                | Ok v when v.Audit.v_ok -> Ok ()
                | Ok v ->
                    Error
                      (String.concat "; "
                         (List.filter_map
                            (fun (c : Audit.check) ->
                              if c.c_ok then None
                              else Some (Printf.sprintf "audit %s: %s" c.c_name c.c_detail))
                            v.v_checks))))
  in
  let failures =
    (if equiv_ok then [] else [ "mapped netlist not equivalent to source" ])
    @ match audit with Ok () -> [] | Error e -> [ e ]
  in
  (failures, equiv_s, audit_s)

(* ------------------------------------------------------------------ *)
(* Staged replay: Synth.run through its public stages, each call timed *)
(* ------------------------------------------------------------------ *)

type stages = {
  mutable search : float;
  mutable final_label : float;
  mutable mapgen : float;
  mutable relax : float;
  mutable area : float;
  mutable realize : float;
  mutable flowsyn : float;
  self : (string, float) Hashtbl.t;  (** span self seconds *)
}

let new_stages () =
  {
    search = 0.;
    final_label = 0.;
    mapgen = 0.;
    relax = 0.;
    area = 0.;
    realize = 0.;
    flowsyn = 0.;
    self = Hashtbl.create 16;
  }

(* The timeline ring must hold every span activation of the longest
   stage, or self times would miss the dropped ones. *)
let timeline_capacity = 4_000_000

exception Timeline_overflow

(* run one stage with the wall time charged to [add]; the slices it
   recorded are folded into self times outside the timed region *)
let stage st add f =
  Obs.Timeline.clear ();
  let x, dt = Timer.time f in
  add dt;
  if Obs.Timeline.dropped () > 0 then raise Timeline_overflow;
  Hashtbl.iter
    (fun name s ->
      Hashtbl.replace st.self name
        (s +. Option.value ~default:0. (Hashtbl.find_opt st.self name)))
    (Stats.self_seconds ());
  Obs.Timeline.clear ();
  x

let replay st j =
  let o = options in
  let k = o.Synth.k in
  let post mapped =
    let mapped =
      if o.area_recovery then
        stage st (fun d -> st.area <- st.area +. d) (fun () -> Turbosyn.Area.reduce mapped ~k)
      else mapped
    in
    let period =
      stage st
        (fun d -> st.realize <- st.realize +. d)
        (fun () ->
          match Seqmap.Turbomap.realize_full mapped with
          | Some (_, p, _, _) -> p
          | None -> -1)
    in
    (mapped, period)
  in
  match j.algo with
  | `Flowsyn_s ->
      let mapped, report =
        stage st
          (fun d -> st.flowsyn <- st.flowsyn +. d)
          (fun () ->
            Flowmap.Flowsyn.map_sequential ~resynthesize:true ~cmax:o.cmax
              ~exhaustive:o.exhaustive ~jobs:o.jobs j.nl ~k)
      in
      let phi =
        match report.Flowmap.Flowsyn.mdr with
        | Graphs.Cycle_ratio.Ratio r -> r
        | No_cycle -> Rat.zero
        | Infinite -> Rat.of_int (-1)
      in
      let mapped, period = post mapped in
      (phi, mapped, period)
  | (`Turbosyn | `Turbomap) as algo ->
      let resynthesize = algo = `Turbosyn in
      Netlist.validate_exn ~k j.nl;
      let opts = Synth.engine_options o ~resynthesize in
      let cache = Label_engine.new_cache () in
      let cutmemo = Label_engine.new_cut_memo j.nl in
      let phi, _, _ =
        stage st
          (fun d -> st.search <- st.search +. d)
          (fun () ->
            Seqmap.Turbomap.minimum_ratio ~cache ~cutmemo
              ?phi_max_den:o.phi_max_den ~jobs:o.probe_jobs opts j.nl)
      in
      let impls =
        match
          stage st
            (fun d -> st.final_label <- st.final_label +. d)
            (fun () -> fst (Label_engine.run ~cache ~cutmemo opts j.nl ~phi))
        with
        | Label_engine.Feasible { impls; _ } -> impls
        | Label_engine.Infeasible -> failwith "final label run infeasible"
      in
      let mapped =
        stage st
          (fun d -> st.mapgen <- st.mapgen +. d)
          (fun () ->
            let m = Seqmap.Mapgen.generate j.nl ~impls in
            Netlist.validate_exn ~k m;
            m)
      in
      let mapped =
        if resynthesize && o.area_recovery then
          stage st
            (fun d -> st.relax <- st.relax +. d)
            (fun () -> fst (Turbosyn.Relax.relax j.nl ~impls ~phi))
        else mapped
      in
      let mapped, period = post mapped in
      (phi, mapped, period)

let stage_ledger st =
  let self n = Option.value ~default:0. (Hashtbl.find_opt st.self n) in
  [
    ("seqmap.search_s", st.search);
    ("seqmap.final_label_s", st.final_label);
    ("seqmap.mapgen_s", st.mapgen);
    ("core.relax_s", st.relax);
    ("core.area_s", st.area);
    ("retime.realize_s", st.realize);
    ("flowmap.flowsyn_s", st.flowsyn);
    ("label.decomp_s", self "label.decomp");
    ("label.scc_self_s", self "label.scc");
  ]

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

let setup_reps = 61

(* acyclic circuits (phi = 0) count as 1, the one-LUT-delay floor of the
   realizable clock period *)
let phi_value o = Float.max 1. (Rat.to_float o.phi)

let row j o seconds =
  Printf.sprintf "%-8s %-9s phi=%-6s period=%-3d luts=%-4d %.3fs" (name j)
    (Synth.algo_name j.algo) (Rat.to_string o.phi) o.clock_period o.luts seconds

(* Untraced run: passes over the job list (Stats.repeat).  The first
   pass's results are checked outside every timed region, and every
   later pass must reproduce their outcomes exactly.  Set-up is timed
   after the passes: timed first, it read up to nine times its usual
   value on some runs. *)
let untraced ~seed ~seconds ~unit_seconds specs =
  let jobs = build ~seed specs in
  let problems = ref [] and failed = ref 0 in
  let fail j msg =
    incr failed;
    problems := Printf.sprintf "%s/%s: %s" (name j) (Synth.algo_name j.algo) msg :: !problems
  in
  let firsts = Array.make (List.length jobs) None in
  (* each result is checked (first pass) or compared (later passes) as it
     lands and then dropped, so no pass holds more than one result *)
  let unit i =
    List.mapi
      (fun k j ->
        let r, seconds = run_job j in
        (match (r, firsts.(k)) with
        | Error e, _ -> fail j (Printexc.to_string e)
        | Ok r, None when i = 0 ->
            let failures, _, _ = check j r in
            if failures <> [] then fail j (String.concat "; " failures);
            firsts.(k) <- Some (outcome_of r)
        | Ok _, None -> fail j "first pass failed"
        | Ok r, Some o ->
            if not (same o (outcome_of r)) then fail j "result differs from the first pass");
        seconds)
      jobs
  in
  let passes = Stats.repeat ~unit_seconds ~seconds unit in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let setups =
    List.init setup_reps (fun _ -> snd (Timer.time (fun () -> build ~seed specs)))
  in
  let job_seconds =
    List.mapi (fun k _ -> Stats.minimum (List.map (fun p -> List.nth p k) passes)) jobs
  in
  let rows =
    List.concat
      (List.mapi
         (fun k j ->
           match firsts.(k) with
           | Some o -> [ row j o (List.nth job_seconds k) ]
           | None -> [])
         jobs)
  in
  let ok = List.filter_map Fun.id (Array.to_list firsts) in
  let sum f = float_of_int (List.fold_left (fun a o -> a + f o) 0 ok) in
  let compile_s = List.fold_left ( +. ) 0. job_seconds in
  let metrics =
    [
      ("compile_s", compile_s);
      ("peak_heap_mb", float_of_int (top_heap * (Sys.word_size / 8)) /. 1e6);
      ("phi_geomean", Stats.geomean (List.map phi_value ok));
      ("clock_period_sum", sum (fun o -> o.clock_period));
      ("luts_sum", sum (fun o -> o.luts));
      ("latency_p50_ms", 1e3 *. Stats.median job_seconds);
      ("latency_p99_ms", 1e3 *. Stats.percentile 0.99 job_seconds);
      ("throughput_rps", float_of_int (List.length jobs) /. compile_s);
      ("setup_s", Stats.median setups);
    ]
  in
  let notes =
    [
      Printf.sprintf
        "passes %d; seconds are each job's minimum over the passes; latency \
         percentiles over %d jobs"
        (List.length passes) (List.length jobs);
    ]
  in
  {
    Stats.rows = notes @ rows;
    metrics;
    attempted = List.length jobs * List.length passes;
    failed = !failed;
    problems = List.rev !problems;
  }

(* Traced run: an untraced reference pass (the overhead base), then the
   staged replay of every job with Obs collecting.  The replay must
   reproduce each reference result exactly (phi, clock period, BLIF), so
   the ledger describes the program the untraced run times. *)
let traced ~seed specs =
  let jobs = build ~seed specs in
  let g0 = Gc.quick_stat () in
  let reference, untraced_s = pass jobs in
  let g1 = Gc.quick_stat () in
  (* a job counts once in [failed], however many of its checks fail *)
  let problems = ref [] and failed = Hashtbl.create 8 in
  let fail j msg =
    let op = Printf.sprintf "%s/%s" (name j) (Synth.algo_name j.algo) in
    Hashtbl.replace failed op ();
    problems := (op ^ ": " ^ msg) :: !problems
  in
  let equiv_s = ref 0. and audit_s = ref 0. in
  List.iter2
    (fun j (r, _) ->
      match r with
      | Error e -> fail j (Printexc.to_string e)
      | Ok r ->
          let failures, e, a = check j r in
          equiv_s := !equiv_s +. e;
          audit_s := !audit_s +. a;
          if failures <> [] then fail j (String.concat "; " failures))
    jobs reference;
  Obs.reset ();
  Obs.Timeline.set_capacity timeline_capacity;
  Obs.set_enabled true;
  let st = new_stages () in
  let rows =
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled false;
        Obs.Timeline.clear ())
      (fun () ->
        List.map2
          (fun j (r, seconds) ->
            match r with
            | Error _ -> Printf.sprintf "%-8s %-9s failed" (name j) (Synth.algo_name j.algo)
            | Ok (r : Synth.result) ->
                (match replay st j with
                | phi, mapped, period ->
                    if
                      not
                        (same (outcome_of r)
                           {
                             phi;
                             clock_period = period;
                             luts = List.length (Netlist.gates mapped);
                             blif = Circuit.Blif.to_string mapped;
                           })
                    then fail j "staged replay differs from Synth.run"
                | exception Timeline_overflow ->
                    fail j "timeline ring overflowed; self times incomplete"
                | exception e -> fail j ("staged replay: " ^ Printexc.to_string e));
                row j (outcome_of r) seconds)
          jobs reference)
  in
  let stage_ledger = stage_ledger st in
  let traced_s =
    st.search +. st.final_label +. st.mapgen +. st.relax +. st.area
    +. st.realize +. st.flowsyn
  in
  let metrics =
    stage_ledger @ Stats.obs_ledger ()
    @ [
        ("gc.minor_mwords", (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
        ("gc.major_mwords", (g1.Gc.major_words -. g0.Gc.major_words) /. 1e6);
        ("sim.equiv_s", !equiv_s);
        ("audit.verify_s", !audit_s);
        ("obs.trace_overhead_ratio", Stats.ratio traced_s untraced_s);
      ]
  in
  {
    Stats.rows =
      Printf.sprintf "untraced %.3fs, traced staged replay %.3fs" untraced_s traced_s
      :: rows;
    metrics;
    attempted = List.length jobs;
    failed = Hashtbl.length failed;
    problems = List.rev !problems;
  }
