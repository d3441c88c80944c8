(* serve-mix: an in-process Serve.Server with default settings and a
   fresh cache per round, driven by a closed loop of one client
   connection (the caller, like a build script, waits for its mapping
   before sending the next request).  Hits pay HTTP parsing, Suite.build
   and Canon.digest, so p50 tracks the hit path; misses set p99.

   One connection, not two: with two, a hit mostly waited for the other
   connection's request on the single worker (p50 3.0 ms against 1.1 ms
   alone, measured in alternating rounds), and that queueing amplified
   every slowdown of the host (round medians moved by about twice as much
   as round times), where one connection's median moved less than its
   round time. *)

open Prelude

let clients = 1

(* ------------------------------------------------------------------ *)
(* HTTP client: one request per connection, as the server answers      *)
(* ------------------------------------------------------------------ *)

let http ~port ~meth ~path ?(headers = []) body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Bytes.of_string
          (Printf.sprintf
             "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: \
              application/json\r\nContent-Length: %d\r\n%sConnection: \
              close\r\n\r\n%s"
             meth path (String.length body)
             (String.concat ""
                (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers))
             body)
      in
      let rec send off =
        if off < Bytes.length req then
          send (off + Unix.write fd req off (Bytes.length req - off))
      in
      send 0;
      let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
      let rec recv () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          recv ()
        end
      in
      recv ();
      Buffer.contents buf)

let status resp =
  match String.split_on_char ' ' resp with
  | _ :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
  | _ -> 0

let split resp =
  let rec find i =
    if i + 3 >= String.length resp then None
    else if String.sub resp i 4 = "\r\n\r\n" then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i -> (String.sub resp 0 i, String.sub resp (i + 4) (String.length resp - i - 4))
  | None -> (resp, "")

let header name head =
  String.split_on_char '\n' head
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.lowercase_ascii (String.sub line 0 i) = name ->
             Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)

(* ------------------------------------------------------------------ *)
(* One round: boot, replay the stream, stop                            *)
(* ------------------------------------------------------------------ *)

type obs = {
  index : int;
  id : string;
  code : int;
  cache : string option;  (** X-Cache marker *)
  echoed : bool;
  digest : Digest.t;  (** of the response body *)
  miss_body : string option;
      (** the body itself, kept only for misses: the repeats are checked
          by digest against it, so the run does not hold every body *)
  seconds : float;  (** client-side *)
}

type server_side = {
  srv_seconds : float;
  queue_wait : float;
  minor_words : float;  (** allocated by the request on its worker *)
  major_words : float;
}

type round = {
  observations : obs array;  (** by stream index *)
  elapsed : float;
  server : (string, server_side) Hashtbl.t;
      (** joined from /debug/requests (traced rounds only) *)
}

let boot () =
  let server = Serve.Server.create () in
  let dom = Domain.spawn (fun () -> Serve.Server.run server) in
  (server, dom)

let shutdown (server, dom) =
  Serve.Server.stop server;
  Domain.join dom

let float_member name j =
  match Obs.Json.member name j with
  | Some (Obs.Json.Float f) -> Some f
  | Some (Obs.Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* the recent-request ring holds 256 entries, so a traced round polls it
   while the load runs and keeps every /map entry it sees *)
let poll_ring ~port tbl =
  let resp = try http ~port ~meth:"GET" ~path:"/debug/requests" "" with Unix.Unix_error _ -> "" in
  match Obs.Json.of_string (snd (split resp)) with
  | Ok doc -> (
      match Obs.Json.member "requests" doc with
      | Some (Obs.Json.List rs) ->
          List.iter
            (fun r ->
              match (Obs.Json.member "id" r, float_member "seconds" r) with
              | Some (Obs.Json.Str id), Some s ->
                  let resource name =
                    Option.bind (Obs.Json.member "resources" r) (float_member name)
                    |> Option.value ~default:0.
                  in
                  Hashtbl.replace tbl id
                    {
                      srv_seconds = s;
                      queue_wait = resource "queue_wait_seconds";
                      minor_words = resource "minor_words";
                      major_words = resource "major_words";
                    }
              | _ -> ())
            rs
      | _ -> ())
  | Error _ -> ()

let round ?(trace = false) ~tag reqs =
  let ((server, _) as srv) = boot () in
  let port = Serve.Server.port server in
  let n = Array.length reqs in
  let results = Array.make n None in
  let tbl = Hashtbl.create 2048 in
  let done_ = Atomic.make 0 in
  let t0 = Timer.wall () in
  let client c =
    let i = ref c in
    while !i < n do
      let id = Printf.sprintf "pb-%s-%d" tag !i in
      let t = Timer.wall () in
      (* a request that cannot complete reads as status 0, a failure *)
      let resp =
        try
          http ~port ~meth:"POST" ~path:"/map"
            ~headers:[ ("X-Request-Id", id) ]
            (Inputs.request_body reqs.(!i))
        with Unix.Unix_error _ -> ""
      in
      let seconds = Timer.wall () -. t in
      let head, body = split resp in
      results.(!i) <-
        Some
          {
            index = !i;
            id;
            code = status resp;
            cache = header "x-cache" head;
            echoed = header "x-request-id" head = Some id;
            digest = Digest.string body;
            miss_body = (if header "x-cache" head = Some "miss" then Some body else None);
            seconds;
          };
      i := !i + clients
    done;
    Atomic.incr done_
  in
  let threads = List.init clients (fun c -> Thread.create client c) in
  if trace then
    while Atomic.get done_ < clients do
      poll_ring ~port tbl;
      Thread.delay 0.1
    done;
  List.iter Thread.join threads;
  let elapsed = Timer.wall () -. t0 in
  if trace then poll_ring ~port tbl;
  shutdown srv;
  {
    observations = Array.map Option.get results;
    elapsed;
    server = tbl;
  }

(* ------------------------------------------------------------------ *)
(* Checks and metrics                                                  *)
(* ------------------------------------------------------------------ *)

let key (r : Inputs.request) =
  Printf.sprintf "%s/%s/k%d" r.circuit (Turbosyn.Synth.algo_name r.algo) r.k

(* direct renderings of every distinct key, the oracle for the served
   bodies: exactly what the server writes, computed without it *)
let direct reqs =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (r : Inputs.request) ->
      if not (Hashtbl.mem tbl (key r)) then
        Hashtbl.add tbl (key r)
          (match Serve.Server.map_response ~circuit:r.circuit ~k:r.k ~algo:r.algo with
          | Ok doc -> Ok (Obs.Json.to_string doc ^ "\n")
          | Error e -> Error e))
    reqs;
  tbl

(* every request must succeed, echo its id, carry a cache marker and
   answer the direct body; each round must miss exactly once per
   distinct key *)
let check reqs oracle rounds =
  let problems = ref [] and failed = ref 0 in
  let distinct = Hashtbl.length oracle in
  List.iteri
    (fun ri rd ->
      let misses = ref 0 in
      Array.iter
        (fun o ->
          let r = reqs.(o.index) in
          let bad msg =
            incr failed;
            problems := Printf.sprintf "round %d request %d (%s): %s" ri o.index (key r) msg :: !problems
          in
          if o.cache = Some "miss" then incr misses;
          if o.code <> 200 then bad (Printf.sprintf "status %d" o.code)
          else if not o.echoed then bad "request id not echoed"
          else if o.cache <> Some "hit" && o.cache <> Some "miss" then bad "no X-Cache marker"
          else
            match Hashtbl.find oracle (key r) with
            | Ok body
              when Digest.equal (Digest.string body) o.digest
                   && Option.fold ~none:true ~some:(String.equal body) o.miss_body ->
                ()
            | Ok _ -> bad "body differs from the direct map_response"
            | Error e -> bad ("direct map_response failed: " ^ e))
        rd.observations;
      if !misses <> distinct then begin
        incr failed;
        problems :=
          Printf.sprintf "round %d: %d misses for %d distinct keys" ri !misses distinct
          :: !problems
      end)
    rounds;
  (!failed, List.rev !problems)

let qor oracle =
  let docs =
    Hashtbl.fold
      (fun _ b acc ->
        match b with
        | Ok body -> ( match Obs.Json.of_string body with Ok d -> d :: acc | Error _ -> acc)
        | Error _ -> acc)
      oracle []
  in
  let int_of name d = match Obs.Json.member name d with Some (Obs.Json.Int i) -> i | _ -> 0 in
  let phi d =
    match Obs.Json.member "phi" d with
    | Some (Obs.Json.Str s) -> (
        match String.split_on_char '/' s with
        | [ a ] -> float_of_string a
        | [ a; b ] -> float_of_string a /. float_of_string b
        | _ -> 1.)
    | _ -> 1.
  in
  [
    ("phi_geomean", Stats.geomean (List.map (fun d -> Float.max 1. (phi d)) docs));
    ("clock_period_sum", float_of_int (List.fold_left (fun a d -> a + int_of "clock_period" d) 0 docs));
    ("luts_sum", float_of_int (List.fold_left (fun a d -> a + int_of "luts" d) 0 docs));
  ]

let setup_reps = 61

(* set-up: server boot plus building the request stream, timed after the
   rounds like the batch workloads' set-up (Batch.untraced) *)
let setup_seconds ~seed =
  Stats.median
    (List.init setup_reps (fun _ ->
         snd
           (Timer.time (fun () ->
                let srv = boot () in
                ignore (Inputs.stream ~seed);
                shutdown srv))))

(* Each round starts from a collected heap, so a round does not pay for
   the previous one's garbage. *)
let untraced ~seed ~seconds =
  Obs.Log.to_null ();
  let reqs = Inputs.stream ~seed in
  let rounds =
    Stats.repeat ~unit_seconds:(Inputs.unit_seconds "serve-mix") ~seconds (fun i ->
        Gc.full_major ();
        round ~tag:(string_of_int i) reqs)
  in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let setup_s = setup_seconds ~seed in
  let oracle = direct reqs in
  let failed, problems = check reqs oracle rounds in
  let latencies rd = Array.to_list (Array.map (fun o -> o.seconds) rd.observations) in
  (* each percentile is the lower of the rounds' own, as compile_s is the
     faster round: a round's percentiles follow how fast the host ran
     during it (medians of 1.2 to 2.2 ms over twelve rounds) *)
  let lower stat = Stats.minimum (List.map (fun rd -> stat (latencies rd)) rounds) in
  let compile_s = Stats.minimum (List.map (fun rd -> rd.elapsed) rounds) in
  let metrics =
    [
      ("compile_s", compile_s);
      ("peak_heap_mb", float_of_int (top_heap * (Sys.word_size / 8)) /. 1e6);
    ]
    @ qor oracle
    @ [
        ("latency_p50_ms", 1e3 *. lower Stats.median);
        ("latency_p99_ms", 1e3 *. lower (Stats.percentile 0.99));
        ("throughput_rps", float_of_int (Array.length reqs) /. compile_s);
        ("setup_s", setup_s);
      ]
  in
  {
    Stats.rows =
      [
        Printf.sprintf "rounds %d of %d requests (%d distinct keys, %d clients); \
                        percentiles are the lower round's"
          (List.length rounds) (Array.length reqs) (Hashtbl.length oracle) clients;
      ];
    metrics;
    attempted = List.length rounds * Array.length reqs + List.length rounds;
    failed;
    problems;
  }

let ms xs = List.map (fun s -> 1e3 *. s) xs

let traced ~seed =
  Obs.Log.to_null ();
  let reqs = Inputs.stream ~seed in
  let base = round ~tag:"base" reqs in
  Obs.reset ();
  Obs.set_enabled true;
  let rd =
    Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () -> round ~trace:true ~tag:"traced" reqs)
  in
  let ledger = Stats.obs_ledger () in
  let oracle = direct reqs in
  let failed, problems = check reqs oracle [ base; rd ] in
  let obs = Array.to_list rd.observations in
  let by marker = List.filter (fun o -> o.cache = Some marker) obs in
  let lat l = List.map (fun o -> o.seconds) l in
  let joined = List.filter_map (fun o -> Option.map (fun s -> (o, s)) (Hashtbl.find_opt rd.server o.id)) obs in
  (* the hit path outside HTTP, timed directly on the stream's circuits *)
  let build_s = ref [] and canon_s = ref [] in
  Array.iter
    (fun (r : Inputs.request) ->
      let nl, b = Timer.time (fun () -> Workloads.Suite.build (Inputs.spec r.circuit)) in
      let _, c = Timer.time (fun () -> Circuit.Canon.digest nl) in
      build_s := b :: !build_s;
      canon_s := c :: !canon_s)
    reqs;
  let words f = List.fold_left (fun a (_, s) -> a +. f s) 0. joined /. 1e6 in
  let hits = List.length (by "hit") and misses = List.length (by "miss") in
  let metrics =
    ledger
    @ [
        ("serve.hit_p50_ms", Stats.median (ms (lat (by "hit"))));
        ("serve.hit_p99_ms", Stats.percentile 0.99 (ms (lat (by "hit"))));
        ("serve.miss_p50_ms", Stats.median (ms (lat (by "miss"))));
        ("serve.miss_p99_ms", Stats.percentile 0.99 (ms (lat (by "miss"))));
        ( "serve.queue_wait_p99_ms",
          Stats.percentile 0.99 (ms (List.map (fun (_, s) -> s.queue_wait) joined)) );
        ( "serve.http_overhead_ms",
          Stats.median (ms (List.map (fun (o, s) -> o.seconds -. s.srv_seconds) joined)) );
        ("serve.cache_hit_ratio", Stats.ratio (float_of_int hits) (float_of_int (hits + misses)));
        ("serve.cache_misses", float_of_int misses);
        ("netlist.canon_ms", 1e3 *. Stats.median !canon_s);
        ("workloads.build_ms", 1e3 *. Stats.median !build_s);
        ("gc.minor_mwords", words (fun s -> s.minor_words));
        ("gc.major_mwords", words (fun s -> s.major_words));
        ("obs.trace_overhead_ratio", Stats.ratio rd.elapsed base.elapsed);
      ]
  in
  let lost = List.length obs - List.length joined in
  {
    Stats.rows =
      [
        Printf.sprintf "untraced round %.3fs, traced round %.3fs; %d hits, %d misses; \
                        %d of %d requests joined to /debug/requests"
          base.elapsed rd.elapsed hits misses (List.length joined) (List.length obs);
      ];
    metrics;
    attempted = (2 * Array.length reqs) + 2 + 1;
    failed = failed + (if lost > 0 then 1 else 0);
    problems =
      (problems
      @ if lost > 0 then [ Printf.sprintf "%d requests missing from /debug/requests" lost ] else []);
  }
