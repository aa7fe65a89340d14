(* The repository benchmark: four workloads over the public library API,
   end-to-end metrics from untraced passes, per-layer metrics from traced
   passes, and correctness checks outside every timed region.

   Usage (from the repository root, normally through run.sh):
     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--record-expected]

   The last line of standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   The exit code is non-zero when any correctness check failed.

   The seed reaches only the input generators (Comm_system parameters and
   generator seeds); the library under test receives only the generated
   specifications, or their DSL text for serve-mix.  Every synthesis runs
   with jobs = 1. *)

module C = Crusade.Crusade_core
module R = C.Resynth
module F = Crusade_fault.Ft
module W = Crusade_workloads.Comm_system
module Trace = Crusade_util.Trace
module Vec = Crusade_util.Vec
module Spec = Crusade_taskgraph.Spec
module Dsl = Crusade_taskgraph.Dsl
module Arch = Crusade_alloc.Arch
module Clustering = Crusade_cluster.Clustering
module Schedule = Crusade_sched.Schedule
module Merge = Crusade_reconfig.Merge
module Server = Crusade_serve.Server
module Json = Crusade_serve.Json

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Processor time, the paper's own measure: unlike wall time it leaves
   out the time a shared machine's hypervisor gives this machine's cores
   to other guests, which on the 2-core x86-64 virtual machine the bounds
   were set on moved wall times by up to a fifth from one minute to the
   next. *)
let cpu_timed f =
  let c0 = Sys.time () and t0 = now () in
  let r = f () in
  (r, now () -. t0, Sys.time () -. c0)

let md5 s = Digest.to_hex (Digest.string s)

(* ---------- statistics ---------- *)

(* Linear interpolation between closest ranks. *)
let quantile q = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      a.(lo) +. ((a.(hi) -. a.(lo)) *. (pos -. float_of_int lo))

let median xs = quantile 0.5 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(* ---------- span profiler over the public trace sink ---------- *)

type span_agg = { mutable total_us : float; mutable self_us : float; mutable calls : int }
type frame = { f_name : string; f_start : float; mutable f_child_us : float }

type profile = {
  spans : (string, span_agg) Hashtbl.t;
  instants : (string, int ref) Hashtbl.t;
  stacks : (int, frame list ref) Hashtbl.t;  (* open spans per emitting domain *)
  mutable root_us : float;  (* time inside outermost spans *)
  mutable leaf_us : float;  (* time inside spans that opened no child span *)
  mutable unbalanced : int;
}

let attach_profiler sink =
  let p =
    {
      spans = Hashtbl.create 32;
      instants = Hashtbl.create 8;
      stacks = Hashtbl.create 4;
      root_us = 0.0;
      leaf_us = 0.0;
      unbalanced = 0;
    }
  in
  let stack tid =
    match Hashtbl.find_opt p.stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add p.stacks tid s;
        s
  in
  Trace.on_event sink (fun v ->
      match v.Trace.v_phase with
      | "B" ->
          let s = stack v.Trace.v_tid in
          s := { f_name = v.Trace.v_name; f_start = v.Trace.v_ts; f_child_us = 0.0 } :: !s
      | "E" -> (
          let s = stack v.Trace.v_tid in
          match !s with
          | f :: rest when f.f_name = v.Trace.v_name ->
              s := rest;
              let dur = v.Trace.v_ts -. f.f_start in
              let agg =
                match Hashtbl.find_opt p.spans f.f_name with
                | Some a -> a
                | None ->
                    let a = { total_us = 0.0; self_us = 0.0; calls = 0 } in
                    Hashtbl.add p.spans f.f_name a;
                    a
              in
              agg.total_us <- agg.total_us +. dur;
              agg.self_us <- agg.self_us +. (dur -. f.f_child_us);
              agg.calls <- agg.calls + 1;
              if f.f_child_us = 0.0 then p.leaf_us <- p.leaf_us +. dur;
              (match rest with
              | parent :: _ -> parent.f_child_us <- parent.f_child_us +. dur
              | [] -> p.root_us <- p.root_us +. dur)
          | _ -> p.unbalanced <- p.unbalanced + 1)
      | "i" -> (
          match Hashtbl.find_opt p.instants v.Trace.v_name with
          | Some r -> incr r
          | None -> Hashtbl.add p.instants v.Trace.v_name (ref 1))
      | _ -> ());
  p

let span_get f p name = match Hashtbl.find_opt p.spans name with Some a -> f a | None -> 0.0
let span_total = span_get (fun a -> a.total_us /. 1e6)
let span_self = span_get (fun a -> a.self_us /. 1e6)
let span_calls p name = match Hashtbl.find_opt p.spans name with Some a -> a.calls | None -> 0

(* Machine-independent: how often each span and instant fired. *)
let profile_counts p =
  let spans = Hashtbl.fold (fun k a acc -> ("span:" ^ k, a.calls) :: acc) p.spans [] in
  let inst = Hashtbl.fold (fun k r acc -> ("instant:" ^ k, !r) :: acc) p.instants [] in
  List.sort compare (spans @ inst)

let print_layer_table workload p =
  let rows =
    Hashtbl.fold (fun k a acc -> (k, a) :: acc) p.spans []
    |> List.sort (fun (_, a) (_, b) -> compare b.self_us a.self_us)
  in
  Printf.printf "== layer table: %s (traced pass) ==\n" workload;
  Printf.printf "%-22s %10s %12s %12s %8s\n" "span" "calls" "total_s" "self_s" "self%";
  List.iter
    (fun (k, a) ->
      Printf.printf "%-22s %10d %12.4f %12.4f %7.1f%%\n" k a.calls (a.total_us /. 1e6)
        (a.self_us /. 1e6)
        (100.0 *. ratio a.self_us p.root_us))
    rows;
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) p.instants []
  |> List.sort compare
  |> List.iter (fun (k, n) -> Printf.printf "%-22s %10d %12s %12s %8s\n" k n "-" "-" "(inst)");
  Printf.printf
    "outermost spans %.4f s; spans without children cover %.1f%% of it, the rest is \
     self time of spans with children\n"
    (p.root_us /. 1e6)
    (100.0 *. ratio p.leaf_us p.root_us)

(* ---------- passes ---------- *)

type op = {
  o_kind : string;
  o_latency : float;  (* wall seconds, timed around the library call only *)
  o_cpu : float;  (* processor seconds of the same call; 0 in serve-mix *)
  o_failed : bool;
}

type pass = {
  p_wall : float;  (* seconds: summed op latencies, or the serve client loop *)
  p_cpu : float;  (* processor seconds of the same *)
  p_op_cpu : float list;  (* processor seconds per operation, for op_cpu_ms *)
  p_ops : op list;
  p_cost : float;
  p_items : string list;  (* lines digested against expected.txt *)
  p_counters : (string * int) list;  (* machine-independent work counters *)
  p_failures : string list;
  p_layers : (string * float) list;  (* workload-specific per-layer values *)
  p_profile : profile option;
}

let stats_counters (results : C.result list) =
  let sum f = List.fold_left (fun acc (r : C.result) -> acc + f r.C.eval_stats) 0 results in
  let msum f =
    List.fold_left
      (fun acc (r : C.result) -> acc + match r.C.merge_stats with Some m -> f m | None -> 0)
      0 results
  in
  [
    ("eval.pruned", sum (fun s -> s.C.pruned));
    ("eval.memo_hits", sum (fun s -> s.C.memo_hits));
    ("eval.memo_misses", sum (fun s -> s.C.memo_misses));
    ("eval.memo_bypassed", sum (fun s -> s.C.memo_bypassed));
    ("eval.rollbacks", sum (fun s -> s.C.rollbacks));
    ("eval.replays", sum (fun s -> s.C.replays));
    ("eval.rebuilds", sum (fun s -> s.C.rebuilds));
    ("eval.merge_replays", sum (fun s -> s.C.merge_replays));
    ("eval.merge_rebuilds", sum (fun s -> s.C.merge_rebuilds));
    ("merge.accepted", msum (fun m -> m.Merge.merges_accepted));
    ("merge.tried", msum (fun m -> m.Merge.merges_tried));
    ("merge.combined", msum (fun m -> m.Merge.modes_combined));
    ("merge.iterations", msum (fun m -> m.Merge.iterations));
  ]

let counter cs name = Option.value (List.assoc_opt name cs) ~default:0

let audit_failures what = function
  | [] -> []
  | vs -> [ Printf.sprintf "%s: %d audit violation(s)" what (List.length vs) ]

(* A missed deadline is an outcome of the heuristic, not a wrong output:
   the audit checks that the verdict is true to the schedule, and the
   verdict is part of the digest checked against expected.txt.  HRXC at
   1/16 scale with generator seed 9 misses its deadlines with
   reconfiguration, for one. *)
let deadlines_missed results =
  List.length (List.filter (fun (r : C.result) -> not r.C.deadlines_met) results)

let options ~reconfig trace =
  { C.default_options with C.jobs = 1; dynamic_reconfiguration = reconfig; trace }

let new_sink traced =
  if traced then begin
    let sink = Trace.create () in
    (Some sink, Some (attach_profiler sink))
  end
  else (None, None)

(* Sums of consecutive runs of [n] values. *)
let group_sums n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if k > 0 then cur :: acc else acc)
    | x :: rest -> if k + 1 = n then go ((cur +. x) :: acc) 0.0 0 rest else go acc (cur +. x) (k + 1) rest
  in
  go [] 0.0 0 xs

(* One pass over a batch of from-scratch syntheses; [group] consecutive
   syntheses make one operation of op_cpu_ms.  [synth] returns the
   core result, the architecture cost and a deferred audit, which runs
   after the timed call. *)
let synth_batch ~traced ~group specs synth =
  let trace, profile = new_sink traced in
  let ops = ref [] and cost = ref 0.0 and items = ref [] and fails = ref [] in
  let results = ref [] in
  List.iteri
    (fun i spec ->
      let r, dt, cpu = cpu_timed (fun () -> synth trace spec) in
      let where = Printf.sprintf "spec %d (%s)" i spec.Spec.name in
      let f =
        match r with
        | Error msg -> [ where ^ ": " ^ msg ]
        | Ok ((core : C.result), c, audit) ->
            cost := !cost +. c;
            results := core :: !results;
            items := Printf.sprintf "%s %.17g" (md5 (C.result_json core)) c :: !items;
            audit_failures where (audit ())
      in
      ops := { o_kind = spec.Spec.name; o_latency = dt; o_cpu = cpu; o_failed = f <> [] } :: !ops;
      fails := !fails @ f)
    specs;
  let results = List.rev !results in
  let ops = List.rev !ops in
  ( {
      p_wall = List.fold_left (fun a o -> a +. o.o_latency) 0.0 ops;
      p_cpu = List.fold_left (fun a o -> a +. o.o_cpu) 0.0 ops;
      p_op_cpu = group_sums group (List.map (fun o -> o.o_cpu) ops);
      p_ops = ops;
      p_cost = !cost;
      p_items = List.rev !items;
      p_counters = stats_counters results @ [ ("results.deadlines_missed", deadlines_missed results) ];
      p_failures = !fails;
      p_layers = [];
      p_profile = profile;
    },
    results )

(* Outside-timed probes of single layers on a pass's own inputs: the
   median over items of one call each. *)
let probe f items = median (List.map (fun x -> snd (timed (fun () -> ignore (f x)))) items)

let spec_probes lib specs =
  [
    ("clustering.run_ms", 1e3 *. probe (fun s -> Clustering.run s lib) specs);
    ("dsl.print_ms", 1e3 *. probe Dsl.print specs);
    ("dsl.parse_ms", 1e3 *. probe Dsl.parse (List.map Dsl.print specs));
  ]

let result_probes (results : C.result list) =
  [
    ( "schedule.full_ms",
      1e3
      *. probe
           (fun (r : C.result) ->
             Schedule.run ~copy_cap:C.default_options.C.copy_cap r.C.spec r.C.clustering r.C.arch)
           results );
    ("result_json_ms", 1e3 *. probe C.result_json results);
  ]

(* ---------- workloads ---------- *)

type instance = {
  run_pass : traced:bool -> pass;
  probes : unit -> (string * float) list;  (* traced runs only *)
  generate_s : float;
  check_unlisted : pass -> string list;  (* extra checks for seeds not in expected.txt *)
}

type workload = {
  name : string;
  default_seed : int;
  setups : int;  (* set-up repetitions per run; setup_s is their median *)
  setup : lib:Crusade_resource.Library.t -> int -> instance;
}

let gen_specs lib params = timed (fun () -> List.map (W.generate lib) params)
let no_check _ = []

(* ft-cold: from-scratch CRUSADE-FT without reconfiguration of 24
   HRXC-shaped specifications at 1/24 scale, generator seeds
   seed..seed+23.  One 1/8-scale HRXC spec takes from 3.5 s to 13 s
   depending on its generator seed, so a steady figure needs many specs
   and a median over them. *)
let ft_cold =
  let setup ~lib seed =
    let base = W.scaled (W.preset "HRXC") 24.0 in
    let specs, generate_s = gen_specs lib (List.init 24 (fun i -> { base with W.seed = seed + i })) in
    let last = ref [] in
    let run_pass ~traced =
      let pass, results =
        synth_batch ~traced ~group:1 specs (fun trace spec ->
            F.synthesize ~options:(options ~reconfig:false trace) spec lib
            |> Result.map (fun (r : F.result) -> (r.F.core, r.F.total_cost, fun () -> F.audit r)))
      in
      last := results;
      pass
    in
    { run_pass; probes = (fun () -> spec_probes lib specs @ result_probes !last); generate_s; check_unlisted = no_check }
  in
  { name = "ft-cold"; default_seed = 15; setups = 5; setup }

(* table2-reconfig: the Table 2 "with reconfiguration" column at 1/16
   scale, four times over: copy k of preset i has generator seed
   seed + i + 8k, so copy 0 at the default seed 11 has the presets' own
   seeds.  A single 1/8-scale column swung by a quarter between seeds. *)
let table2 =
  let names = List.concat (List.init 4 (fun _ -> W.preset_names)) in
  let setup ~lib seed =
    let specs, generate_s =
      gen_specs lib
        (List.mapi (fun j name -> { (W.scaled (W.preset name) 16.0) with W.seed = seed + j }) names)
    in
    let last = ref [] in
    let run_pass ~traced =
      let pass, results =
        synth_batch ~traced ~group:8 specs (fun trace spec ->
            C.synthesize ~options:(options ~reconfig:true trace) spec lib
            |> Result.map (fun (r : C.result) -> (r, r.C.cost, fun () -> C.audit r)))
      in
      last := results;
      pass
    in
    { run_pass; probes = (fun () -> spec_probes lib specs @ result_probes !last); generate_s; check_unlisted = no_check }
  in
  { name = "table2-reconfig"; default_seed = 11; setups = 5; setup }

(* change-stream: B192G at 1/12 scale (its own generator seed) deployed
   with reconfiguration and its last 6 graphs held back.  Then, each
   applied independently to the deployed result: every in-use single-PE
   failure, every deployed-graph departure, the arrival and the upgrade of
   each held-back graph, and one slowdown and one speed-up drift whose
   sizes (5% to 15%) the workload seed draws.  The seed draws no more than
   that: event costs follow the deployed system, and drawing the system
   (other generator seeds, even twelve small systems averaged) or the
   held-back graphs moved the median event time by a third to a half. *)
let change_stream =
  let held_back = 6 in
  let setup ~lib seed =
    let spec, generate_s = timed (fun () -> W.generate lib (W.scaled (W.preset "B192G") 12.0)) in
    let n_graphs = Spec.n_graphs spec in
    let held = List.init held_back (fun i -> n_graphs - held_back + i) in
    let drifts =
      let rng = Random.State.make [| seed |] in
      let size () = 5 + Random.State.int rng 11 in
      let down = size () in
      [ -down; size () ]
    in
    let deployed_graph g = not (List.mem g held) in
    let deployed =
      match C.synthesize ~options:(options ~reconfig:true None) ~include_graph:deployed_graph spec lib with
      | Ok d -> d
      | Error msg -> failwith ("change-stream deploy: " ^ msg)
    in
    let deploy_failures =
      let where = "change-stream deploy" in
      audit_failures where (C.audit ~include_graph:deployed_graph deployed)
    in
    let events =
      let pes = ref [] in
      Vec.iter
        (fun (pe : Arch.pe_inst) -> if Arch.pe_in_use pe then pes := pe.Arch.p_id :: !pes)
        deployed.C.arch.Arch.pes;
      List.map (fun p -> ("pe-fail", R.Pe_failure p)) (List.rev !pes)
      @ List.filter_map
          (fun g -> if deployed_graph g then Some ("departure", R.Graph_departure [ g ]) else None)
          (List.init n_graphs Fun.id)
      @ List.concat_map (fun g -> [ ("arrival", R.Graph_arrival [ g ]); ("upgrade", R.Upgrade [ g ]) ]) held
      @ List.map (fun pct -> ("drift", R.Exec_drift pct)) drifts
    in
    let sample = ref [] in
    let run_pass ~traced =
      let trace, profile = new_sink traced in
      let opts = options ~reconfig:true trace in
      let ops = ref [] and items = ref [] and fails = ref deploy_failures in
      let results = ref [] and images_only = ref 0 and ripped = ref 0 in
      List.iteri
        (fun i (kind, change) ->
          let rep, dt, cpu = cpu_timed (fun () -> R.apply ~options:opts deployed change) in
          let where = Printf.sprintf "change-stream event %d (%s)" i (R.describe_change change) in
          let verdict, f =
            match rep with
            | Error msg -> ("error", [ where ^ ": " ^ msg ])
            | Ok rep -> (
                ripped := !ripped + List.length rep.R.ripped_clusters;
                let audit = audit_failures where (R.audit_report rep) in
                match (rep.R.verdict, R.final_result rep) with
                | R.Infeasible, _ -> ("infeasible", audit)
                | v, Some r ->
                    let name =
                      match v with
                      | R.Images_only _ ->
                          incr images_only;
                          "images-only"
                      | R.Needs_hardware _ | R.Infeasible -> "needs-hardware"
                    in
                    results := r :: !results;
                    (Printf.sprintf "%s %s" name (md5 (C.result_json r)), audit)
                | _, None -> ("no-result", audit @ [ where ^ ": no repaired result" ]))
          in
          ops := { o_kind = kind; o_latency = dt; o_cpu = cpu; o_failed = f <> [] } :: !ops;
          fails := !fails @ f;
          items := Printf.sprintf "%s %s" (R.describe_change change) verdict :: !items)
        events;
      sample := List.filteri (fun i _ -> i mod 16 = 0) !results;
      let ops = List.rev !ops in
      let kind_median k =
        median (List.filter_map (fun o -> if o.o_kind = k then Some o.o_latency else None) ops)
      in
      {
        p_wall = List.fold_left (fun a o -> a +. o.o_latency) 0.0 ops;
        p_cpu = List.fold_left (fun a o -> a +. o.o_cpu) 0.0 ops;
        p_op_cpu = List.map (fun o -> o.o_cpu) ops;
        p_ops = ops;
        (* The mean repaired cost per event. *)
        p_cost =
          ratio (List.fold_left (fun a (r : C.result) -> a +. r.C.cost) 0.0 !results)
            (float_of_int (List.length !results));
        p_items = List.rev !items;
        p_counters =
          stats_counters !results
          @ [
              ("results.deadlines_missed", deadlines_missed (deployed :: !results));
              ("resynth.images_only", !images_only);
              ("resynth.ripped_clusters", !ripped);
            ];
        p_failures = !fails;
        p_layers =
          [
            ("resynth.pe-fail_s", kind_median "pe-fail");
            ("resynth.departure_s", kind_median "departure");
            ("resynth.arrival_s", kind_median "arrival");
            ("resynth.upgrade_s", kind_median "upgrade");
            ("resynth.drift_s", kind_median "drift");
            ("resynth.images_only_share", ratio_i !images_only (List.length ops));
            ("resynth.ripped_clusters", float_of_int !ripped);
          ];
        p_profile = profile;
      }
    in
    {
      run_pass;
      probes = (fun () -> spec_probes lib [ spec ] @ result_probes (deployed :: !sample));
      generate_s;
      check_unlisted = no_check;
    }
  in
  { name = "change-stream"; default_seed = 17; setups = 3; setup }

(* ---------- serve-mix: a minimal keep-alive HTTP/1.1 client ---------- *)

type conn = { fd : Unix.file_descr; buf : Bytes.t; mutable pos : int; mutable len : int }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Bytes.create 65536; pos = 0; len = 0 }

let fill c =
  if c.pos >= c.len then begin
    c.len <- Unix.read c.fd c.buf 0 (Bytes.length c.buf);
    c.pos <- 0;
    if c.len = 0 then failwith "server closed the connection"
  end

let read_line c =
  let b = Buffer.create 64 in
  let rec go () =
    fill c;
    let ch = Bytes.get c.buf c.pos in
    c.pos <- c.pos + 1;
    if ch <> '\n' then begin
      if ch <> '\r' then Buffer.add_char b ch;
      go ()
    end
  in
  go ();
  Buffer.contents b

let read_exact c n =
  let b = Buffer.create n in
  while Buffer.length b < n do
    fill c;
    let k = min (n - Buffer.length b) (c.len - c.pos) in
    Buffer.add_subbytes b c.buf c.pos k;
    c.pos <- c.pos + k
  done;
  Buffer.contents b

let request c meth path body =
  let req =
    Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\r\n%s" meth path
      (String.length body) body
  in
  let n = String.length req in
  let rec write off = if off < n then write (off + Unix.write_substring c.fd req off (n - off)) in
  write 0;
  let status =
    match String.split_on_char ' ' (read_line c) with
    | _ :: code :: _ -> int_of_string code
    | _ -> failwith "bad status line"
  in
  let rec headers len =
    match read_line c with
    | "" -> len
    | line -> (
        match String.index_opt line ':' with
        | Some i when String.lowercase_ascii (String.sub line 0 i) = "content-length" ->
            headers (int_of_string (String.trim (String.sub line (i + 1) (String.length line - i - 1))))
        | _ -> headers len)
  in
  let len = headers 0 in
  (status, read_exact c len)

let json_exn s = match Json.parse s with Ok j -> j | Error e -> failwith ("bad JSON from server: " ^ e)
let field k j = match Json.member k j with Some v -> v | None -> failwith ("missing field " ^ k)
let str_field k j = match Json.str (field k j) with Some s -> s | None -> failwith ("non-string " ^ k)

(* Queued, running and done times from the job's status log, so the
   client's poll interval does not count. *)
let log_times status =
  let at state =
    List.find_map
      (fun e -> if Json.str (field "state" e) = Some state then Json.num (field "t" e) else None)
      (match field "log" status with Json.Arr l -> l | _ -> [])
  in
  match (at "queued", at "running", at "done") with
  | Some q, Some r, Some d -> Some (q, r, d)
  | _ -> None

(* A server on an ephemeral loopback port.  Shutting the listening socket
   down wakes the accept loop, whose thread is then joined. *)
let start_server () =
  let srv =
    Server.create { (Server.default_config ()) with Server.max_in_flight = 2; default_jobs = 1 }
  in
  let fd, port = Server.listen ~port:0 srv in
  (srv, fd, port, Thread.create (Server.serve srv) fd)

let stop_server (srv, fd, _, th) =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Thread.join th;
  Server.stop srv

(* serve-mix: one keep-alive connection in a closed loop with two jobs
   outstanding; 100 distinct A1TR-shaped 1/8 specs (generator seeds
   seed..seed+99) as DSL with reconfiguration, each fresh job followed by
   one identical resubmission that must be a cache hit.  Each pass gets a
   fresh server, so its cache starts empty. *)
let serve_mix =
  let n_specs = 100 and outstanding_cap = 2 in
  let setup ~lib seed =
    let base = W.scaled (W.preset "A1TR") 8.0 in
    let specs, generate_s = gen_specs lib (List.init n_specs (fun i -> { base with W.seed = seed + i })) in
    let bodies =
      Array.of_list
        (List.map
           (fun s ->
             Printf.sprintf "{\"spec\":\"%s\",\"options\":{\"reconfig\":true,\"jobs\":1}}"
               (Json.escape (Dsl.print s)))
           specs)
    in
    (* The set-up cost includes one server start and stop. *)
    stop_server (start_server ());
    let run_pass ~traced =
      ignore traced;
      let ((_, _, port, _) as server) = start_server () in
      let c = connect port in
      let fresh_payloads = Array.make n_specs "" in
      let submit_ms = ref [] and hit_ms = ref [] and wait_s = ref [] and run_s = ref [] in
      let fails = ref [] and ops = ref [] in
      let fail msg = fails := msg :: !fails in
      let post i =
        let (status, body), dt = timed (fun () -> request c "POST" "/jobs" bodies.(i)) in
        if status <> 201 then failwith (Printf.sprintf "POST /jobs: HTTP %d %s" status body);
        let j = json_exn body in
        (str_field "id" j, Json.bool (field "cache_hit" j) = Some true, dt)
      in
      let finish i id status =
        let _, payload = request c "GET" ("/jobs/" ^ id ^ "/result") "" in
        fresh_payloads.(i) <- payload;
        (match log_times status with
        | Some (q, r, d) ->
            wait_s := (r -. q) :: !wait_s;
            run_s := (d -. r) :: !run_s;
            ops := { o_kind = "fresh"; o_latency = d -. q; o_cpu = 0.0; o_failed = false } :: !ops
        | None ->
            fail (Printf.sprintf "spec %d: incomplete status log" i);
            ops := { o_kind = "fresh"; o_latency = 0.0; o_cpu = 0.0; o_failed = true } :: !ops);
        let hid, hit, dt = post i in
        hit_ms := (1e3 *. dt) :: !hit_ms;
        let _, hit_payload = request c "GET" ("/jobs/" ^ hid ^ "/result") "" in
        let ok = hit && hit_payload = payload in
        if not ok then fail (Printf.sprintf "spec %d: resubmission was not a byte-identical cache hit" i);
        ops := { o_kind = "hit"; o_latency = dt; o_cpu = 0.0; o_failed = not ok } :: !ops
      in
      let t0 = now () and c0 = Sys.time () in
      let next = ref 0 and pending = ref [] in
      while !next < n_specs || !pending <> [] do
        while !next < n_specs && List.length !pending < outstanding_cap do
          let id, hit, dt = post !next in
          if hit then fail (Printf.sprintf "spec %d: first submission was a cache hit" !next);
          submit_ms := (1e3 *. dt) :: !submit_ms;
          pending := !pending @ [ (!next, id) ];
          incr next
        done;
        let progressed = ref false in
        pending :=
          List.filter
            (fun (i, id) ->
              let _, body = request c "GET" ("/jobs/" ^ id) "" in
              let status = json_exn body in
              match str_field "state" status with
              | "done" ->
                  progressed := true;
                  finish i id status;
                  false
              | "failed" | "cancelled" ->
                  progressed := true;
                  fail (Printf.sprintf "spec %d: job %s" i body);
                  ops := { o_kind = "fresh"; o_latency = 0.0; o_cpu = 0.0; o_failed = true } :: !ops;
                  false
              | _ -> true)
            !pending;
        if not !progressed then Unix.sleepf 0.002
      done;
      let wall = now () -. t0 and cpu = Sys.time () -. c0 in
      let _, stats_body = request c "GET" "/stats" "" in
      Unix.close c.fd;
      stop_server server;
      let stats = json_exn stats_body in
      let num path =
        List.fold_left (fun j k -> Option.value (Json.member k j) ~default:Json.Null) stats path
        |> Json.num |> Option.value ~default:0.0
      in
      let hits = num [ "cache"; "hits" ] and misses = num [ "cache"; "misses" ] in
      let hit_ratio = ratio hits (hits +. misses) in
      if hit_ratio <> 0.5 then fail (Printf.sprintf "cache hit ratio %g, expected 0.5" hit_ratio);
      let cost = ref 0.0 and missed = ref 0 in
      Array.iter
        (fun p ->
          if p <> "" then begin
            let j = json_exn p in
            cost := !cost +. Option.value ~default:0.0 (Json.num (field "cost" j));
            if Json.bool (field "deadlines_met" j) <> Some true then incr missed
          end)
        fresh_payloads;
      let phase k = num [ "phases_us"; k ] /. 1e6 in
      let count k = int_of_float (num [ "counters"; k ]) in
      {
        p_wall = wall;
        p_cpu = cpu;
        (* The jobs run on pool domains, so only the whole process can be
           timed: its processor time per fresh job. *)
        p_op_cpu = [ ratio cpu (float_of_int n_specs) ];
        p_ops = List.rev !ops;
        p_cost = !cost;
        p_items = Array.to_list (Array.map md5 fresh_payloads);
        p_counters =
          [
            ("results.deadlines_missed", !missed);
            ("serve.synth_runs", count "synth_runs");
            ("serve.cache_served", count "cache_served");
            ("serve.jobs_completed", count "jobs_completed");
            ("cache.hits", int_of_float hits);
            ("cache.misses", int_of_float misses);
          ];
        p_failures = List.rev !fails;
        p_layers =
          [
            ("serve.submit_ms", median !submit_ms);
            ("serve.queue_wait_ms", 1e3 *. median !wait_s);
            ("serve.run_s", median !run_s);
            ("serve.hit_ms", median !hit_ms);
            ("serve.hit_ms.p90", quantile 0.9 !hit_ms);
            ("cache.hit_ratio", hit_ratio);
            (* Span totals over all jobs, from the server's own traces. *)
            ("allocation.s", phase "allocation");
            ("alloc.candidate.s", phase "alloc.candidate");
            ("repair.s", phase "repair");
            ("schedule.run.s", phase "schedule.run");
            ("schedule.estimate.s", phase "schedule.estimate");
            ("clustering.s", phase "clustering");
            ("merge.s", phase "merge");
            ("interface.s", phase "interface");
            ("synthesize.s", phase "synthesize");
          ];
        p_profile = None;
      }
    in
    (* Seeds not in expected.txt: every payload must equal an in-process
       synthesis of its parsed DSL text, which must audit clean. *)
    let check_unlisted pass =
      List.concat
        (List.mapi
           (fun i (spec, digest) ->
             let where = Printf.sprintf "serve-mix spec %d" i in
             match Dsl.parse (Dsl.print spec) with
             | Error e -> [ where ^ ": " ^ e ]
             | Ok parsed -> (
                 match C.synthesize ~options:(options ~reconfig:true None) parsed lib with
                 | Error e -> [ where ^ ": " ^ e ]
                 | Ok r ->
                     audit_failures where (C.audit r)
                     @
                     if md5 (C.result_json r) = digest then []
                     else [ where ^ ": payload differs from in-process synthesis" ]))
           (List.combine specs pass.p_items))
    in
    let probes () =
      let sample = List.filteri (fun i _ -> i < 5) specs in
      let results =
        List.filter_map
          (fun s -> Result.to_option (C.synthesize ~options:(options ~reconfig:true None) s lib))
          sample
      in
      spec_probes lib sample @ result_probes results
    in
    { run_pass; probes; generate_s; check_unlisted }
  in
  { name = "serve-mix"; default_seed = 11; setups = 3; setup }

let workloads = [ ft_cold; table2; change_stream; serve_mix ]

(* ---------- expected digests ---------- *)

let expected_file = Filename.concat "perfbench" "expected.txt"

(* Lines "<workload> <seed> <items> <md5 of the item lines>". *)
let load_expected () =
  if not (Sys.file_exists expected_file) then []
  else begin
    let ic = open_in expected_file in
    let rec go acc =
      match input_line ic with
      | line -> (
          match String.split_on_char ' ' (String.trim line) with
          | [ w; s; n; d ] when w.[0] <> '#' -> go (((w, int_of_string s), (int_of_string n, d)) :: acc)
          | _ -> go acc)
      | exception End_of_file ->
          close_in ic;
          acc
    in
    go []
  end

(* ---------- metrics ---------- *)

(* Latencies of the operations that succeeded; cache hits are the
   serve-mix fast path, reported on their own. *)
let op_latencies passes =
  List.concat_map
    (fun p -> List.filter_map (fun o -> if o.o_kind = "hit" || o.o_failed then None else Some (o.o_kind, o.o_latency)) p.p_ops)
    passes

(* The median processor time of one operation: one synthesis, one
   Table 2 column, one change event, or one fresh serve-mix job. *)
let op_cpu_seconds passes = median (List.concat_map (fun p -> p.p_op_cpu) passes)

let end_to_end ~setup_s ~untraced ~first =
  let heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  [
    ("setup_s", "s", setup_s);
    ("op_cpu_ms", "ms", 1e3 *. op_cpu_seconds untraced);
    ("cost_usd", "USD", first.p_cost);
    ("heap_peak_mb", "MB", heap_mb);
  ]

let per_layer ~inst ~untraced ~traced_passes ~first =
  (* Workload-specific values (resynth kinds, serve figures and the serve
     span totals) come from the untraced passes; the rest from the
     profiles of the traced passes. *)
  let layer name =
    if List.exists (fun p -> List.mem_assoc name p.p_layers) untraced then
      Some (median (List.filter_map (fun p -> List.assoc_opt name p.p_layers) untraced))
    else None
  in
  let med f = median (List.filter_map (fun p -> Option.map f p.p_profile) traced_passes) in
  let span name = Option.value (layer (name ^ ".s")) ~default:(med (fun p -> span_total p name)) in
  let calls name =
    match traced_passes with
    | { p_profile = Some p; _ } :: _ -> float_of_int (span_calls p name)
    | _ -> 0.0
  in
  let cs = first.p_counters in
  let c name = counter cs name in
  let est_n = int_of_float (calls "schedule.estimate") in
  let lat = List.map snd (op_latencies untraced) in
  let wall ps = median (List.map (fun p -> p.p_wall) ps) in
  let n_ops = List.fold_left (fun a p -> a + List.length p.p_ops) 0 untraced in
  [
    ("allocation.s", "s", span "allocation");
    ("alloc.cluster.n", "count", calls "alloc.cluster");
    ("alloc.candidate.s", "s", span "alloc.candidate");
    ("alloc.candidate.self_s", "s", med (fun p -> span_self p "alloc.candidate"));
    ("alloc.candidate.n", "count", calls "alloc.candidate");
    ("alloc.between_s", "s", med (fun p -> span_total p "allocation" -. span_total p "alloc.cluster"));
    ("repair.s", "s", span "repair");
    ("schedule.run.s", "s", span "schedule.run");
    ("schedule.run.n", "count", calls "schedule.run");
    ("schedule.estimate.s", "s", span "schedule.estimate");
    ("schedule.estimate.n", "count", float_of_int est_n);
    ("eval.pruned", "count", float_of_int (c "eval.pruned"));
    ("prune.yield", "ratio", ratio_i (c "eval.pruned") est_n);
    ("eval.replays", "count", float_of_int (c "eval.replays"));
    ("eval.rebuilds", "count", float_of_int (c "eval.rebuilds"));
    ("eval.replay_ratio", "ratio", ratio_i (c "eval.replays") (c "eval.replays" + c "eval.rebuilds"));
    ("memo.hit_ratio", "ratio", ratio_i (c "eval.memo_hits") (c "eval.memo_hits" + c "eval.memo_misses"));
    ("memo.bypassed", "count", float_of_int (c "eval.memo_bypassed"));
    ("clustering.s", "s", span "clustering");
    ("merge.s", "s", span "merge");
    ("merge.trial.n", "count", calls "merge.trial");
    ("merge.accept_ratio", "ratio", ratio_i (c "merge.accepted") (c "merge.tried"));
    ("interface.s", "s", span "interface");
    ("ft.transform.s", "s", span "ft.transform");
    ("ft.provision.s", "s", span "ft.provision");
    ("resynth.attempt.s", "s", span "resynth.attempt");
    ("resynth.attempt.n", "count", calls "resynth.attempt");
    ("synthesize.s", "s", span "synthesize");
    ("trace.leaf_share", "ratio", med (fun p -> ratio p.leaf_us p.root_us));
    (* The first untraced pass warms the heap; leave it out here. *)
    ("trace.overhead", "ratio", ratio (wall traced_passes) (wall (List.tl untraced)));
    ("generate_s", "s", inst.generate_s);
    ("op_ms.median", "ms", 1e3 *. median lat);
    ("op_ms.p90", "ms", 1e3 *. quantile 0.9 lat);
    ("ops_per_s", "1/s", ratio (float_of_int n_ops) (List.fold_left (fun a p -> a +. p.p_wall) 0.0 untraced));
  ]
  @ List.map
      (fun (name, unit) -> (name, unit, Option.value (layer name) ~default:0.0))
      [
        ("resynth.pe-fail_s", "s");
        ("resynth.departure_s", "s");
        ("resynth.arrival_s", "s");
        ("resynth.upgrade_s", "s");
        ("resynth.drift_s", "s");
        ("resynth.images_only_share", "ratio");
        ("resynth.ripped_clusters", "count");
        ("serve.submit_ms", "ms");
        ("serve.queue_wait_ms", "ms");
        ("serve.run_s", "s");
        ("serve.hit_ms", "ms");
        ("serve.hit_ms.p90", "ms");
        ("cache.hit_ratio", "ratio");
      ]
  @ List.map (fun (name, v) -> (name, "ms", v)) (inst.probes ())

(* ---------- command line ---------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (ft-cold|table2-reconfig|change-stream|serve-mix) [--seed N] \
     [--seconds S] [--trace 0|1] [--record-expected]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and traced = ref false in
  let record = ref false in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: s :: rest ->
        seed := Some (int_of_string s);
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string s;
        parse rest
    | "--trace" :: t :: rest ->
        traced := t = "1";
        parse rest
    | "--record-expected" :: rest ->
        record := true;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w = match List.find_opt (fun w -> w.name = !workload) workloads with Some w -> w | None -> usage () in
  let seed = Option.value !seed ~default:w.default_seed in
  let lib = Crusade_resource.Library.stock () in
  (* Set-up, repeated; the last instance is measured. *)
  let setups =
    List.init w.setups (fun _ ->
        let inst, _, cpu = cpu_timed (fun () -> w.setup ~lib seed) in
        (inst, cpu))
  in
  let inst = fst (List.nth setups (w.setups - 1)) in
  let setup_s = median (List.map snd setups) in
  (* Without tracing: untraced passes until the time is up, at least two.
     With tracing: an untraced pass, then traced and untraced passes in
     turn, at least three in all. *)
  let t_start = now () in
  let min_passes = if !traced then 3 else 2 in
  let rec loop k acc =
    let traced_pass = !traced && k mod 2 = 1 in
    let p = inst.run_pass ~traced:traced_pass in
    Printf.eprintf "pass %d (%s): %.3f s, %.3f s processor\n%!" k
      (if traced_pass then "traced" else "untraced")
      p.p_wall p.p_cpu;
    let acc = (traced_pass, p) :: acc in
    if !record || (now () -. t_start >= !seconds && k + 1 >= min_passes) then List.rev acc
    else loop (k + 1) acc
  in
  let passes = loop 0 [] in
  let untraced = List.filter_map (fun (t, p) -> if t then None else Some p) passes in
  let traced_passes = List.filter_map (fun (t, p) -> if t then Some p else None) passes in
  let first = snd (List.hd passes) in
  (* Correctness, all outside the timed regions. *)
  let failures = ref (List.concat_map (fun (_, p) -> p.p_failures) passes) in
  let fail msg = failures := !failures @ [ msg ] in
  if List.exists (fun (_, p) -> p.p_items <> first.p_items) passes then fail "results differ between passes";
  if List.exists (fun (_, p) -> p.p_counters <> first.p_counters) passes then
    fail "work counters differ between passes (traced or untraced)";
  (match List.filter_map (fun p -> p.p_profile) traced_passes with
  | p0 :: rest ->
      if List.exists (fun p -> profile_counts p <> profile_counts p0) rest then
        fail "span call counts differ between traced passes";
      if p0.unbalanced > 0 then fail "unbalanced span events in the trace"
  | [] -> ());
  let n_items = List.length first.p_items and digest = md5 (String.concat "\n" first.p_items) in
  let expected = List.assoc_opt (w.name, seed) (load_expected ()) in
  if !record then Printf.printf "expected: %s %d %d %s\n" w.name seed n_items digest
  else begin
    match expected with
    | Some e -> if e <> (n_items, digest) then fail (Printf.sprintf "results differ from %s for seed %d" expected_file seed)
    | None ->
        Printf.eprintf "note: %s has no entry for %s seed %d; results are not compared\n%!" expected_file
          w.name seed
  end;
  if !record || expected = None then List.iter fail (inst.check_unlisted first);
  let metrics =
    if !traced then per_layer ~inst ~untraced ~traced_passes ~first
    else end_to_end ~setup_s ~untraced ~first
  in
  (match traced_passes with p :: _ -> Option.iter (print_layer_table w.name) p.p_profile | [] -> ());
  if !traced then begin
    Printf.printf "== work counters: %s (identical across all %d passes: %b) ==\n" w.name (List.length passes)
      (List.for_all (fun (_, p) -> p.p_counters = first.p_counters) passes);
    List.iter (fun (k, v) -> Printf.printf "%-26s %d\n" k v) first.p_counters
  end;
  let failures = !failures in
  List.iter (fun f -> Printf.eprintf "FAIL: %s\n" f) failures;
  let all_ops = List.concat_map (fun (_, p) -> p.p_ops) passes in
  let failed = List.length (List.filter (fun o -> o.o_failed) all_ops) in
  let failed = if failures <> [] then max 1 failed else failed in
  let body =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
          (if Float.is_finite v then v else 0.0)
          unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" (failures = [])
    (max 1 (List.length all_ops)) failed (String.concat ", " body);
  exit (if failures = [] then 0 else 1)
