(* Warm re-synthesis under change (Crusade_core.Resynth): every change
   kind end to end, plus a differential property against from-scratch
   synthesis of the post-change workload. *)

module C = Crusade.Crusade_core
module R = Crusade.Crusade_core.Resynth
module F = Crusade_fault.Ft
module Spec = Crusade_taskgraph.Spec
module Arch = Crusade_alloc.Arch
module Vec = Crusade_util.Vec
module W = Crusade_workloads.Comm_system

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let lib = Helpers.stock_lib

let small_spec ?(seed = 3) () =
  W.generate lib
    {
      W.name = Printf.sprintf "resynth-%d" seed;
      n_tasks = 28;
      seed;
      hw_fraction = 0.5;
      family_slots = 3;
      asic_fraction = 0.1;
      cpld_fraction = 0.1;
    }

let synthesize ?(options = C.default_options) ?include_graph spec =
  match C.synthesize ~options ?include_graph spec lib with
  | Ok r -> r
  | Error msg -> Alcotest.failf "synthesis failed: %s" msg

let apply ?(options = C.default_options) deployed change =
  match R.apply ~options deployed change with
  | Ok rep -> rep
  | Error msg -> Alcotest.failf "resynth failed: %s" msg

let assert_clean_audit rep =
  match R.audit_report rep with
  | [] -> ()
  | vs ->
      Alcotest.failf "repaired architecture fails its audit: %s"
        (String.concat "; "
           (List.map
              (fun (v : Crusade_alloc.Audit.violation) ->
                Printf.sprintf "[%s] %s" v.rule v.detail)
              vs))

let last_graph spec = Array.length spec.Spec.graphs - 1

(* Graph arrival: deploy without the last graph, then let it arrive.
   The untouched graphs keep their placement; the repaired system
   covers everything and audits clean. *)
let graph_arrival () =
  let spec = small_spec () in
  let g = last_graph spec in
  let deployed = synthesize ~include_graph:(fun g' -> g' <> g) spec in
  let rep = apply deployed (R.Graph_arrival [ g ]) in
  (match R.final_result rep with
  | None -> Alcotest.fail "arrival of one graph should be repairable"
  | Some r -> check Alcotest.bool "deadlines met" true r.C.deadlines_met);
  check Alcotest.bool "arriving graph is covered" true
    (R.expected_graphs deployed (R.Graph_arrival [ g ]) g);
  assert_clean_audit rep

(* Graph departure: nothing new to place, so the reprogramming attempt
   succeeds trivially and the cost can only shrink or stay put. *)
let graph_departure () =
  let spec = small_spec () in
  let g = last_graph spec in
  let deployed = synthesize spec in
  let rep = apply deployed (R.Graph_departure [ g ]) in
  (match rep.R.verdict with
  | R.Images_only _ -> ()
  | R.Needs_hardware _ | R.Infeasible ->
      Alcotest.fail "a departure never needs new hardware");
  check Alcotest.bool "departed graph leaves coverage" false
    (R.expected_graphs deployed (R.Graph_departure [ g ]) g);
  (match rep.R.cost_delta with
  | Some d -> check Alcotest.bool "cost never grows on departure" true (d <= 0.0)
  | None -> Alcotest.fail "departure must produce a result");
  assert_clean_audit rep

(* PE failure: the failed instance hosts clusters, they are ripped and
   re-placed, and the final architecture never uses the failed PE. *)
let pe_failure () =
  let spec = small_spec () in
  let deployed = synthesize spec in
  let rep = apply deployed (R.Pe_failure 0) in
  check Alcotest.bool "a loaded PE failing rips clusters" true
    (rep.R.ripped_clusters <> []);
  (match R.final_result rep with
  | None -> Alcotest.fail "single PE failure should be repairable"
  | Some r ->
      let failed = Vec.get r.C.arch.Arch.pes 0 in
      check Alcotest.bool "failed PE is not in use" false
        (Arch.pe_in_use failed));
  assert_clean_audit rep

(* Execution-time drift rebuilds the spec; the repaired system is judged
   against the drifted deadlines. *)
let exec_drift () =
  let spec = small_spec () in
  let deployed = synthesize spec in
  let rep = apply deployed (R.Exec_drift 20) in
  let scratch =
    match R.drift_spec spec 20 with
    | Ok spec' -> synthesize spec'
    | Error msg -> Alcotest.failf "drift_spec failed: %s" msg
  in
  check Alcotest.bool "warm verdict matches from-scratch" true
    (R.final_result rep <> None = scratch.C.deadlines_met);
  assert_clean_audit rep

let drift_spec_validation () =
  let spec = small_spec () in
  (match R.drift_spec spec (-100) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "drift of -100%% must be rejected");
  match R.drift_spec spec 0 with
  | Ok spec' ->
      check Alcotest.int "0%% drift preserves the task count"
        (Spec.n_tasks spec) (Spec.n_tasks spec')
  | Error msg -> Alcotest.failf "0%% drift must be accepted: %s" msg

let change_validation () =
  let spec = small_spec () in
  let deployed = synthesize spec in
  let rejects what change =
    match R.apply deployed change with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s must be rejected" what
  in
  rejects "empty arrival" (R.Graph_arrival []);
  rejects "unknown graph" (R.Graph_departure [ 999 ]);
  rejects "unknown PE" (R.Pe_failure 999)

(* FT warm restart: after a field PE failure the spares are
   re-provisioned against the repaired architecture, and the whole
   repaired FT result passes the FT audit. *)
let ft_pe_failure () =
  let spec = small_spec () in
  let fr =
    match F.synthesize ~options:C.default_options spec lib with
    | Ok fr -> fr
    | Error msg -> Alcotest.failf "FT synthesis failed: %s" msg
  in
  match F.resynth_pe_failure fr ~pe:0 with
  | Error msg -> Alcotest.failf "FT resynth failed: %s" msg
  | Ok (rep, repaired) -> (
      assert_clean_audit rep;
      match repaired with
      | None -> Alcotest.fail "single PE failure should be repairable"
      | Some fr' -> (
          check Alcotest.bool "spares were re-provisioned" true
            (fr'.F.total_cost >= fr'.F.core.C.cost);
          match F.audit fr' with
          | [] -> ()
          | vs ->
              Alcotest.failf "repaired FT result fails its audit (%d)"
                (List.length vs)))

(* The report carries the wall-clock latency of the repair. *)
let report_latency () =
  let spec = small_spec () in
  let deployed = synthesize spec in
  let rep = apply deployed (R.Pe_failure 0) in
  check Alcotest.bool "latency is non-negative" true
    (rep.R.resynth_seconds >= 0.0)

(* A graph arrival's repair replays its trials against one recording
   of the post-change architecture.  On a preset it must take that path
   ([replays > 0]) and produce the report the reference evaluator (full
   runs, no replay) produces. *)
let arrival_replays_match_reference () =
  let spec = W.generate lib (W.scaled (W.preset "A1TR") 8.0) in
  let g = last_graph spec in
  let deployed = synthesize ~include_graph:(fun g' -> g' <> g) spec in
  let change = R.Graph_arrival [ g ] in
  let signature (rep : R.report) =
    ( (match rep.R.verdict with
      | R.Images_only { added_images; _ } -> Printf.sprintf "images %d" added_images
      | R.Needs_hardware { added_pes; added_cost; _ } ->
          Printf.sprintf "hardware %d %.6f" added_pes added_cost
      | R.Infeasible -> "infeasible"),
      Option.map C.result_json (R.final_result rep),
      rep.R.reprogram_attempt,
      rep.R.hardware_attempt,
      (rep.R.ripped_clusters, rep.R.added_pes, rep.R.removed_pes, rep.R.cost_delta) )
  in
  let warm = apply deployed change in
  let reference =
    apply ~options:{ C.default_options with C.incremental = false } deployed change
  in
  (match R.final_result warm with
  | None -> Alcotest.fail "a graph arrival on A1TR should be repairable"
  | Some r ->
      check Alcotest.bool "warm repair replays against its basis" true
        (r.C.eval_stats.C.replays > 0));
  (match R.final_result reference with
  | Some r ->
      check Alcotest.int "the reference evaluator never replays" 0
        r.C.eval_stats.C.replays
  | None -> ());
  check Alcotest.bool "report equals the reference evaluator's" true
    (signature warm = signature reference);
  assert_clean_audit warm

(* Differential property: across random workloads and every change
   kind, the warm repair reaches the same feasibility verdict as
   synthesizing the post-change workload from scratch, and the repaired
   architecture audits clean.  Costs may legitimately differ — the
   repair is pinned to the deployed placement. *)
let resynth_matches_scratch =
  QCheck.Test.make ~name:"resynth verdict matches from-scratch" ~count:8
    (QCheck.pair (QCheck.int_range 1 50) (QCheck.int_range 0 3))
    (fun (seed, kind) ->
      let spec = small_spec ~seed () in
      let g = last_graph spec in
      let change =
        match kind with
        | 0 -> R.Graph_arrival [ g ]
        | 1 -> R.Upgrade [ g ]
        | 2 -> R.Pe_failure 0
        | _ -> R.Exec_drift 20
      in
      let deployed_include =
        match change with
        | R.Graph_arrival gs | R.Upgrade gs -> fun g' -> not (List.mem g' gs)
        | R.Graph_departure _ | R.Pe_failure _ | R.Exec_drift _ -> fun _ -> true
      in
      let deployed = synthesize ~include_graph:deployed_include spec in
      let rep = apply deployed change in
      let scratch =
        match change with
        | R.Exec_drift pct -> (
            match R.drift_spec spec pct with
            | Ok spec' -> synthesize spec'
            | Error msg -> Alcotest.failf "drift_spec failed: %s" msg)
        | R.Graph_departure gs ->
            synthesize ~include_graph:(fun g' -> not (List.mem g' gs)) spec
        | R.Graph_arrival _ | R.Upgrade _ | R.Pe_failure _ -> synthesize spec
      in
      R.audit_report rep = []
      && R.final_result rep <> None = scratch.C.deadlines_met)

let suite =
  [
    Alcotest.test_case "graph arrival repairs in place" `Quick graph_arrival;
    Alcotest.test_case "graph departure is images-only" `Quick graph_departure;
    Alcotest.test_case "PE failure warm restart" `Quick pe_failure;
    Alcotest.test_case "execution-time drift" `Quick exec_drift;
    Alcotest.test_case "drift spec validation" `Quick drift_spec_validation;
    Alcotest.test_case "change validation" `Quick change_validation;
    Alcotest.test_case "FT PE failure re-provisions spares" `Quick ft_pe_failure;
    Alcotest.test_case "report carries repair latency" `Quick report_latency;
    Alcotest.test_case "graph arrival replays match the reference" `Quick
      arrival_replays_match_reference;
    qcheck resynth_matches_scratch;
  ]
