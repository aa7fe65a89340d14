(* Field-upgrade analysis (Upgrade.analyze): one scenario per verdict. *)

module C = Crusade.Crusade_core
module Upgrade = Crusade.Upgrade
module Spec = Crusade_taskgraph.Spec
module Ex = Crusade_workloads.Examples

let check = Alcotest.check

(* The stock scenario fits the idle slots of the deployed FPGAs, so the
   feature release ships as configuration images alone. *)
let reprogramming_only () =
  let spec, upgrade_graphs = Ex.upgrade_scenario Helpers.small_lib in
  match Upgrade.analyze spec Helpers.small_lib ~upgrade_graphs with
  | Error m -> Alcotest.fail m
  | Ok { base; verdict; _ } -> (
      check Alcotest.bool "base meets deadlines" true base.C.deadlines_met;
      match verdict with
      | Upgrade.Reprogramming_only { result; added_images } ->
          check Alcotest.bool "upgraded system meets deadlines" true
            result.C.deadlines_met;
          check Alcotest.bool "ships at least one new image" true (added_images > 0);
          check Alcotest.bool "no new PEs" true (result.C.n_pes = base.C.n_pes)
      | Upgrade.Needs_hardware _ -> Alcotest.fail "expected a pure reprogramming upgrade"
      | Upgrade.Infeasible m -> Alcotest.failf "unexpectedly infeasible: %s" m)

(* Base product is pure software, so no FPGA is deployed; a hardware-only
   upgrade task then forces new parts. *)
let needs_hardware () =
  let b = Spec.Builder.create () in
  let base_g = Spec.Builder.add_graph b ~name:"base" ~period:20_000 ~deadline:8_000 () in
  let t1 =
    Spec.Builder.add_task b ~graph:base_g ~name:"base1" ~exec:(Helpers.cpu_exec 500) ()
  in
  let t2 =
    Spec.Builder.add_task b ~graph:base_g ~name:"base2" ~exec:(Helpers.cpu_exec 500) ()
  in
  Spec.Builder.add_edge b ~src:t1 ~dst:t2 ~bytes:64;
  let up_g = Spec.Builder.add_graph b ~name:"accel" ~period:20_000 ~deadline:8_000 () in
  let _u =
    Spec.Builder.add_task b ~graph:up_g ~name:"accel1"
      ~exec:(Helpers.fpga_exec 2_000) ~gates:80 ~pins:8 ()
  in
  let spec = Spec.Builder.finish_exn b ~name:"hw-upgrade" () in
  match Upgrade.analyze spec Helpers.small_lib ~upgrade_graphs:[ up_g ] with
  | Error m -> Alcotest.fail m
  | Ok { base; verdict; _ } -> (
      match verdict with
      | Upgrade.Needs_hardware { result; added_pes; added_cost } ->
          check Alcotest.bool "upgraded system meets deadlines" true
            result.C.deadlines_met;
          check Alcotest.bool "adds at least one PE" true (added_pes >= 1);
          check Alcotest.bool "added cost is positive" true (added_cost > 0.0);
          check Alcotest.bool "cost grows over the base" true
            (result.C.cost > base.C.cost)
      | Upgrade.Reprogramming_only _ ->
          Alcotest.fail "a software-only base cannot host an FPGA task"
      | Upgrade.Infeasible m -> Alcotest.failf "unexpectedly infeasible: %s" m)

(* The upgrade task cannot meet its deadline on any PE type, new hardware
   or not. *)
let doomed_spec () =
  let b = Spec.Builder.create () in
  let base_g = Spec.Builder.add_graph b ~name:"base" ~period:20_000 ~deadline:8_000 () in
  let _t =
    Spec.Builder.add_task b ~graph:base_g ~name:"base1" ~exec:(Helpers.cpu_exec 500) ()
  in
  let up_g = Spec.Builder.add_graph b ~name:"slow" ~period:20_000 ~deadline:1_000 () in
  let _u =
    Spec.Builder.add_task b ~graph:up_g ~name:"slow1" ~exec:(Helpers.cpu_exec 9_000) ()
  in
  (Spec.Builder.finish_exn b ~name:"doomed-upgrade" (), up_g)

let infeasible () =
  let spec, up_g = doomed_spec () in
  match Upgrade.analyze spec Helpers.small_lib ~upgrade_graphs:[ up_g ] with
  | Error m -> Alcotest.fail m
  | Ok { verdict; _ } -> (
      match verdict with
      | Upgrade.Infeasible _ -> ()
      | Upgrade.Reprogramming_only _ | Upgrade.Needs_hardware _ ->
          Alcotest.fail "a 9ms task cannot meet a 1ms deadline")

(* Regression: the first attempt's failure used to be discarded — an
   infeasible verdict now surfaces why each attempt failed. *)
let infeasible_reports_both_attempts () =
  let spec, up_g = doomed_spec () in
  match Upgrade.analyze spec Helpers.small_lib ~upgrade_graphs:[ up_g ] with
  | Error m -> Alcotest.fail m
  | Ok { verdict; reprogram_attempt; hardware_attempt; _ } -> (
      (match reprogram_attempt with
      | C.Resynth.Met -> Alcotest.fail "reprogramming cannot have met deadlines"
      | C.Resynth.Tardy _ | C.Resynth.Failed _ -> ());
      (match hardware_attempt with
      | None -> Alcotest.fail "the new-hardware attempt must have run"
      | Some C.Resynth.Met ->
          Alcotest.fail "new hardware cannot have met deadlines"
      | Some (C.Resynth.Tardy _ | C.Resynth.Failed _) -> ());
      match verdict with
      | Upgrade.Infeasible msg ->
          check Alcotest.bool "message names the reprogramming attempt" true
            (Helpers.contains msg "reprogramming-only:");
          check Alcotest.bool "message names the hardware attempt" true
            (Helpers.contains msg "with new hardware:")
      | Upgrade.Reprogramming_only _ | Upgrade.Needs_hardware _ ->
          Alcotest.fail "expected an infeasible verdict")

(* The audit covers both the base architecture and the upgraded one. *)
let report_audits_clean () =
  let spec, upgrade_graphs = Ex.upgrade_scenario Helpers.small_lib in
  match Upgrade.analyze spec Helpers.small_lib ~upgrade_graphs with
  | Error m -> Alcotest.fail m
  | Ok report -> (
      match Upgrade.audit report with
      | [] -> ()
      | vs -> Alcotest.failf "upgrade report fails its audit (%d)" (List.length vs))

(* The verdict is stable across the evaluator options the flow can run
   under: the reference evaluator, and perturbed portfolio
   trajectory options. *)
let verdict_constructor = function
  | Upgrade.Reprogramming_only _ -> "reprogramming-only"
  | Upgrade.Needs_hardware _ -> "needs-hardware"
  | Upgrade.Infeasible _ -> "infeasible"

let analyze_with options =
  let spec, upgrade_graphs = Ex.upgrade_scenario Helpers.small_lib in
  match Upgrade.analyze ~options spec Helpers.small_lib ~upgrade_graphs with
  | Error m -> Alcotest.fail m
  | Ok r -> r

let stable_under_incremental () =
  let base = analyze_with C.default_options in
  let no_inc = analyze_with { C.default_options with C.incremental = false } in
  check Alcotest.string "verdict is incremental-independent"
    (verdict_constructor base.Upgrade.verdict)
    (verdict_constructor no_inc.Upgrade.verdict)

let feasible_under_portfolio_options () =
  (* A perturbed trajectory explores a different commit order but must
     still find the stock scenario upgradable without new parts. *)
  let options = C.Portfolio.trajectory_options C.default_options ~seed:7 ~index:2 in
  let r = analyze_with options in
  match r.Upgrade.verdict with
  | Upgrade.Reprogramming_only _ | Upgrade.Needs_hardware _ -> ()
  | Upgrade.Infeasible m ->
      Alcotest.failf "perturbed trajectory lost feasibility: %s" m

let suite =
  [
    Alcotest.test_case "stock scenario is reprogramming-only" `Quick reprogramming_only;
    Alcotest.test_case "hardware-only upgrade needs new parts" `Quick needs_hardware;
    Alcotest.test_case "impossible deadline is infeasible" `Quick infeasible;
    Alcotest.test_case "infeasible reports both attempts" `Quick
      infeasible_reports_both_attempts;
    Alcotest.test_case "report audits clean" `Quick report_audits_clean;
    Alcotest.test_case "verdict stable without incremental" `Quick
      stable_under_incremental;
    Alcotest.test_case "feasible under portfolio options" `Quick
      feasible_under_portfolio_options;
  ]
