(* Incremental rescheduling: the replay engine's exactness contract.

   Every test records a full scheduler run on a base architecture,
   perturbs the placement (the way candidate evaluation does: one
   cluster moves), and asserts that replaying the recording against the
   perturbed architecture is bit-identical — schedule and verdict — to
   a fresh [Schedule.run] on it.  Micro-specs pin the structurally
   interesting cases (single PE, a shared link, a mode-window boundary,
   the copy-cap extrapolation edge); a qcheck property sweeps random
   workloads under random single-cluster perturbations.  A second
   property pins the verdict-only run candidate evaluation uses instead
   of a replay when there is no warm basis. *)

module Spec = Crusade_taskgraph.Spec
module Clustering = Crusade_cluster.Clustering
module Arch = Crusade_alloc.Arch
module Options = Crusade_alloc.Options
module Schedule = Crusade_sched.Schedule
module W = Crusade_workloads.Comm_system

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* First-fit placement: options are ordered by incremental cost, so
   non-overlapping clusters naturally share devices through new modes
   when reconfiguration-style placements are allowed. *)
let place_all spec clustering arch =
  Array.iter
    (fun (c : Clustering.cluster) ->
      let options =
        Options.enumerate arch spec clustering c ~allow_new_modes:true ()
      in
      let rec attempt = function
        | [] -> Alcotest.failf "cluster %d: no applicable option" c.Clustering.cid
        | o :: rest -> (
            match Options.apply arch spec clustering c o with
            | Ok () -> ()
            | Error _ -> attempt rest)
      in
      attempt options)
    clustering.Clustering.clusters

(* Move one cluster somewhere else: unplace it and apply the first
   applicable option that targets a different PE (a fresh instance if
   nothing else moves it).  Falls back to leaving it unplaced — also a
   legal candidate state for the scheduler. *)
let move_cluster spec clustering arch cid =
  let c = clustering.Clustering.clusters.(cid) in
  let old_pe =
    match Arch.site_of_cluster arch cid with
    | Some s -> s.Arch.s_pe
    | None -> -1
  in
  Arch.unplace_cluster arch clustering c;
  let moves (o : Options.t) =
    match o.Options.kind with
    | Options.Existing_site s -> s.Arch.s_pe <> old_pe
    | Options.New_mode pe_id -> pe_id <> old_pe
    | Options.New_pe _ -> true
  in
  let rec attempt = function
    | [] -> ()
    | o :: rest -> (
        match Options.apply arch spec clustering c o with
        | Ok () -> ()
        | Error _ -> attempt rest)
  in
  attempt
    (List.filter moves
       (Options.enumerate arch spec clustering c ~allow_new_modes:true ()))

let scheds_equal (a : Schedule.t) (b : Schedule.t) =
  a.Schedule.instances = b.Schedule.instances
  && a.Schedule.deadlines_met = b.Schedule.deadlines_met
  && a.Schedule.total_tardiness = b.Schedule.total_tardiness
  && a.Schedule.scheduled_tasks = b.Schedule.scheduled_tasks
  && a.Schedule.mode_switches = b.Schedule.mode_switches

(* The exactness check: replay of [recording] against [arch] must agree
   bit-for-bit with a fresh run — both the full schedule and the
   verdict-only path — including agreeing on failure. *)
let assert_replay_exact ?(copy_cap = Schedule.default_copy_cap) name spec
    clustering arch recording =
  if not (Schedule.Replay.compatible recording ~copy_cap spec clustering) then
    Alcotest.failf "%s: recording not compatible with its own inputs" name;
  let prep = Schedule.Replay.prepare recording spec clustering arch in
  match
    ( Schedule.run ~copy_cap spec clustering arch,
      Schedule.Replay.replay_run prep,
      Schedule.Replay.replay_verdict prep )
  with
  | Ok fresh, Ok replayed, Ok verdict ->
      check Alcotest.bool (name ^ ": schedule bit-identical") true
        (scheds_equal fresh replayed);
      check Alcotest.bool (name ^ ": verdict bit-identical") true
        (verdict.Schedule.v_tardiness = fresh.Schedule.total_tardiness
        && verdict.Schedule.v_met = fresh.Schedule.deadlines_met
        && verdict.Schedule.v_scheduled = fresh.Schedule.scheduled_tasks)
  | Error e_fresh, Error e_run, Error e_verdict ->
      check Alcotest.string (name ^ ": replay_run fails identically") e_fresh e_run;
      check Alcotest.string (name ^ ": replay_verdict fails identically") e_fresh e_verdict
  | Ok _, _, _ | Error _, _, _ ->
      Alcotest.failf "%s: replay and fresh run disagree on success" name

(* Record on the base placement, apply [perturb], check exactness on the
   perturbed architecture (and, first, on the unperturbed one: a cut at
   the full recording must still replay exactly). *)
let record_perturb_check ?(copy_cap = Schedule.default_copy_cap) name spec
    clustering arch perturb =
  let recording =
    match Schedule.Replay.record ~copy_cap spec clustering arch with
    | Ok (_, r) -> r
    | Error msg -> Alcotest.failf "%s: record failed: %s" name msg
  in
  assert_replay_exact ~copy_cap (name ^ " (identity)") spec clustering arch
    recording;
  perturb ();
  assert_replay_exact ~copy_cap name spec clustering arch recording

let clustering_of ?(max_cluster_size = 2) spec lib =
  Clustering.run ~max_cluster_size spec lib

(* --- Micro-spec: every task on one CPU ------------------------------- *)

let single_pe () =
  let lib = Helpers.small_lib in
  let spec, _ = Helpers.sw_chain ~lib 4 in
  let clustering = clustering_of spec lib in
  let arch = Arch.create lib in
  place_all spec clustering arch;
  record_perturb_check "single-pe" spec clustering arch (fun () ->
      move_cluster spec clustering arch
        clustering.Clustering.clusters.(0).Clustering.cid)

(* --- Micro-spec: two PEs communicating over a shared link ------------ *)

let shared_link () =
  let lib = Helpers.small_lib in
  let spec, _ = Helpers.sw_chain ~lib 4 in
  let clustering = clustering_of ~max_cluster_size:1 spec lib in
  let arch = Arch.create lib in
  place_all spec clustering arch;
  (* Split the chain across PEs so at least one edge crosses a link. *)
  let nc = Array.length clustering.Clustering.clusters in
  move_cluster spec clustering arch (nc - 1);
  record_perturb_check "shared-link" spec clustering arch (fun () ->
      move_cluster spec clustering arch (nc - 2))

(* --- Micro-spec: reconfiguration mode-window boundary ---------------- *)

let mode_window () =
  let lib = Helpers.small_lib in
  let spec, _, _ = Helpers.two_hw_graphs ~lib ~overlap:false () in
  let clustering = clustering_of spec lib in
  let arch = Arch.create lib in
  (* First-fit placement shares one programmable device through a second
     mode (the graphs do not overlap), so the recording carries a mode
     switch whose boot window the replay must reproduce exactly. *)
  place_all spec clustering arch;
  record_perturb_check "mode-window" spec clustering arch (fun () ->
      move_cluster spec clustering arch
        clustering.Clustering.clusters.(1).Clustering.cid)

(* --- Micro-spec: copy-cap extrapolation edge ------------------------- *)

let copy_cap_edge () =
  let lib = Helpers.small_lib in
  let b = Spec.Builder.create () in
  let fast = Spec.Builder.add_graph b ~name:"fast" ~period:2_000 ~deadline:1_800 () in
  let slow = Spec.Builder.add_graph b ~name:"slow" ~period:16_000 ~deadline:12_000 () in
  let f1 =
    Spec.Builder.add_task b ~graph:fast ~name:"f1" ~exec:(Helpers.cpu_exec ~lib 300) ()
  in
  let f2 =
    Spec.Builder.add_task b ~graph:fast ~name:"f2" ~exec:(Helpers.cpu_exec ~lib 300) ()
  in
  Spec.Builder.add_edge b ~src:f1 ~dst:f2 ~bytes:32;
  let s1 =
    Spec.Builder.add_task b ~graph:slow ~name:"s1" ~exec:(Helpers.cpu_exec ~lib 900) ()
  in
  let s2 =
    Spec.Builder.add_task b ~graph:slow ~name:"s2" ~exec:(Helpers.cpu_exec ~lib 900) ()
  in
  Spec.Builder.add_edge b ~src:s1 ~dst:s2 ~bytes:32;
  let spec = Spec.Builder.finish_exn b ~name:"copy-cap-edge" () in
  (* hyperperiod/period = 8 copies of the fast graph against a cap of 2:
     the recording covers only the explicit window and the verdict
     extrapolates the rest — the replay must land on the same numbers. *)
  let clustering = clustering_of spec lib in
  let arch = Arch.create lib in
  place_all spec clustering arch;
  record_perturb_check ~copy_cap:2 "copy-cap-edge" spec clustering arch
    (fun () ->
      move_cluster spec clustering arch
        clustering.Clustering.clusters.(0).Clustering.cid)

(* --- Property: random single-cluster perturbations ------------------- *)

let tiny_params seed =
  {
    W.name = Printf.sprintf "inc%d" seed;
    n_tasks = 40;
    seed;
    hw_fraction = 0.5;
    family_slots = 3;
    asic_fraction = 0.1;
    cpld_fraction = 0.1;
  }

let replay_exact_under_perturbation =
  QCheck.Test.make
    ~name:"replay is bit-identical under random single-cluster moves" ~count:25
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let lib = Helpers.stock_lib in
      let spec = W.generate lib (tiny_params ((seed mod 997) + 1)) in
      let clustering = Clustering.run ~max_cluster_size:4 spec lib in
      let arch = Arch.create lib in
      place_all spec clustering arch;
      let recording =
        match Schedule.Replay.record spec clustering arch with
        | Ok (_, r) -> r
        | Error msg -> QCheck.Test.fail_reportf "record failed: %s" msg
      in
      let rng = Random.State.make [| seed |] in
      let nc = Array.length clustering.Clustering.clusters in
      (* A handful of successive moves against one recording: the diff
         is against the snapshot, so later moves exercise wider cuts. *)
      List.for_all
        (fun (_ : int) ->
          move_cluster spec clustering arch (Random.State.int rng nc);
          let prep = Schedule.Replay.prepare recording spec clustering arch in
          match
            (Schedule.run spec clustering arch, Schedule.Replay.replay_run prep)
          with
          | Ok fresh, Ok replayed -> scheds_equal fresh replayed
          | Error a, Error b -> a = b
          | Ok _, Error _ | Error _, Ok _ -> false)
        [ 1; 2; 3 ])

(* --- Property: verdict-only runs --------------------------------------- *)

(* Stage 2 of candidate evaluation is [Schedule.run_verdict]: on every
   architecture a run of random moves passes through, it must agree with
   the verdict fields of a full run, including agreeing on failure. *)
let run_verdict_exact_under_perturbation =
  QCheck.Test.make
    ~name:"run_verdict equals run's verdict under random moves" ~count:25
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let lib = Helpers.stock_lib in
      let spec = W.generate lib (tiny_params ((seed mod 997) + 1)) in
      let clustering = Clustering.run ~max_cluster_size:4 spec lib in
      let arch = Arch.create lib in
      place_all spec clustering arch;
      let rng = Random.State.make [| seed |] in
      let nc = Array.length clustering.Clustering.clusters in
      let agrees () =
        match
          (Schedule.run spec clustering arch, Schedule.run_verdict spec clustering arch)
        with
        | Ok fresh, Ok v ->
            v.Schedule.v_tardiness = fresh.Schedule.total_tardiness
            && v.Schedule.v_met = fresh.Schedule.deadlines_met
            && v.Schedule.v_scheduled = fresh.Schedule.scheduled_tasks
        | Error a, Error b -> a = b
        | Ok _, Error _ | Error _, Ok _ -> false
      in
      agrees ()
      && List.for_all
           (fun (_ : int) ->
             move_cluster spec clustering arch (Random.State.int rng nc);
             agrees ())
           [ 1; 2; 3 ])

let suite =
  [
    ("single PE", `Quick, single_pe);
    ("shared link", `Quick, shared_link);
    ("mode-window boundary", `Quick, mode_window);
    ("copy-cap extrapolation edge", `Quick, copy_cap_edge);
    qcheck replay_exact_under_perturbation;
    qcheck run_verdict_exact_under_perturbation;
  ]
