module Pe = Crusade_resource.Pe
module Spec = Crusade_taskgraph.Spec
module Arch = Crusade_alloc.Arch
module Vec = Crusade_util.Vec

type style = Serial | Parallel8
type role = Master_prom | Slave_cpu

type option_t = { style : style; role : role; mhz : float; chained : bool }

let clock_rates = [ 1.0; 2.5; 5.0; 10.0 ]

let all_options =
  List.concat_map
    (fun style ->
      List.concat_map
        (fun role ->
          List.concat_map
            (fun mhz -> [ { style; role; mhz; chained = false }; { style; role; mhz; chained = true } ])
            clock_rates)
        [ Master_prom; Slave_cpu ])
    [ Serial; Parallel8 ]

let width = function Serial -> 1 | Parallel8 -> 8

(* Chained devices share the programming bus: images stream through the
   chain, costing extra transfer time. *)
let chain_overhead = 1.2

let boot_full_us option (info : Pe.ppe_info) =
  let bits_per_us = option.mhz *. float_of_int (width option.style) in
  let raw = float_of_int info.config_bits /. bits_per_us in
  let raw = if option.chained then raw *. chain_overhead else raw in
  max 1 (int_of_float raw)

let speed_cost_factor mhz =
  if mhz <= 1.0 then 1.0
  else if mhz <= 2.5 then 1.3
  else if mhz <= 5.0 then 1.8
  else 2.8

let prom_dollars_per_kbyte = Arch.prom_dollars_per_kbyte
let dram_dollars_per_kbyte = 0.12

let ppes_of arch =
  Vec.fold
    (fun acc (pe : Arch.pe_inst) ->
      if Pe.is_programmable pe.Arch.ptype && Arch.n_images pe > 0 then pe :: acc else acc)
    [] arch.Arch.pes

let has_cpu arch =
  Vec.exists
    (fun (pe : Arch.pe_inst) ->
      Pe.is_cpu pe.Arch.ptype && Arch.pe_in_use pe)
    arch.Arch.pes

let interface_cost option arch =
  let ppes = ppes_of arch in
  if ppes = [] then Some 0.0
  else if option.role = Slave_cpu && not (has_cpu arch) then None
  else begin
    let image_kbytes =
      List.fold_left
        (fun acc (pe : Arch.pe_inst) ->
          match Pe.ppe_info pe.Arch.ptype with
          | Some info ->
              acc
              +. (float_of_int (Arch.n_images pe * info.boot_memory_bytes) /. 1024.0)
          | None -> acc)
        0.0 ppes
    in
    let n_devices = float_of_int (List.length ppes) in
    let speed = speed_cost_factor option.mhz in
    let style = match option.style with Serial -> 1.0 | Parallel8 -> 1.8 in
    let storage, controllers =
      match option.role with
      | Master_prom ->
          let storage = image_kbytes *. prom_dollars_per_kbyte in
          let controllers =
            if option.chained then (6.0 *. speed *. style) +. (1.5 *. n_devices)
            else 4.0 *. speed *. style *. n_devices
          in
          (storage, controllers)
      | Slave_cpu ->
          (* Images live in system DRAM; the CPU drives the interface. *)
          let storage = image_kbytes *. dram_dollars_per_kbyte in
          let controllers =
            if option.chained then (2.0 *. speed *. style) +. (1.0 *. n_devices)
            else 2.0 *. speed *. style *. n_devices
          in
          (storage, controllers)
    in
    Some (storage +. controllers)
  end

let describe option =
  Printf.sprintf "%s %s %.1fMHz%s"
    (match option.style with Serial -> "serial" | Parallel8 -> "parallel8")
    (match option.role with Master_prom -> "master" | Slave_cpu -> "slave")
    option.mhz
    (if option.chained then " chained" else "")

let apply option arch =
  Vec.iter
    (fun (pe : Arch.pe_inst) ->
      match Pe.ppe_info pe.Arch.ptype with
      | Some info -> pe.Arch.boot_full_us <- boot_full_us option info
      | None -> ())
    arch.Arch.pes

let boot_requirement_met arch requirement =
  Vec.fold
    (fun acc (pe : Arch.pe_inst) ->
      acc
      && (Arch.n_images pe <= 1
         || Vec.for_all
              (fun (m : Arch.mode) ->
                m.Arch.m_clusters = [] || Arch.mode_boot_us pe m <= requirement)
              pe.Arch.modes))
    true arch.Arch.pes

let synthesize arch (spec : Spec.t) ~validate =
  let candidates =
    List.filter_map
      (fun option ->
        match interface_cost option arch with
        | Some cost -> Some (cost, option)
        | None -> None)
      all_options
  in
  let sorted = List.sort compare candidates in
  let boots () =
    Vec.fold (fun acc (pe : Arch.pe_inst) -> (pe.Arch.p_id, pe.Arch.boot_full_us) :: acc)
      [] arch.Arch.pes
  in
  let saved_boots = boots () in
  let restore () =
    List.iter
      (fun (p_id, boot) -> (Vec.get arch.Arch.pes p_id).Arch.boot_full_us <- boot)
      saved_boots
  in
  let rec try_options rejected = function
    | [] ->
        restore ();
        Error "no programming interface meets the boot-time requirement"
    | (cost, option) :: rest ->
        apply option arch;
        let boots = boots () in
        if List.mem boots rejected then try_options rejected rest
        else if
          boot_requirement_met arch spec.boot_time_requirement
          && (boots = saved_boots || validate arch)
        then begin
          arch.Arch.interface_cost <- Some cost;
          Ok option
        end
        else try_options (boots :: rejected) rest
  in
  try_options [] sorted
