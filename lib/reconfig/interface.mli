(** Reconfiguration controller interface synthesis (Section 4.4).

    FPGAs are programmed serially or through an 8-bit parallel port, in
    master mode (from a standalone PROM) or slave mode (fed by a CPU);
    interface clocks range 1-10 MHz, and multiple devices may be chained
    to share one PROM and controller.  Each option trades boot time
    against dollars; CRUSADE picks the cheapest option that meets the
    system's boot-time requirement (and keeps the schedule feasible,
    since boot time enters finish-time estimation through the
    reboot task). *)

type style = Serial | Parallel8
type role = Master_prom | Slave_cpu

type option_t = {
  style : style;
  role : role;
  mhz : float;
  chained : bool;  (** devices chained on one programming bus/PROM *)
}

val all_options : option_t list
(** The full option space (2 styles x 2 roles x 4 clock rates x
    chained/unchained). *)

val boot_full_us : option_t -> Crusade_resource.Pe.ppe_info -> int
(** Time to load a full configuration image through this interface. *)

val interface_cost : option_t -> Crusade_alloc.Arch.t -> float option
(** Dollar cost of the controller(s) and image storage for the given
    architecture; [None] when the option is inapplicable (slave mode
    without any CPU in the architecture). *)

val describe : option_t -> string

val synthesize :
  Crusade_alloc.Arch.t ->
  Crusade_taskgraph.Spec.t ->
  validate:(Crusade_alloc.Arch.t -> bool) ->
  (option_t, string) result
(** Tries the applicable options in increasing cost; commits the first
    whose mode-switch boot times stay within
    [spec.boot_time_requirement] and for which [validate] (typically a
    re-schedule checking deadlines) accepts the updated architecture.
    On success the architecture's per-PPE [boot_full_us] and
    [interface_cost] are updated.

    [validate] is called only when its answer is not already known: an
    option that leaves every [boot_full_us] as it was on entry is
    accepted without it, and an option whose boot times equal those of
    an option already rejected is skipped.  Both rules are exact when
    [validate] accepts the architecture as it was on entry and has no
    side effect when it rejects — as a re-schedule that keeps the
    current schedule unless the new one is no worse does. *)
