(* [Make (V)] is V with a span around each call that crosses the
   {!Vm.Vm_intf.S} boundary. The simulated duration is the change in the
   acting core's [clock] field, read directly: {!Ccsim.Core.now} would
   fold pending interrupts into the clock and so perturb the run, and the
   traced rep must reproduce the untraced reps' simulated outcome
   exactly. *)

open Ccsim

let mmap_span = Span.make "vm.mmap"
let munmap_span = Span.make "vm.munmap"
let touch_span = Span.make "vm.touch"
let read_span = Span.make "vm.read"
let mprotect_span = Span.make "vm.mprotect"
let vm_spans = [ mmap_span; munmap_span; touch_span; read_span; mprotect_span ]

(* Each wrapper below is written out rather than passing a closure to a
   shared helper: a closure per call would add an allocation to the
   hottest path the trace measures. *)
let finish span (core : Core.t) c0 t0 =
  Span.record span ~host_ns:(Span.now_ns () - t0) ~cycles:(core.Core.clock - c0)

module Make (V : Vm.Vm_intf.S) : Vm.Vm_intf.S with type t = V.t = struct
  include V

  let mmap vm (core : Core.t) ~vpn ~npages ?prot ?backing () =
    let c0 = core.Core.clock and t0 = Span.now_ns () in
    V.mmap vm core ~vpn ~npages ?prot ?backing ();
    finish mmap_span core c0 t0

  let munmap vm (core : Core.t) ~vpn ~npages =
    let c0 = core.Core.clock and t0 = Span.now_ns () in
    V.munmap vm core ~vpn ~npages;
    finish munmap_span core c0 t0

  let touch vm (core : Core.t) ~vpn =
    let c0 = core.Core.clock and t0 = Span.now_ns () in
    let r = V.touch vm core ~vpn in
    finish touch_span core c0 t0;
    r

  let read vm (core : Core.t) ~vpn =
    let c0 = core.Core.clock and t0 = Span.now_ns () in
    let r = V.read vm core ~vpn in
    finish read_span core c0 t0;
    r

  let mprotect vm (core : Core.t) ~vpn ~npages prot =
    let c0 = core.Core.clock and t0 = Span.now_ns () in
    V.mprotect vm core ~vpn ~npages prot;
    finish mprotect_span core c0 t0
end
