(* Host-side handshake for tests that must know a component ran on a
   worker domain, without relying on timing luck.  A component that
   [await]s a condition only another component can make true holds its
   domain while it spins, so the other component can only start on a
   different domain.  The spin never touches simulation state, so the
   simulation is the same as without it; a 10 s CPU-time bound turns a
   worker that never comes into a clear failure instead of a hang. *)

let await ~what cond =
  let t0 = Sys.time () in
  while not (cond ()) do
    if Sys.time () -. t0 > 10. then
      failwith (what ^ " never started on another domain");
    Domain.cpu_relax ()
  done
