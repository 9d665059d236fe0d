open Sim

let barrier_round ~threads ~work ~prio node =
  let remaining = ref threads in
  let done_ = Ivar.create () in
  for _ = 1 to threads do
    Engine.spawn ~name:"streamcluster.thread" (fun () ->
        Hw.Cpu.run ~prio node.Hw.Node.host work;
        decr remaining;
        if !remaining = 0 then Ivar.fill done_ ())
  done;
  Ivar.read done_

let run ?threads ?(iterations = 30) ?(work_per_iter = Time.ms 100)
    ?(prio = Hw.Cpu.prio_normal) ~node () =
  let threads =
    match threads with Some n -> n | None -> Hw.Cpu.cores node.Hw.Node.host
  in
  let t0 = Engine.now () in
  for _ = 1 to iterations do
    barrier_round ~threads ~work:work_per_iter ~prio node
  done;
  Engine.now () - t0

type background = {
  mutable running : bool;
  mutable rounds : int;
  stopped : unit Ivar.t;
}

let start_background ?threads ?(work_per_iter = Time.ms 100)
    ?(prio = Hw.Cpu.prio_normal) ~node () =
  let threads =
    match threads with Some n -> n | None -> Hw.Cpu.cores node.Hw.Node.host
  in
  let bg = { running = true; rounds = 0; stopped = Ivar.create () } in
  Engine.spawn ~name:"streamcluster.bg" (fun () ->
      while bg.running do
        barrier_round ~threads ~work:work_per_iter ~prio node;
        bg.rounds <- bg.rounds + 1
      done;
      Ivar.fill bg.stopped ());
  bg

let stop bg = bg.running <- false
let iterations_done bg = bg.rounds
