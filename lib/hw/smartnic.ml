type t = {
  cpu : Cpu.t;
  mem : Bandwidth.t;
  capacity : int;
  mutable used : int;
  port : Netlink.port;
}

let create (cfg : Config.t) ~port =
  {
    cpu = Cpu.create ~speed:cfg.nic_speed ~cores:cfg.nic_cores ();
    mem = Bandwidth.create ~bytes_per_sec:cfg.nic_mem_bps ();
    capacity = cfg.nic_mem_capacity;
    used = 0;
    port;
  }

let cpu t = t.cpu
let port t = t.port
let mem_copy t n = Bandwidth.transfer t.mem n

let alloc t n =
  assert (n >= 0);
  t.used <- t.used + n

let free t n =
  assert (n >= 0);
  t.used <- max 0 (t.used - n)

let reset_mem t = t.used <- 0
let mem_used t = t.used
let mem_capacity t = t.capacity
let mem_frac t = float_of_int t.used /. float_of_int t.capacity
