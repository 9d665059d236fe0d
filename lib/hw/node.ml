type t = {
  id : int;
  cfg : Config.t;
  host : Cpu.t;
  pm : Pm.t;
  pcie : Pcie.t;
  dma : Dma.t;
  nic : Smartnic.t;
  port : Netlink.port;
  mutable shard : (Sim.Sharded.t * int) option;
}

let create (cfg : Config.t) ~switch ~id =
  let port = Netlink.create_port switch ~bytes_per_sec:cfg.net_bps in
  {
    id;
    cfg;
    host = Cpu.create ~speed:cfg.host_speed ~cores:cfg.host_cores ();
    pm =
      Pm.create ~latency:cfg.pm_latency ~read_bytes_per_sec:cfg.pm_read_bps
        ~write_bytes_per_sec:cfg.pm_write_bps ();
    pcie = Pcie.create ~latency:cfg.pcie_latency ~bytes_per_sec:cfg.pcie_bps ();
    dma = Dma.create ~setup:cfg.dma_setup ~bytes_per_sec:cfg.dma_bps ();
    nic = Smartnic.create cfg ~port;
    port;
    shard = None;
  }

let copy_work t n = Config.copy_work t.cfg n

let pp fmt t =
  Format.fprintf fmt "node%d(host=%dc, nic=%dc)" t.id (Cpu.cores t.host)
    (Cpu.cores (Smartnic.cpu t.nic))
