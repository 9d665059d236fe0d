open Sim

type t = { lat : Time.t; id : int }

type port = {
  switch : t;
  egress : Bandwidth.t;
  ingress : Bandwidth.t;
  mutable received : int;
}

(* Atomic: deployments built concurrently on different domains must
   still get unique switch ids. *)
let switch_counter = Atomic.make 0

let create_switch ?(latency = Time.of_us_f 1.5) () =
  { lat = latency; id = Atomic.fetch_and_add switch_counter 1 + 1 }

let create_port sw ~bytes_per_sec =
  {
    switch = sw;
    egress = Bandwidth.create ~bytes_per_sec ();
    ingress = Bandwidth.create ~bytes_per_sec ();
    received = 0;
  }

let send ~src ~dst n =
  if src == dst then invalid_arg "Netlink.send: src and dst are the same port";
  if src.switch.id <> dst.switch.id then
    invalid_arg "Netlink.send: ports on different switches";
  Bandwidth.transfer src.egress n;
  Engine.sleep src.switch.lat;
  (* Ingress is accounted but not serialized (see interface note). *)
  dst.received <- dst.received + n

(* Receiver half of a cross-shard transfer: account the bytes at the
   destination port without the sender-side costs (already paid on the
   sending shard). *)
let deliver dst n = dst.received <- dst.received + n

let latency t = t.lat
let egress p = p.egress
let ingress p = p.ingress
let bytes_sent p = Bandwidth.total_bytes p.egress
let bytes_received p = p.received
