open Sim

type event =
  | Lease of Linefs.Lease.event
  | Epoch of int
  | Fault of string
  | Note of string

type record = { index : int; time : Time.t; event : event }

type t = { mutable records : record list; mutable count : int }

let create () = { records = []; count = 0 }

let add t event =
  t.records <-
    { index = t.count; time = Engine.now (); event } :: t.records;
  t.count <- t.count + 1

let count t = t.count
let events t = List.rev t.records

let ltype_name = function
  | Linefs.Lease.Read -> "R"
  | Linefs.Lease.Write -> "W"

let pp_event fmt = function
  | Lease (Linefs.Lease.Granted { node; client; inum; ltype; epoch; expires })
    ->
      Format.fprintf fmt "grant n%d c%d i%d %s e%d exp=%a" node client inum
        (ltype_name ltype) epoch Time.pp expires
  | Lease (Linefs.Lease.Released { node; client; inum }) ->
      Format.fprintf fmt "release n%d c%d i%d" node client inum
  | Epoch e -> Format.fprintf fmt "epoch %d" e
  | Fault s -> Format.fprintf fmt "fault %s" s
  | Note s -> Format.fprintf fmt "note %s" s

let pp_record fmt r =
  Format.fprintf fmt "#%d @%a %a" r.index Time.pp r.time pp_event r.event
