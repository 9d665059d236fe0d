(* In-process half of the host-time benchmark; run.py runs it.

     main.exe rep --workload W [--seed N] [--size F] [--domains D]
                  [--traced] [--trace-out FILE] [--single-engine]
                  [--no-gc-events]
     main.exe ledger

   [rep] runs one rep of one workload and prints one JSON line: set-up
   and run time, engine events, GC counters, the client calls it made,
   and the simulated outputs with their digest.  With [--traced] it
   also turns on the engine's per-event-kind profile, times every
   client call and reads GC pauses (unless [--no-gc-events]), and adds
   per-layer numbers.
   [ledger] prints the per-layer cost probes. *)

(* Wall clock at entry, after the libraries' initialisers: run.py
   counts exec to here as set-up. *)
let started_at = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let obj kvs = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) kvs) ^ "}"
let arr vs = "[" ^ String.concat ", " vs ^ "]"
let int i = string_of_int i

(* ------------------------------------------------------------------ *)
(* Per-layer numbers from a traced rep                                 *)
(* ------------------------------------------------------------------ *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p /. 100.0 *. float_of_int n)))

let sorted_of f (cells : Cells.cell list) =
  let xs =
    List.concat_map
      (fun (c : Cells.cell) ->
        let k = c.calls in
        List.filter_map (fun i -> f k i) (List.init k.Probe.n Fun.id))
      cells
    |> Array.of_list
  in
  Array.sort compare xs;
  xs

let span_int (k : Probe.calls) i j = k.ints.((i * Probe.ni) + j)
let span_self (k : Probe.calls) i = Float.Array.get k.self i

(* Mean host cost per call over the last tenth of each cell's calls
   over the first tenth: grows when per-call cost rises with run
   length. *)
let host_growth (cells : Cells.cell list) =
  let first = ref 0.0 and last = ref 0.0 in
  List.iter
    (fun (c : Cells.cell) ->
      let k = c.calls in
      let tenth = k.n / 10 in
      for i = 0 to tenth - 1 do
        first := !first +. span_self k i;
        last := !last +. span_self k (k.n - 1 - i)
      done)
    cells;
  if !first > 0.0 then !last /. !first else 0.0

let layer_metrics (cells : Cells.cell list) ~cpu_run_s ~pause_s ~cpu_s =
  let rows = Sim.Engine.profile_snapshot () in
  let secs = Hashtbl.create 16 and evs = Hashtbl.create 16 in
  List.iter
    (fun (kind, count, s, _) ->
      let l = Probe.layer_of_kind kind in
      let add t v = Hashtbl.replace t l (v +. Option.value ~default:0.0 (Hashtbl.find_opt t l)) in
      add secs s;
      add evs (float_of_int count))
    rows;
  let event_s = List.fold_left (fun a (_, _, s, _) -> a +. s) 0.0 rows in
  let client = ref 0.0 in
  List.iter
    (fun (c : Cells.cell) ->
      Hashtbl.iter
        (fun l s ->
          client := !client +. !s;
          Hashtbl.replace secs l (Option.value ~default:0.0 (Hashtbl.find_opt secs l) -. !s))
        c.calls.client_by_layer)
    cells;
  let get t l = Option.value ~default:0.0 (Hashtbl.find_opt t l) in
  let sim = sorted_of (fun k i -> Some (float_of_int (span_int k i 4) /. 1000.0)) cells in
  let fsync =
    sorted_of
      (fun k i ->
        if span_int k i 2 = Probe.kind_index Probe.Fsync then
          Some (float_of_int (span_int k i 4) /. 1000.0)
        else None)
      cells
  in
  let host = sorted_of (fun k i -> Some (span_self k i *. 1e6)) cells in
  let sum f = List.fold_left (fun a (c : Cells.cell) -> a + f c.calls) 0 cells in
  List.concat_map (fun l -> [ ("self_s." ^ l, get secs l); ("events." ^ l, get evs l) ]) Probe.layers
  @ [
      ("self_s.client", !client);
      ("self_s.outside_events", Float.max 0.0 (cpu_run_s -. event_s));
      ("unmapped_share", if event_s > 0.0 then get secs "unmapped" /. event_s else 0.0);
      ("client.ops", float_of_int (sum (fun k -> k.Probe.completed)));
      ("client.failed", float_of_int (sum (fun k -> k.Probe.failed)));
      ("client.sim_us_p50", percentile sim 50.0);
      ("client.sim_us_p99", percentile sim 99.0);
      ("client.fsync_sim_us_p99", percentile fsync 99.0);
      ("client.host_us_p50", percentile host 50.0);
      ("client.host_us_p99", percentile host 99.0);
      ("client.host_us_growth", host_growth cells);
      ("gc.pause_s", pause_s);
      ("gc.pause_share", if cpu_s > 0.0 then pause_s /. cpu_s else 0.0);
    ]

(* Chrome trace-event JSON: one complete event per client call on its
   virtual-time interval (pid = cell, tid = client), with the call's
   host cost in args, and one set-up event per cell. *)
let write_trace path (cells : Cells.cell list) =
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  let first = ref true in
  let emit s =
    if not !first then output_string oc ",\n";
    first := false;
    output_string oc s
  in
  List.iter
    (fun (c : Cells.cell) ->
      let k = c.calls in
      emit
        (obj
           [
             ("name", str "setup"); ("ph", str "X"); ("ts", "0"); ("dur", "0");
             ("pid", int k.cell); ("tid", "0"); ("args", obj [ ("host_s", num c.setup_s) ]);
           ]);
      for i = 0 to k.n - 1 do
        emit
          (obj
             [
               ("name", str Probe.kind_names.(span_int k i 2));
               ("ph", str "X");
               ("ts", num (float_of_int (span_int k i 3) /. 1000.0));
               ("dur", num (float_of_int (span_int k i 4) /. 1000.0));
               ("pid", int k.cell);
               ("tid", int (span_int k i 0));
               ( "args",
                 obj [ ("seq", int (span_int k i 1)); ("host_us", num (span_self k i *. 1e6)) ] );
             ])
      done)
    cells;
  output_string oc "\n]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let rep ~workload ~env ~single_engine ~trace_out ~gc_events =
  let run =
    if single_engine then Cells.rack_single_engine
    else
      match List.assoc_opt workload Cells.workloads with
      | Some f -> f
      | None -> failwith ("unknown workload " ^ workload)
  in
  let pauses =
    if env.Cells.traced then begin
      let poll, read =
        if gc_events then Probe.gc_pauses () else (ignore, fun () -> (0.0, 0))
      in
      Sim.Engine.profile_set_clock (Probe.polling_clock poll);
      Sim.Engine.profile_reset ();
      Sim.Engine.profile_enable true;
      Some read
    end
    else None
  in
  let ev0 = Sim.Engine.global_events_executed () in
  let gc0 = Gc.quick_stat () in
  let cpu0 = cpu_now () in
  let t0 = Unix.gettimeofday () in
  let cells, sh = run env in
  let run_s = Unix.gettimeofday () -. t0 in
  let cpu_run_s = cpu_now () -. cpu0 in
  Sim.Engine.profile_enable false;
  let gc1 = Gc.quick_stat () in
  let events = Sim.Engine.global_events_executed () - ev0 in
  let outputs =
    List.map
      (fun (c : Cells.cell) ->
        Printf.sprintf "%s calls=%d lat=%x" c.out c.calls.completed c.calls.lat)
      cells
  in
  let sum f = List.fold_left (fun a (c : Cells.cell) -> a + f c.calls) 0 cells in
  let layers =
    match pauses with
    | None -> []
    | Some read ->
        let pause_s, lost = read () in
        if lost > 0 then Printf.eprintf "runtime events: %d lost\n%!" lost;
        Option.iter (fun p -> write_trace p cells) trace_out;
        [
          ( "layers",
            obj
              (List.map
                 (fun (k, v) -> (k, num v))
                 (layer_metrics cells ~cpu_run_s ~pause_s ~cpu_s:(cpu_now ()))) );
        ]
  in
  let sharded =
    match sh with
    | None -> "null"
    | Some sh ->
        let s = Sim.Sharded.stats sh in
        obj
          [
            ("windows", int s.windows);
            ("parallel_windows", int s.parallel_windows);
            ("barrier_waits", int s.barrier_waits);
            ("fast_forwards", int s.fast_forwards);
            ("messages", int s.messages);
          ]
  in
  print_endline
    (obj
       ([
          ("workload", str workload);
          ("started_at", num started_at);
          ("seed", int env.seed);
          ("size", num env.size);
          ("domains", int env.domains);
          ("setup_s", num (List.fold_left (fun a (c : Cells.cell) -> a +. c.setup_s) 0.0 cells));
          ("run_s", num run_s);
          ("events", int events);
          ("minor_words", num (gc1.Gc.minor_words -. gc0.Gc.minor_words));
          ("major_words", num (gc1.Gc.major_words -. gc0.Gc.major_words));
          ("major_collections", int (gc1.Gc.major_collections - gc0.Gc.major_collections));
          ("attempted", int (sum (fun k -> k.Probe.attempted)));
          ("failed", int (sum (fun k -> k.Probe.failed + k.attempted - k.completed)));
          ("outputs", arr (List.map str outputs));
          ("digest", str (Digest.to_hex (Digest.string (String.concat "\n" outputs))));
          ("errors", arr (List.concat_map (fun (c : Cells.cell) -> List.map str c.errors) cells));
          ("sharded", sharded);
        ]
       @ layers))

let ledger () =
  print_endline (obj (List.map (fun (name, probe) -> (name, num (probe ()))) Ledger.probes))

let () =
  Sim.Sharded.set_clock Unix.gettimeofday;
  let args = List.tl (Array.to_list Sys.argv) in
  let rec flag name = function
    | f :: v :: _ when f = name -> Some v
    | _ :: rest -> flag name rest
    | [] -> None
  in
  let value name default conv = Option.fold ~none:default ~some:conv (flag name args) in
  match args with
  | "rep" :: _ ->
      let cores = Domain.recommended_domain_count () in
      let env =
        {
          Cells.seed = value "--seed" 1 int_of_string;
          size = value "--size" 1.0 float_of_string;
          domains = max 1 (min cores (value "--domains" 1 int_of_string));
          traced = List.mem "--traced" args;
        }
      in
      rep
        ~workload:(value "--workload" "" Fun.id)
        ~env
        ~single_engine:(List.mem "--single-engine" args)
        ~trace_out:(flag "--trace-out" args)
        ~gc_events:(not (List.mem "--no-gc-events" args))
  | "ledger" :: _ ->
      if List.mem "--quick" args then Ledger.min_s := 0.02;
      ledger ()
  | _ ->
      prerr_endline "usage: main.exe (rep --workload W [options] | ledger)";
      exit 2
