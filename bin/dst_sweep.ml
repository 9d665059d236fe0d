(* CI gate: reduced deterministic-simulation sweep.

   Runs a slice of the seeded random-scenario sweep plus the explicit
   failover scenarios (primary NIC crash with host fallback, crash
   during fail-back, permanent replica death with chain
   reconfiguration, double failure), then re-runs one spec from each
   family to assert fingerprint determinism.  Exits nonzero on any
   invariant violation, wedge, or determinism mismatch.

   Usage:
     dst_sweep [generated-seed-count]        sweep (default 12 seeds)
     dst_sweep --adversary N                 Byzantine-fabric sweep (N seeds)
     dst_sweep --print-fingerprints          print pinned-scenario fingerprints
     dst_sweep --check-fingerprints FILE     compare against a committed file

   The adversary sweep draws plans only from duplication, reordering,
   corruption and storage faults at aggressive probabilities — the
   profile that exercises idempotent RPC, end-to-end integrity
   trailers and the recovery scrub — and re-checks one seed for
   fingerprint determinism.

   The fingerprint modes pin a fixed set of scenarios so that pure
   wall-clock optimisations of the data plane can be verified not to
   drift virtual-time behaviour: the expected file is committed and CI
   re-checks it on every change. *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n%!" s)
    fmt

let check_all named =
  List.iter
    (fun (what, spec) ->
      let o = Fault.Scenario.run spec in
      if Fault.Scenario.failed o then
        fail "%s: %s" what (Format.asprintf "%a" Fault.Scenario.pp_outcome o)
      else Printf.printf "ok   %s\n%!" what)
    named

let check_deterministic ~what spec =
  let fp () = Fault.Dst.fingerprint (Fault.Dst.run_spec spec).Fault.Dst.outcome in
  let f1 = fp () in
  let f2 = fp () in
  if f1 <> f2 then
    fail "%s: fingerprint mismatch:\n  %s\n  %s" what f1 f2
  else Printf.printf "ok   %s (deterministic)\n%!" what

(* Fixed scenarios whose fingerprints are pinned in
   test/dst_fingerprints.expected. *)
let pinned () =
  List.concat
    [
      List.map
        (fun seed ->
          (Printf.sprintf "generated-%d" seed, Fault.Scenario.generate ~seed))
        [ 1; 2; 3; 4; 5 ];
      List.map
        (fun seed ->
          ( Printf.sprintf "adversary-%d" seed,
            Fault.Scenario.generate_adversary ~seed ))
        [ 1; 2 ];
      [
        ("failover-primary-crash-1", Fault.Scenario.failover_primary_crash ~seed:1);
        ( "failover-crash-during-failback-1",
          Fault.Scenario.failover_crash_during_failback ~seed:1 );
        ("failover-replica-death-1", Fault.Scenario.failover_replica_death ~seed:1);
        ("failover-double-failure-1", Fault.Scenario.failover_double_failure ~seed:1);
      ];
    ]

let fingerprint_lines () =
  List.map
    (fun (name, spec) ->
      let r = Fault.Dst.run_spec spec in
      Printf.sprintf "%s %s" name
        (Fault.Dst.fingerprint r.Fault.Dst.outcome))
    (pinned ())

let print_fingerprints () =
  List.iter print_endline (fingerprint_lines ());
  exit 0

let check_fingerprints file =
  let ic = open_in file in
  let expected = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then expected := line :: !expected
     done
   with End_of_file -> close_in ic);
  let expected = List.rev !expected in
  let actual = fingerprint_lines () in
  let bad = ref 0 in
  let rec cmp e a =
    match (e, a) with
    | [], [] -> ()
    | e :: es, a :: as_ ->
        if e <> a then begin
          incr bad;
          Printf.printf "MISMATCH\n  expected: %s\n  actual:   %s\n%!" e a
        end
        else Printf.printf "ok   %s\n%!" a;
        cmp es as_
    | _ ->
        incr bad;
        Printf.printf "MISMATCH: expected %d fingerprints, got %d\n%!"
          (List.length expected) (List.length actual)
  in
  cmp expected actual;
  if !bad > 0 then begin
    Printf.printf "%d fingerprint mismatch(es) — virtual-time drift!\n%!" !bad;
    exit 1
  end;
  print_endline "fingerprints match";
  exit 0

let adversary_sweep n =
  let named =
    List.init n (fun i ->
        let seed = i + 1 in
        ( Printf.sprintf "adversary seed %d" seed,
          Fault.Scenario.generate_adversary ~seed ))
  in
  check_all named;
  check_deterministic ~what:"adversary seed 1"
    (Fault.Scenario.generate_adversary ~seed:1);
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "adversary sweep clean";
  exit 0

let () =
  let args = Array.to_list Sys.argv in
  (match args with
  | _ :: "--print-fingerprints" :: _ -> print_fingerprints ()
  | _ :: "--check-fingerprints" :: file :: _ -> check_fingerprints file
  | _ :: "--adversary" :: n :: _ -> adversary_sweep (int_of_string n)
  | _ -> ());
  let nseeds = match args with _ :: n :: _ -> int_of_string n | _ -> 12 in
  let generated =
    List.init nseeds (fun i ->
        let seed = i + 1 in
        (Printf.sprintf "generated seed %d" seed, Fault.Scenario.generate ~seed))
  in
  check_all generated;
  let failovers =
    [
      ("failover-primary-crash", Fault.Scenario.failover_primary_crash);
      ( "failover-crash-during-failback",
        Fault.Scenario.failover_crash_during_failback );
      ("failover-replica-death", Fault.Scenario.failover_replica_death);
      ("failover-double-failure", Fault.Scenario.failover_double_failure);
    ]
  in
  check_all
    (List.concat_map
       (fun (name, mk) ->
         List.map
           (fun seed -> (Printf.sprintf "%s seed %d" name seed, mk ~seed))
           [ 1; 2; 3 ])
       failovers);
  check_deterministic ~what:"generated seed 1"
    (Fault.Scenario.generate ~seed:1);
  check_deterministic ~what:"failover-primary-crash seed 1"
    (Fault.Scenario.failover_primary_crash ~seed:1);
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "dst sweep clean"
