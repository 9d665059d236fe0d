#!/bin/sh
# CI entry point: build everything and run the full test suite
# (unit + integration + qcheck properties + the DST fault sweep),
# then the standalone DST gate: a reduced seed sweep plus the four
# explicit failover scenarios, with a determinism check that fails
# the build on any fingerprint mismatch between identical runs;
# then the conformance/crash litmus sweep: differential checks of
# every backend against the model oracle plus faulted litmus runs,
# and the --mutate self-test that proves planted bugs are caught.
# The adversary sweep runs the Byzantine-fabric profile (duplication,
# reordering, corruption, torn oplog tails, bit-rot) over 50 seeds
# with its own determinism re-check.
# Then the host-time benchmark's smoke: every hostbench workload at
# 1/50 size, its simulated outputs checked against hostbench/pins.json
# and every metric name printed; then its full pin check: both seeds
# at full and 1/50 size, failing the build on any mismatch.
# Finally the multicore smokes: a per-node sharded deployment whose
# output must be byte-identical at 1 and 4 domains, an 8-node rack of
# replica groups with cohort clients whose stdout and domain-independent
# sync stats are byte-identical at 1 and 4 domains, with drains that
# demonstrably carry multi-message batches, and a 24-node rack at 2
# domains run three times against 1 domain.  These check correctness
# of the parallel components, not speed; host time is hostbench's job.
set -eu
cd "$(dirname "$0")/.."

dune build
dune runtest --force
dune exec bin/dst_sweep.exe -- "${DST_SEEDS:-12}"
dune exec bin/dst_sweep.exe -- --adversary "${ADVERSARY_SEEDS:-50}"
dune exec bin/litmus_sweep.exe -- \
  --differ-seeds "${LITMUS_SEEDS:-50}" \
  --litmus-seeds "${LITMUS_SEEDS:-50}" \
  --out "${LITMUS_OUT:-_litmus_reports}"
dune exec bin/litmus_sweep.exe -- --mutate --out "${LITMUS_OUT:-_litmus_reports}"

# ---- host-time benchmark smoke and pins -------------------------------
python3 hostbench/run.py --smoke
python3 hostbench/run.py --check

# ---- multicore smoke --------------------------------------------------
# Per-node sharded deployment: one scaled fig4-style cell, domains 1
# vs 4, output byte-identical (clocks, throughput, event counters).
dune exec bin/linefs_sim.exe -- --file-mb 16 --shard-deployment --domains 1 \
  > _shard_smoke_d1.txt
dune exec bin/linefs_sim.exe -- --file-mb 16 --shard-deployment --domains 4 \
  > _shard_smoke_d4.txt
cmp _shard_smoke_d1.txt _shard_smoke_d4.txt || {
  echo "FAIL: sharded deployment output differs between 1 and 4 domains"
  diff _shard_smoke_d1.txt _shard_smoke_d4.txt || true
  exit 1
}
rm -f _shard_smoke_d1.txt _shard_smoke_d4.txt
echo "sharded-deployment smoke: byte-identical at 1 and 4 domains"

# ---- scale smoke ------------------------------------------------------
# Rack-scale path: an 8-node rack (2 replica groups of 4) driven by
# 2-user cohorts, domains 1 vs 4, stdout byte-identical.  The stderr
# sync stats must match too once the two that depend on the domain
# count (parallel=, barrier-waits=) are dropped: that covers batch-max,
# the one stat stdout does not carry.  Each replica group is its own
# component and drains only its own outboxes; at 512 MB one group's
# drain carries two messages at once (batch-max >= 2), where at 64 MB
# every drain carries at most one.
dune exec bin/linefs_sim.exe -- --nodes 8 --group-size 4 --cohort 2 \
  --file-mb 512 --domains 1 > _scale_smoke_d1.txt 2> _scale_smoke_d1.err
dune exec bin/linefs_sim.exe -- --nodes 8 --group-size 4 --cohort 2 \
  --file-mb 512 --domains 4 > _scale_smoke_d4.txt 2> _scale_smoke_d4.err
cmp _scale_smoke_d1.txt _scale_smoke_d4.txt || {
  echo "FAIL: rack output differs between 1 and 4 domains"
  diff _scale_smoke_d1.txt _scale_smoke_d4.txt || true
  exit 1
}
for d in 1 4; do
  sed -E 's/ (parallel|barrier-waits)=[0-9]+//g' _scale_smoke_d$d.err \
    > _scale_smoke_d$d.sync
done
cmp _scale_smoke_d1.sync _scale_smoke_d4.sync || {
  echo "FAIL: rack sync stats differ between 1 and 4 domains"
  diff _scale_smoke_d1.sync _scale_smoke_d4.sync || true
  exit 1
}
grep -q 'batch-max=\([2-9]\|[0-9][0-9]\)' _scale_smoke_d1.err || {
  echo "FAIL: scale smoke never drained a multi-message batch:"
  cat _scale_smoke_d1.err
  exit 1
}
rm -f _scale_smoke_d1.txt _scale_smoke_d4.txt \
      _scale_smoke_d1.err _scale_smoke_d4.err \
      _scale_smoke_d1.sync _scale_smoke_d4.sync
echo "scale smoke: 8-node rack stdout and sync stats byte-identical" \
     "at 1 and 4 domains, multi-message drains exercised"

# ---- 2-domain rack smoke ---------------------------------------------
# A 24-node rack (6 replica groups of 4, 4-user cohorts) on 2 domains,
# three times, each byte-identical to 1 domain: six components handed
# out by the claim index, more than the 8-node smoke above has.
dune exec bin/linefs_sim.exe -- --nodes 24 --group-size 4 --cohort 4 \
  --file-mb 128 --domains 1 > _rack24_d1.txt
for run in 1 2 3; do
  dune exec bin/linefs_sim.exe -- --nodes 24 --group-size 4 --cohort 4 \
    --file-mb 128 --domains 2 > _rack24_d2.txt
  cmp _rack24_d1.txt _rack24_d2.txt || {
    echo "FAIL: 24-node rack output differs between 1 and 2 domains" \
         "(run $run)"
    diff _rack24_d1.txt _rack24_d2.txt || true
    exit 1
  }
done
rm -f _rack24_d1.txt _rack24_d2.txt
echo "rack smoke: 24-node rack byte-identical at 1 and 2 domains, 3 runs"
