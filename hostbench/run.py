#!/usr/bin/env python3
"""Host-time benchmark of the LineFS simulator.

Measures how long the simulator takes on the host to run four
closed-loop workloads, end to end and layer by layer, and checks the
simulated outputs.  See hostbench/README.md.

  python3 hostbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
  python3 hostbench/run.py [--reps N] [-o FILE]   every workload, rotating
  python3 hostbench/run.py --smoke                all workloads at 1/50 size
  python3 hostbench/run.py --check | --record-pins
  python3 hostbench/run.py compare OLD.jsonl NEW.jsonl
  python3 hostbench/run.py compare --pairs N OLD_DIR NEW_DIR [--workload W]

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXE = ROOT / "_build" / "default" / HERE.name / "main.exe"
PINS = HERE / "pins.json"
EVENTS_DIR = ROOT / "_build" / "hostbench-events"

# Domains each workload runs on; fanin_write is the only one that
# spreads over two (rack_sharded at two domains is the d2 probe's job).
DOMAINS = {"fanin_write": 2, "sort_compress": 1, "metadata_churn": 1, "rack_sharded": 1}
WORKLOADS = list(DOMAINS)

CHILD_TIMEOUT = 120.0
PROBE_TIMEOUT = 20.0
SMOKE_SIZE = 0.02
PROBE_SIZE = 0.125
MIN_REPS = 3

# End-to-end metrics, their units, and how a run condenses its reps.
# Every rep of a run does bit-identical simulated work, so rep-to-rep
# differences in host time come from the host: other tenants' bursts
# only ever add time.  The fastest rep is therefore the steadiest
# estimate of the program's own cost (its spread across runs is a
# quarter of the median's on a shared 2-core host).  Set-up time and
# memory are medians.
median = statistics.median
END_TO_END = [("wall_s", "s", min), ("cpu_s", "s", min),
              ("setup_s", "s", median), ("peak_rss_mb", "MB", median)]


def say(*a):
    print(*a, file=sys.stderr, flush=True)


def die(code, msg):
    say(f"hostbench: {msg}")
    sys.exit(code)


# Children still running, stopped and reaped if run.py is stopped.
LIVE = set()


def spawn(cmd, **kw):
    p = subprocess.Popen(cmd, **kw)
    LIVE.add(p)
    return p


def stop_children(signum, _frame):
    for p in list(LIVE):
        try:
            p.kill()
            os.waitpid(p.pid, 0)
        except OSError:
            pass
    sys.exit(128 + signum)


# --------------------------------------------------------------------------
# Building and running children
# --------------------------------------------------------------------------


def build():
    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib" / "sim").is_dir():
        die(2, f"{ROOT} holds no simulator sources (dune-project, lib/sim)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", f"./{HERE.name}/main.exe"]
    if shutil.which("dune") is None:
        cmd = ["opam", "exec", "--"] + cmd
    try:
        p = spawn(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        die(2, "neither dune nor opam is on PATH")
    p.wait()
    LIVE.discard(p)
    if p.returncode != 0:
        die(1, "build failed")


def events_ring_log2():
    """log2 of the words in each domain's GC event ring, or None when even
    the smallest ring file would pass the file-size limit.  The OCaml
    runtime maps one file holding a ring for each of 128 possible
    domains plus about 1 MiB of headers (68 MB at 2^16 words), and a
    process that grows a file past RLIMIT_FSIZE is killed.  The traced
    rep drains the rings between events; only sort_compress, whose
    single events run long, loses events below 2^15 words."""
    limit = resource.getrlimit(resource.RLIMIT_FSIZE)[0]
    for log2 in range(16, 9, -1):
        if limit == resource.RLIM_INFINITY or 2 * (2 ** 20 + 128 * 8 * 2 ** log2) <= limit:
            return log2
    return None


class Child:
    """One finished child process: exit status, host costs, its JSON line."""

    def __init__(self, args, timeout, traced=False):
        env = dict(os.environ)
        if traced:
            log2 = events_ring_log2()
            if log2 is None:
                say("hostbench: the file-size limit leaves no room for GC events")
                args = args + ["--no-gc-events"]
            else:
                EVENTS_DIR.mkdir(parents=True, exist_ok=True)
                env["OCAML_RUNTIME_EVENTS_DIR"] = str(EVENTS_DIR)
                env["OCAMLRUNPARAM"] = f"e={log2}"
        spawned = time.time()
        t0 = time.perf_counter()
        p = spawn([str(EXE)] + args, cwd=ROOT, env=env,
                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = [], []
        readers = [threading.Thread(target=lambda f=f, b=b: b.append(f.read()), daemon=True)
                   for f, b in ((p.stdout, out), (p.stderr, err))]
        for t in readers:
            t.start()
        self.timed_out = False

        def kill():
            if p in LIVE:
                self.timed_out = True
                p.kill()

        timer = threading.Timer(timeout, kill)
        timer.daemon = True
        timer.start()
        _, status, ru = os.wait4(p.pid, 0)
        self.wall_s = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        LIVE.discard(p)
        timer.cancel()
        for t in readers:
            t.join()
        self.status = p.returncode
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.peak_rss_mb = ru.ru_maxrss / 1024.0
        self.stderr = b"".join(err).decode(errors="replace").splitlines()
        self.result = None
        lines = b"".join(out).decode(errors="replace").strip().splitlines()
        if self.status == 0 and lines:
            try:
                self.result = json.loads(lines[-1])
            except ValueError:
                pass
        if self.result is not None and "started_at" in self.result:
            self.setup_s = self.result["started_at"] - spawned + self.result["setup_s"]

    def ok(self):
        return self.result is not None and not self.result["errors"]

    def describe(self):
        if self.timed_out:
            head = "timed out"
        elif self.status != 0:
            head = f"exit status {self.status}"
        elif self.result is None:
            head = "no result line"
        else:
            head = "verification failed: " + "; ".join(self.result["errors"][:5])
        return "\n".join([head] + ["  " + l for l in self.stderr[-20:]])


def rep(workload, seed, size=1.0, domains=None, traced=False, single_engine=False,
        trace_out=None, timeout=CHILD_TIMEOUT):
    args = ["rep", "--workload", workload, "--seed", str(seed), "--size", repr(size),
            "--domains", str(domains or DOMAINS[workload])]
    if traced:
        args.append("--traced")
    if single_engine:
        args.append("--single-engine")
    if trace_out:
        args += ["--trace-out", str(Path(trace_out).resolve())]
    c = Child(args, timeout, traced=traced)
    if not c.ok():
        say(f"hostbench: {workload} seed {seed} size {size}: {c.describe()}")
    return c


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


# --------------------------------------------------------------------------
# Pins: simulated outputs per (workload, size, seed)
# --------------------------------------------------------------------------


def load_pins():
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def pin_key(size, seed):
    return f"{size!r}:{seed}"


def check_pin(pins, workload, size, seed, child):
    """None when there is no pin; else whether the outputs match it."""
    pin = pins.get(workload, {}).get(pin_key(size, seed))
    if pin is None or not child.ok():
        return None
    ok = pin["digest"] == child.result["digest"]
    if not ok:
        say(f"hostbench: {workload} seed {seed} size {size}: outputs differ from the pin")
        for o in child.result["outputs"][:5]:
            say("  " + o)
    return ok


# --------------------------------------------------------------------------
# Timed reps
# --------------------------------------------------------------------------


class Reps:
    """The reps of one workload at one seed and size, checked together."""

    def __init__(self, workload, seed, size, pins):
        self.workload, self.seed, self.size, self.pins = workload, seed, size, pins
        self.children = []
        self.timed = []
        self.errors = []

    def add(self, child, timed=True):
        """Every rep counts for correctness and calls; a timed one also
        counts for the end-to-end metrics."""
        self.children.append(child)
        if timed:
            self.timed.append(child)

    def good(self):
        return [c for c in self.children if c.ok()]

    def digests(self):
        return {c.result["digest"] for c in self.good()}

    def correct(self):
        return (not self.errors and bool(self.good())
                and len(self.good()) == len(self.children) and len(self.digests()) <= 1
                and all(check_pin(self.pins, self.workload, self.size, self.seed, c)
                        is not False for c in self.good()))

    def calls(self):
        """Calls a complete rep makes: from a good rep, else from the pin."""
        for c in self.good():
            return c.result["attempted"]
        pin = self.pins.get(self.workload, {}).get(pin_key(self.size, 1), {})
        return pin.get("calls", 1)

    def attempted_failed(self):
        attempted = failed = 0
        for c in self.children:
            if c.ok():
                attempted += c.result["attempted"]
                failed += c.result["failed"]
            else:
                # A rep that crashed, hung or failed verification counts
                # every call a complete rep makes as failed.
                attempted += self.calls()
                failed += self.calls()
        return attempted, failed

    def series(self):
        g = [c for c in self.timed if c.ok()]
        return {
            "wall_s": [c.wall_s for c in g],
            "cpu_s": [c.cpu_s for c in g],
            "setup_s": [c.setup_s for c in g],
            "peak_rss_mb": [c.peak_rss_mb for c in g],
        }


def timed_reps(workloads, seed, pins, seconds=None, reps=None, size=1.0):
    """Reps of each workload, rotating through the workloads, until
    [reps] rounds or [seconds] are spent (at least MIN_REPS rounds)."""
    runs = {w: Reps(w, seed, size, pins) for w in workloads}
    t0 = time.perf_counter()
    rounds = 0
    while True:
        for w in workloads:
            runs[w].add(rep(w, seed, size))
        rounds += 1
        spent = time.perf_counter() - t0
        if reps is not None:
            if rounds >= reps:
                break
        elif rounds >= MIN_REPS and spent * (rounds + 1) / rounds > seconds:
            break
    return runs


# --------------------------------------------------------------------------
# The traced run: per-layer numbers
# --------------------------------------------------------------------------


def run_ledger(quick):
    c = Child(["ledger"] + (["--quick"] if quick else []), CHILD_TIMEOUT)
    if c.result is None:
        say(f"hostbench: ledger: {c.describe()}")
        return {}
    return c.result


def d2_probe(workload, seed, size, tries=3):
    """rack_sharded at 1/8 size, at domains 1 and 2: the run-time ratio
    and the number of 2-domain tries that crashed, hung or diverged."""
    good = {1: [], 2: []}
    for _ in range(tries):
        for d in (1, 2):
            c = rep(workload, seed, size * PROBE_SIZE, domains=d, timeout=PROBE_TIMEOUT)
            if c.ok():
                good[d].append(c.result)
    d1 = {r["digest"] for r in good[1]}
    failures = tries - sum(r["digest"] in d1 for r in good[2])
    if not (good[1] and good[2]):
        return 0.0, failures
    return (median([r["run_s"] for r in good[1]]) / median([r["run_s"] for r in good[2]]),
            failures)


def traced_metrics(runs, seed, size, pins, trace_out=None):
    """Per-layer metrics of one workload: the untraced reps in [runs],
    one traced rep, the ledger probes and the sharded probes."""
    w = runs.workload
    good = [c for c in runs.timed if c.ok()]
    m = {}

    def med(f):
        xs = [f(c) for c in good]
        return median(xs) if xs else 0.0

    untraced_wall = med(lambda c: c.wall_s)
    m["engine.events"] = med(lambda c: c.result["events"])
    m["engine.ns_per_event"] = med(lambda c: c.result["run_s"] / max(1, c.result["events"]) * 1e9)
    m["engine.words_per_event"] = med(lambda c: c.result["minor_words"] / max(1, c.result["events"]))
    m["gc.minor_mw"] = med(lambda c: c.result["minor_words"] / 1e6)
    m["gc.major_mw"] = med(lambda c: c.result["major_words"] / 1e6)
    m["gc.major_collections"] = med(lambda c: c.result["major_collections"])

    def sharded(key):
        return med(lambda c: (c.result["sharded"] or {}).get(key, 0))

    for key in ("windows", "fast_forwards", "messages", "parallel_windows", "barrier_waits"):
        m["sharded." + key] = sharded(key)
    m["sharded.events_per_window"] = (m["engine.events"] / m["sharded.windows"]
                                      if m["sharded.windows"] else 0.0)

    traced = rep(w, seed, size, traced=True, trace_out=trace_out)
    runs.add(traced, timed=False)
    m.update(traced.result.get("layers", {}) if traced.ok() else {})
    m["trace.overhead_ratio"] = traced.wall_s / untraced_wall if untraced_wall else 0.0

    m.update({k: v for k, v in run_ledger(size < 1.0).items() if k.startswith("ledger.")})

    m["sharded.overhead_ratio"] = 0.0
    m["sharded.d2_speedup"] = 0.0
    m["sharded.d2_failures"] = 0
    if w == "rack_sharded":
        single = rep(w, seed, size, single_engine=True)
        if not single.ok():
            runs.errors.append("the rack on one engine failed")
        elif good:
            m["sharded.overhead_ratio"] = med(lambda c: c.result["run_s"]) / single.result["run_s"]
        m["sharded.d2_speedup"], m["sharded.d2_failures"] = d2_probe(w, seed, size)
    elif w == "fanin_write":
        # Outputs must match at 1 and 2 domains (checked with the reps).
        d1 = rep(w, seed, size, domains=1)
        runs.add(d1, timed=False)
        if d1.ok() and good:
            m["sharded.d2_speedup"] = d1.result["run_s"] / med(lambda c: c.result["run_s"])
        m["sharded.d2_failures"] = int(not d1.ok() or runs.digests() != {d1.result["digest"]})
    return m


# --------------------------------------------------------------------------
# BENCHMARK.json
# --------------------------------------------------------------------------


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------
# Measuring
# --------------------------------------------------------------------------


def e2e_metrics(series):
    return {name: {"value": f(series[name]), "unit": unit}
            for name, unit, f in END_TO_END if series[name]}


def print_summary(workload, series, layer=None, units=None):
    print(f"== {workload}")
    for name, value in e2e_metrics(series).items():
        xs = series[name]
        q1, q3 = quartiles(xs)
        print(f"{name:34s} {value['value']:14.6g} {value['unit']:6s} median {median(xs):.6g}"
              f"  q1 {q1:.6g}  q3 {q3:.6g}  min {min(xs):.6g}  n {len(xs)}")
    for name, value in (layer or {}).items():
        print(f"{name:34s} {value:14.6g} {units.get(name, '')}")


def write_record(path, workload, seed, series):
    """One run's end-to-end values and its reps, for compare."""
    if path:
        metrics = {k: v["value"] for k, v in e2e_metrics(series).items()}
        with open(path, "a") as f:
            f.write(json.dumps({"workload": workload, "seed": seed, "metrics": metrics,
                                "reps": series}) + "\n")


def measure_one(a, pins):
    """One workload, one seed, one run: what BENCHMARK.json's command does."""
    runs = timed_reps([a.workload], a.seed, pins,
                      seconds=a.seconds / 2 if a.trace else a.seconds)[a.workload]
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    if a.trace:
        layer = traced_metrics(runs, a.seed, 1.0, pins, a.trace_out)
        # Exactly the per-layer metrics; one the traced rep could not
        # give (it crashed, so the run is not correct) reads 0.
        metrics = {k: {"value": layer.get(k, 0.0), "unit": u} for k, u in units.items()}
        print_summary(a.workload, runs.series(), layer, units)
    else:
        metrics = e2e_metrics(runs.series())
        print_summary(a.workload, runs.series())
    attempted, failed = runs.attempted_failed()
    correct = runs.correct()
    write_record(a.output, a.workload, a.seed, runs.series())
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


def measure_suite(a, pins):
    """Every workload: [--reps] timed reps rotating through the
    workloads, then one traced run per workload."""
    runs = timed_reps(WORKLOADS, a.seed, pins, reps=a.reps)
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    ok = True
    for w in WORKLOADS:
        layer = traced_metrics(runs[w], a.seed, 1.0, pins)
        print_summary(w, runs[w].series(), layer, units)
        attempted, failed = runs[w].attempted_failed()
        correct = runs[w].correct()
        ok &= correct
        print(f"{'correct':34s} {correct}   attempted {attempted}  failed {failed}")
        write_record(a.output, w, a.seed, runs[w].series())
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def smoke(a, pins):
    """All four workloads at 1/50 size, one rep each with pinned outputs
    checked, one traced rep each; fanin_write identical at 1 and 2
    domains; every metric of BENCHMARK.json printed; unmapped event
    time under 1%."""
    spec = load_spec()
    failures = []
    names = set()
    for w in WORKLOADS:
        runs = Reps(w, a.seed, SMOKE_SIZE, pins)
        runs.add(rep(w, a.seed, SMOKE_SIZE))
        if check_pin(pins, w, SMOKE_SIZE, a.seed, runs.children[0]) is None:
            failures.append(f"{w}: no pin for seed {a.seed} at size {SMOKE_SIZE}")
        layer = traced_metrics(runs, a.seed, SMOKE_SIZE, pins)
        if not runs.correct():
            failures.append(f"{w}: outputs wrong or reps disagree")
        unmapped = layer.get("unmapped_share", 1.0)
        if unmapped >= 0.01:
            failures.append(f"{w}: {unmapped:.1%} of event time unmapped")
        names |= set(layer) | set(runs.series())
        print_summary(w, runs.series(), layer, {})
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] not in names:
            failures.append(f"metric {m['name']} not printed")
    for f in failures:
        say("smoke: FAIL " + f)
    print(json.dumps({"correct": not failures}))
    return 1 if failures else 0


def pins_mode(a, pins, record):
    """Seeds 1 (development) and 2 (held out) at the benchmark size and
    the smoke size: record the outputs, or check them."""
    bad = 0
    for w in ([a.workload] if a.workload else WORKLOADS):
        for size in (1.0, SMOKE_SIZE):
            for seed in (1, 2):
                c = rep(w, seed, size)
                if not c.ok():
                    bad += 1
                elif record:
                    pins.setdefault(w, {})[pin_key(size, seed)] = {
                        "digest": c.result["digest"], "calls": c.result["attempted"]}
                else:
                    match = check_pin(pins, w, size, seed, c)
                    print(f"{w:16s} size {size:<5} seed {seed}: "
                          f"{ {True: 'match', False: 'DIFFERS', None: 'no pin'}[match] }")
                    bad += match is not True
    if record:
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"wrote {PINS}")
    print(json.dumps({"correct": bad == 0}))
    return 1 if bad else 0


# --------------------------------------------------------------------------
# compare
# --------------------------------------------------------------------------


def verdict(old, new, bound, lower_better=True, wins=None):
    """improved / worse / unresolved / unchanged for one (workload,
    metric) row.  [wins] is the share of pairs the new side won; without
    pairs it is taken over every (old, new) combination."""
    sign = 1 if lower_better else -1
    mo, mn = median(old), median(new)
    q1, q3 = quartiles(old)
    spread = (q3 - q1) / mo
    if wins is None:
        wins = sum(sign * (o - n) > 0 for o in old for n in new) / (len(old) * len(new))
    if wins >= 0.9 and sign * (mo - mn) > q3 - q1:
        return "improved", wins
    if sign * (mn - mo) > bound * mo and (spread <= bound or wins == 0.0):
        return "worse", wins
    if spread > bound and wins < 1.0:
        return "unresolved", wins
    return "unchanged", wins


def read_records(path):
    """Per workload and metric, one value per run."""
    by = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            r = json.loads(line)
            for k, v in r["metrics"].items():
                by.setdefault(r["workload"], {}).setdefault(k, []).append(v)
    return by


def run_side(directory, workload, seed, seconds):
    cmd = [sys.executable, str(Path(directory) / HERE.name / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=directory, stdout=subprocess.PIPE, stderr=sys.stderr)
    last = r.stdout.decode().strip().splitlines()[-1:]
    return json.loads(last[0])["metrics"] if r.returncode == 0 and last else None


def compare(argv):
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--pairs", type=int, default=0)
    p.add_argument("--workload", action="append")
    p.add_argument("--seconds", type=int, default=None)
    a = p.parse_args(argv)
    spec = load_spec()
    bounds = {m["name"]: (m["bound"], m["better"] == "lower") for m in spec["end_to_end"]}
    rows = []
    if a.pairs:
        seconds = a.seconds or spec["run_seconds"]
        for w in a.workload or WORKLOADS:
            old, new, wins = {}, {}, {}
            for i in range(a.pairs):
                sides = [("old", a.old), ("new", a.new)]
                if i % 2:
                    sides.reverse()
                got = {name: run_side(d, w, i + 1, seconds) for name, d in sides}
                if None in got.values():
                    die(1, f"{w}: pair {i + 1} failed")
                for k, (_, lower) in bounds.items():
                    o, n = got["old"][k]["value"], got["new"][k]["value"]
                    old.setdefault(k, []).append(o)
                    new.setdefault(k, []).append(n)
                    wins[k] = wins.get(k, 0) + ((n < o) if lower else (n > o))
            for k, (bound, lower) in bounds.items():
                rows.append((w, k, old[k], new[k],
                             verdict(old[k], new[k], bound, lower, wins[k] / a.pairs)))
    else:
        old, new = read_records(a.old), read_records(a.new)
        for w in sorted(set(old) & set(new)):
            for k, (bound, lower) in bounds.items():
                if old[w].get(k) and new[w].get(k):
                    rows.append((w, k, old[w][k], new[w][k],
                                 verdict(old[w][k], new[w][k], bound, lower)))
    worse = 0
    print(f"{'workload':16s} {'metric':12s} {'old median [q1,q3]':>30s} "
          f"{'new median [q1,q3]':>30s} {'wins':>5s} verdict")
    for w, k, o, n, (v, wins) in rows:
        oq, nq = quartiles(o), quartiles(n)
        print(f"{w:16s} {k:12s} {median(o):10.4g} [{oq[0]:.4g},{oq[1]:.4g}] n{len(o):<3d}"
              f" {median(n):10.4g} [{nq[0]:.4g},{nq[1]:.4g}] n{len(n):<3d} {wins:5.2f} {v}")
        worse += v == "worse"
    return 1 if worse else 0


# --------------------------------------------------------------------------


def main():
    if sys.argv[1:2] == ["compare"]:
        return compare(sys.argv[2:])
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", help="write the traced rep's spans as Chrome trace JSON")
    p.add_argument("--reps", type=int, default=5, help="timed reps per workload (suite)")
    p.add_argument("-o", "--output", help="append one record per run (JSON lines) for compare")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--check", action="store_true")
    p.add_argument("--record-pins", action="store_true")
    a = p.parse_args()
    build()
    a.seconds = a.seconds or load_spec()["run_seconds"]
    pins = load_pins()
    if a.smoke:
        return smoke(a, pins)
    if a.check or a.record_pins:
        return pins_mode(a, pins, a.record_pins)
    if a.workload:
        return measure_one(a, pins)
    return measure_suite(a, pins)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, stop_children)
    signal.signal(signal.SIGINT, stop_children)
    sys.exit(main())
