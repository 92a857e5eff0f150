#!/usr/bin/env python3
"""The bdio benchmark of record: host time of the simulator, per workload.

Builds bdio_perfbench from this checkout's sources, runs one workload for
a fixed measuring window, checks that the simulated outputs are right, and
prints a report whose last line is one JSON object:

  python3 perfbench/run.py --workload sort_paper --seed 42 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics (medians over repeats, each
repeat a fresh process); --trace 1 reports the per-layer metrics from a
traced run, the layer probes and the tracing overhead. See README.md.

Other modes:
  --workload all          every workload, untraced then traced, one table
  --record SEEDS          regenerate digests.json for comma-separated seeds
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

WORKLOADS = ["sort_paper", "scan_paper", "shuffle_wide", "dag_faults"]
# Workloads made of core::RunExperiment cells get a parity check.
PARITY = {"sort_paper", "scan_paper"}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("loop_s", "s"),
    ("peak_rss_mib", "MiB"),
]

# Per-layer metrics, in report order. Counts come from the simulator and
# are identical in every repeat; host times are medians.
PER_LAYER = [
    ("sim.events", "count"),
    ("sim.sim_s", "s"),
    ("sim.events_per_s", "1/s"),
    ("sim.probe_ns_per_event", "ns"),
    ("os.read_hits", "count"),
    ("os.read_misses", "count"),
    ("os.hit_ratio", "ratio"),
    ("os.readahead_units", "count"),
    ("os.evicted_units", "count"),
    ("os.writeback_bytes", "B"),
    ("os.throttle_events", "count"),
    ("os.probe_fill_ns", "ns"),
    ("os.probe_hit_ns", "ns"),
    ("os.probe_miss_ns", "ns"),
    ("storage.requests", "count"),
    ("storage.merge_ratio", "ratio"),
    ("storage.await_ms_p50", "ms"),
    ("storage.await_ms_p99", "ms"),
    ("storage.queue_depth_mean", "count"),
    ("storage.probe_seq_ns", "ns"),
    ("storage.probe_rand_ns", "ns"),
    ("net.bytes", "B"),
    ("net.probe_fanin_ns", "ns"),
    ("net.probe_all2all10_ns", "ns"),
    ("net.probe_all2all40_ns", "ns"),
    ("hdfs.blocks_read", "count"),
    ("hdfs.blocks_written", "count"),
    ("hdfs.remote_read_frac", "ratio"),
    ("hdfs.rereplicated_blocks", "count"),
    ("hdfs.read_failovers", "count"),
    ("mr.spills", "count"),
    ("mr.shuffle_bytes", "B"),
    ("mr.merge_width_mean", "count"),
    ("mr.task_failures", "count"),
    ("mr.retries", "count"),
    ("mr.maps_reexecuted", "count"),
    ("mr.speculative_launched", "count"),
    ("mr.speculative_killed", "count"),
    ("mr.wasted_bytes", "B"),
    ("dag.rounds", "count"),
    ("dag.nodes_completed", "count"),
    ("dag.node_retries", "count"),
    ("dag.expired_bytes", "B"),
    ("faults.injected", "count"),
    ("setup.plan_s", "s"),
    ("setup.bringup_s", "s"),
    ("setup.preload_s", "s"),
    ("setup.arm_s", "s"),
    ("report.extract_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

SETUP_PHASES = ["plan_s", "bringup_s", "preload_s", "arm_s"]
PHASES = SETUP_PHASES + ["loop_s", "extract_s", "teardown_s"]
CHILD_TIMEOUT_S = 150
# Host milliseconds of set-up-only passes at the end of each untraced
# repeat (1 to 20 passes), so set-up time is sampled across the whole
# measuring window.
SETUP_BUDGET_MS = 300


class BenchError(Exception):
    """The benchmark cannot produce a result (build or harness failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- Build -------------------------------------------------------------------


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures and builds bdio_perfbench (a no-op once up to date)."""
    out = build_dir()
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "bdio_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            raise BenchError(f"build step {' '.join(cmd[:3])} exited "
                             f"{r.returncode}")
    binary = out / "bdio_perfbench"
    if not binary.exists():
        raise BenchError(f"{binary} was not built")
    return binary


# --- Child processes ---------------------------------------------------------


def run_child(binary, args):
    """Runs the binary once; returns (json, wall seconds, peak RSS MiB).

    Waits with wait4 so the peak RSS is this child's own, not a high-water
    mark shared with earlier children. None on crash, timeout or bad output.
    """
    start = time.monotonic()
    proc = subprocess.Popen([str(binary)] + [str(a) for a in args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=None)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        log(f"bdio_perfbench {' '.join(map(str, args))} exited "
            f"{proc.returncode}")
        return None, wall, 0.0
    try:
        doc = json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"bdio_perfbench {' '.join(map(str, args))}: unreadable output")
        return None, wall, 0.0
    return doc, wall, usage.ru_maxrss / 1024.0


# --- Strict readers ----------------------------------------------------------


def require(cond, what):
    if not cond:
        raise BenchError(what)


def check_run_doc(doc, labels):
    """Validates one `run` output against the workload's cell list."""
    require(isinstance(doc, dict), "run output is not an object")
    cells = doc.get("cells")
    require(isinstance(cells, list) and len(cells) == len(labels),
            "run output: cells missing or wrong count")
    for cell, label in zip(cells, labels):
        require(isinstance(cell, dict) and cell.get("label") == label,
                f"run output: cell {label} missing")
        require(isinstance(cell.get("ok"), bool), f"{label}: ok malformed")
        for key in PHASES + ["sim_s"]:
            v = cell.get(key)
            require(isinstance(v, (int, float)) and v >= 0,
                    f"{label}: {key} malformed")
        require(isinstance(cell.get("digest"), str), f"{label}: no digest")
        samples = cell.get("setup_samples")
        require(isinstance(samples, list) and samples and
                all(isinstance(v, (int, float)) for v in samples),
                f"{label}: setup_samples malformed")
    layers = doc.get("layers")
    require(isinstance(layers, dict) and layers and
            all(isinstance(v, (int, float)) for v in layers.values()),
            "run output: layers missing or malformed")


def load_digests():
    """Reads digests.json; raises on any missing or malformed field."""
    try:
        doc = json.loads(DIGESTS.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {DIGESTS.name}: {e}")
    require(isinstance(doc, dict) and doc.get("schema") == 1,
            f"{DIGESTS.name}: schema must be 1")
    seeds = doc.get("seeds")
    require(isinstance(seeds, dict) and seeds, f"{DIGESTS.name}: no seeds")
    for seed, per_workload in seeds.items():
        require(seed.isdigit(), f"{DIGESTS.name}: bad seed {seed!r}")
        require(isinstance(per_workload, dict) and
                sorted(per_workload) == sorted(WORKLOADS),
                f"{DIGESTS.name}: seed {seed} lacks a workload")
        for workload, cells in per_workload.items():
            require(isinstance(cells, dict) and cells,
                    f"{DIGESTS.name}: {seed}/{workload} has no cells")
            for label, digest in cells.items():
                require(isinstance(digest, str) and len(digest) == 16 and
                        all(c in "0123456789abcdef" for c in digest),
                        f"{DIGESTS.name}: {seed}/{workload}/{label} malformed")
    return seeds


# --- Statistics ----------------------------------------------------------------


def summarize(values):
    """Median, quartiles and sample count of a list of timings."""
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def fmt_stat(name, unit, s):
    spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
    return (f"  {name:<22} {s['median']:>12.6g} {unit:<5} "
            f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
            f"spread {100 * spread:.1f}%  n={s['n']}")


# --- One workload ------------------------------------------------------------


class Measurement:
    """Everything one invocation measured and checked."""

    def __init__(self, workload, seed, labels):
        self.workload = workload
        self.seed = seed
        self.labels = labels
        self.repeats = []  # (doc, rss_mib, traced)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.probes = None
        self.parity = None
        self.trace_file = None

    def fail(self, count, why):
        self.failed += count
        self.problems.append(why)


def measure_repeats(binary, m, seconds, traced):
    """Fresh-process repeats until the next one would overrun `seconds`.

    Untraced and traced repeats alternate when `traced`; at least one of
    each kind is made.
    """
    start = time.monotonic()
    trace_path = build_dir() / "trace" / f"{m.workload}-seed{m.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    last = 0.0
    i = 0
    while True:
        with_trace = traced and i % 2 == 1
        args = ["run", m.workload, m.seed, 0 if with_trace else SETUP_BUDGET_MS]
        if with_trace:
            args += ["--trace", trace_path]
        doc, wall, rss = run_child(binary, args)
        i += 1
        m.attempted += len(m.labels)
        if doc is None:
            m.fail(len(m.labels), f"repeat {i} crashed or timed out")
        else:
            check_run_doc(doc, m.labels)
            m.repeats.append((doc, rss, with_trace))
            if with_trace:
                m.trace_file = trace_path
        last = max(last, wall)
        elapsed = time.monotonic() - start
        if i >= (2 if traced else 1) and elapsed + last > seconds:
            break


def check_outputs(m, recorded):
    """Failed cells, identical digests across repeats, recorded digests."""
    if not m.repeats:
        return
    expected = recorded.get(str(m.seed), {}).get(m.workload)
    if expected is not None:
        require(sorted(expected) == sorted(m.labels),
                f"{DIGESTS.name}: cells of {m.workload} differ from the "
                "workload; re-record")
    first = {c["label"]: c["digest"] for c in m.repeats[0][0]["cells"]}
    first_layers = m.repeats[0][0]["layers"]
    for n, (doc, _, _) in enumerate(m.repeats):
        for cell in doc["cells"]:
            label = cell["label"]
            if not cell["ok"]:
                m.fail(1, f"repeat {n + 1} {label}: {cell['error']}")
            elif cell["digest"] != first[label]:
                m.fail(1, f"repeat {n + 1} {label}: digest differs from "
                          "repeat 1 (nondeterministic)")
            elif expected is not None and cell["digest"] != expected[label]:
                m.fail(1, f"repeat {n + 1} {label}: digest "
                          f"{cell['digest']} != recorded {expected[label]}")
        if doc["layers"] != first_layers:
            m.fail(1, f"repeat {n + 1}: layer counts differ from repeat 1")


def measure_parity(binary, m):
    doc, _, _ = run_child(binary, ["parity", m.workload, m.seed])
    m.attempted += 1
    if doc is None or not isinstance(doc.get("identical"), bool):
        m.fail(1, "parity check crashed")
        return
    m.parity = doc
    if not doc["identical"]:
        m.fail(1, "parity with core::RunExperiment: differs in " +
               ", ".join(doc.get("mismatches", [])))


def measure_probes(binary, m):
    path = build_dir() / "trace" / f"probes-seed{m.seed}.json"
    doc, _, _ = run_child(binary, ["probes", m.seed, 3, "--trace", path])
    if doc is None or not isinstance(doc.get("probes"), list):
        m.attempted += 1
        m.fail(1, "probes crashed")
        return
    m.probes = doc
    for p in doc["probes"]:
        m.attempted += 1
        if not p.get("ok"):
            m.fail(1, f"probe {p.get('metric')}: {p.get('error')}")


def repeat_totals(m, key, traced=False):
    return [sum(c[key] for c in doc["cells"])
            for doc, _, t in m.repeats if t == traced]


def cell_timing(docs, keys):
    """A workload timing: the sum over cells of each cell's median over
    repeats (one slow moment then moves one cell's median, not the run's).
    Quartiles are those of the per-repeat totals."""
    totals = [sum(c[k] for c in d["cells"] for k in keys) for d in docs]
    s = summarize(totals)
    s["median"] = sum(
        statistics.median(sum(d["cells"][i][k] for k in keys) for d in docs)
        for i in range(len(docs[0]["cells"])))
    return s


def end_to_end(m):
    plain = [doc for doc, _, t in m.repeats if not t]
    samples = [[v for d in plain for v in d["cells"][i]["setup_samples"]]
               for i in range(len(m.labels))]
    setup = summarize([sum(s) for s in zip(*samples)])
    setup["median"] = sum(statistics.median(s) for s in samples)
    return {
        "wall_s": cell_timing(plain, PHASES),
        "setup_s": setup,
        "loop_s": cell_timing(plain, ["loop_s"]),
        "peak_rss_mib": summarize([rss for _, rss, t in m.repeats if not t]),
    }


def per_layer(m):
    out = dict(m.repeats[0][0]["layers"])
    walls = lambda traced: [sum(c[k] for c in doc["cells"] for k in PHASES)
                            for doc, _, t in m.repeats if t == traced]
    plain_loop = statistics.median(repeat_totals(m, "loop_s"))
    out["sim.events_per_s"] = out["sim.events"] / plain_loop
    for phase, name in [("plan_s", "setup.plan_s"),
                        ("bringup_s", "setup.bringup_s"),
                        ("preload_s", "setup.preload_s"),
                        ("arm_s", "setup.arm_s"),
                        ("extract_s", "report.extract_s")]:
        out[name] = statistics.median(repeat_totals(m, phase, traced=True))
    out["trace.overhead_frac"] = (statistics.median(walls(True)) /
                                  statistics.median(walls(False)) - 1.0)
    for p in m.probes["probes"]:
        out[p["metric"]] = p["ns_per_op"]
    missing = [name for name, _ in PER_LAYER if name not in out]
    require(not missing, f"per-layer metrics missing: {missing}")
    return out


def report(m, traced):
    """Prints the human-readable report; returns the metrics dict."""
    print(f"== {m.workload} seed={m.seed} "
          f"{'traced' if traced else 'untraced'}: "
          f"{len(m.repeats)} repeats of {len(m.labels)} cells")
    plain = [doc for doc, _, t in m.repeats if not t]
    print("  per cell (median over untraced repeats):")
    for i, label in enumerate(m.labels):
        loops = [d["cells"][i]["loop_s"] for d in plain]
        first = m.repeats[0][0]["cells"][i]
        print(f"    {label:<22} loop {statistics.median(loops):.4f} s  "
              f"events {first['events']}  sim {first['sim_s']:.1f} s  "
              f"digest {first['digest']}")
    metrics = {}
    if not traced:
        stats = end_to_end(m)
        for name, unit in END_TO_END:
            s = stats[name]
            print(fmt_stat(name, unit, s))
            metrics[name] = {"value": s["median"], "unit": unit}
    else:
        values = per_layer(m)
        for name, unit in PER_LAYER:
            print(f"  {name:<26} {values[name]:>16.8g} {unit}")
            metrics[name] = {"value": values[name], "unit": unit}
        self_s = {}
        for doc, _, t in m.repeats:
            if t:
                for layer, s in doc["span_self_s"].items():
                    self_s.setdefault(layer, []).append(s)
        print("  span self time per layer (median over traced repeats):")
        for layer, vals in sorted(self_s.items()):
            print(f"    {layer:<12} {statistics.median(vals):.6f} s")
        print(f"  spans written to {m.trace_file}")
    frac = m.failed / m.attempted if m.attempted else 1.0
    print(f"  failed_frac {frac:.4f} ({m.failed}/{m.attempted})")
    if m.parity is not None:
        print(f"  parity with core::RunExperiment: "
              f"{'identical' if m.parity['identical'] else 'DIFFERS'}")
    for p in m.problems:
        print(f"  FAILED: {p}")
    return metrics


def run_workload(binary, workload, seed, seconds, traced, recorded):
    labels, _, _ = run_child(binary, ["cells", workload])
    require(labels is not None and labels.get("cells"),
            f"no cells for workload {workload}")
    m = Measurement(workload, seed, labels["cells"])
    measure_repeats(binary, m, seconds, traced)
    require(any(not t for _, _, t in m.repeats), "every repeat failed")
    check_outputs(m, recorded)
    if traced:
        require(any(t for _, _, t in m.repeats), "no traced repeat ran")
        measure_probes(binary, m)
        require(m.probes is not None, "probes failed to run")
    if workload in PARITY:
        measure_parity(binary, m)
    return m, report(m, traced)


# --- Modes ---------------------------------------------------------------------


def record(binary, seeds):
    """Regenerates digests.json from single runs of every workload."""
    table = {}
    for seed in seeds:
        table[str(seed)] = {}
        for workload in WORKLOADS:
            doc, _, _ = run_child(binary, ["run", workload, seed, 0])
            require(doc is not None, f"{workload} seed {seed} failed")
            bad = [c["label"] for c in doc["cells"] if not c["ok"]]
            require(not bad, f"{workload} seed {seed}: failed cells {bad}")
            table[str(seed)][workload] = {c["label"]: c["digest"]
                                          for c in doc["cells"]}
            log(f"recorded {workload} seed {seed}")
    DIGESTS.write_text(json.dumps({"schema": 1, "seeds": table}, indent=1,
                                  sort_keys=True) + "\n")
    print(f"wrote {DIGESTS} for seeds {', '.join(map(str, seeds))}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", metavar="SEEDS",
                        help="comma-separated seeds to record digests for")
    args = parser.parse_args()
    require(args.seed >= 0, "--seed must be >= 0")
    require(args.seconds >= 1, "--seconds must be >= 1")

    binary = build()
    if args.record:
        record(binary, [int(s) for s in args.record.split(",")])
        return 0
    recorded = load_digests()
    if args.workload != "all":
        m, metrics = run_workload(binary, args.workload, args.seed,
                                  args.seconds, args.trace == 1, recorded)
        print(json.dumps({"correct": m.failed == 0,
                          "attempted": m.attempted,
                          "failed": m.failed,
                          "metrics": metrics}))
        return 0
    summary = {}
    for workload in WORKLOADS:
        for traced in (False, True):
            m, metrics = run_workload(binary, workload, args.seed,
                                      args.seconds, traced, recorded)
            entry = summary.setdefault(workload, {
                "correct": True, "attempted": 0, "failed": 0, "metrics": {}})
            entry["correct"] = entry["correct"] and m.failed == 0
            entry["attempted"] += m.attempted
            entry["failed"] += m.failed
            entry["metrics"].update(metrics)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(1)
