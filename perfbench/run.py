#!/usr/bin/env python3
"""The repository benchmark: the simulator and the dtnd daemon, end to end.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all     # every workload; rewrites BENCHMARK.json
    python3 perfbench/run.py --record-digests   # re-records the default seed's outputs

Builds perfbench_harness from the library sources under src/ into
.bench_build/ (the first run takes about a minute), runs one workload, checks
its outputs and prints, as the last line of stdout, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, measured with tracing off; --trace 1 reports the per-layer metrics of
a traced replay. README.md in this directory describes the workloads, the
metrics and the baseline.
"""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "perfbench_harness"
SELFTEST = BUILD / "perfbench_selftest"
DIGESTS = HERE / "digests.json"
MANIFEST = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 1
RUN_SECONDS = 20
HARNESS_TIMEOUT_S = 170

WORKLOADS = [
    {"name": "mit_fig10_all",
     "why": "Fig. 10 cell on MIT Reality, five schemes x 2 reps through "
            "run_comparison at 4 threads: per-tick path maintenance dominates "
            "(engine self time over 80% of sim.run)"},
    {"name": "dense41_contact",
     "why": "entry-rich 41-node cell with one maintenance tick per run: the "
            "contact protocol dominates and a path-table change should leave "
            "it unchanged"},
    {"name": "mit_dtnd_replay",
     "why": "dtnd-default daemon replaying the second half of the MIT trace "
            "under two open-loop readers: incremental single-root repair "
            "instead of full per-tick builds"},
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
]

SCHEMES = ("ncl", "nocache", "random", "cachedata", "bundle")


def _per_layer():
    seconds, count, ratio = "s", "count", "ratio"
    rows = [
        ("traceio.load_s", seconds, "lower"),
        ("graph.warmup_graph_s", seconds, "lower"),
        ("graph.calibrate_horizon_s", seconds, "lower"),
        ("graph.select_ncls_s", seconds, "lower"),
        ("graph.select_ncls_calls", count, "lower"),
        ("graph.path_tables_built", count, "lower"),
        ("graph.dijkstra_relaxations", count, "lower"),
        ("workload.generate_s", seconds, "lower"),
        ("sim.run_s", seconds, "lower"),
        ("sim.engine_self_s", seconds, "lower"),
        ("sim.ticks", count, "higher"),
        ("sim.contacts", count, "higher"),
        ("sim.engine_self_ns_per_tick", "ns", "lower"),
    ]
    for scheme in SCHEMES:
        rows += [
            (f"scheme.{scheme}.contact_s", seconds, "lower"),
            (f"scheme.{scheme}.contact_calls", count, "higher"),
            (f"scheme.{scheme}.query_s", seconds, "lower"),
            (f"scheme.{scheme}.generate_s", seconds, "lower"),
            (f"scheme.{scheme}.maintenance_s", seconds, "lower"),
        ]
    rows += [
        ("cache.replacement_plans", count, "lower"),
        ("cache.useful_reply_ratio", ratio, "higher"),
        ("daemon.warm_start_s", seconds, "lower"),
        ("daemon.repair_batches", count, "higher"),
        ("daemon.roots_repaired", count, "lower"),
        ("daemon.edge_updates", count, "lower"),
        ("daemon.repair_root_ratio", ratio, "lower"),
        ("daemon.ingest_self_s", seconds, "lower"),
        ("daemon.repair_p50_ms", "ms", "lower"),
        ("daemon.repair_p98_ms", "ms", "lower"),
        ("daemon.query_p50_us", "us", "lower"),
        ("daemon.query_p99_us", "us", "lower"),
        ("daemon.ncl_set_p99_us", "us", "lower"),
        ("daemon.path_weight_p99_us", "us", "lower"),
        ("daemon.placement_for_p99_us", "us", "lower"),
        ("loadgen.late_p99_us", "us", "lower"),
        ("loadgen.queries", count, "higher"),
        ("process.cpu_s", seconds, "lower"),
        ("trace.wall_s", seconds, "lower"),
        ("trace.overhead_ratio", ratio, "lower"),
        ("trace.attributed_ratio", ratio, "higher"),
    ]
    return [{"name": n, "unit": u, "better": b} for n, u, b in rows]


PER_LAYER = _per_layer()

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name):
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.fullmatch(unit) is not None


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def check_manifest(m):
    """Returns every way `m` breaks the benchmark file's rules."""
    errors = []
    names = [w["name"] for w in m["workloads"]]
    names += [x["name"] for x in m["end_to_end"] + m["per_layer"]]
    errors += [f"bad name {n!r}" for n in names if not valid_name(n)]
    errors += [f"name used twice: {n}" for n in set(names) if names.count(n) > 1]
    for x in m["end_to_end"] + m["per_layer"]:
        if not valid_unit(x["unit"]):
            errors.append(f"bad unit {x['unit']!r} of {x['name']}")
        if x["better"] not in ("lower", "higher"):
            errors.append(f"bad 'better' of {x['name']}")
    for x in m["end_to_end"]:
        if not 0 < x["bound"] <= 0.25:
            errors.append(f"bound of {x['name']} outside (0, 0.25]")
    setup = [x for x in m["end_to_end"] if x["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s must be an end-to-end metric in s, lower better")
    if not 2 <= len(m["workloads"]) <= 8:
        errors.append("2 to 8 workloads")
    if not all(len(w["why"]) <= 200 for w in m["workloads"]):
        errors.append("a workload's why is longer than 200 characters")
    return errors


def collect_metrics(raw, specs, fill_missing):
    """Attaches units to the harness's metrics and validates their names.

    Every metric in `specs` must be present, except that with `fill_missing`
    a per-layer metric of a layer the workload never calls reads 0.
    """
    errors = [f"invalid metric name {n!r}" for n in raw if not valid_name(n)]
    known = {s["name"] for s in specs}
    errors += [f"unknown metric {n}" for n in raw if valid_name(n) and n not in known]
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name not in raw and not fill_missing:
            errors.append(f"missing metric {name}")
            continue
        value = float(raw.get(name, 0.0))
        if not math.isfinite(value):
            errors.append(f"metric {name} is not finite")
            continue
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics, errors


def digest(outputs):
    return hashlib.sha256(outputs.encode()).hexdigest()


def outputs_match(workload, seed, outputs, digests):
    """True when the outputs match the digest recorded for the default seed.

    Other seeds have no recorded outputs; the harness checks their
    invariants instead.
    """
    if seed != DEFAULT_SEED:
        return True
    return digests.get(workload) == digest(outputs)


def result_for(workload, seed, raw, trace, digests):
    specs = END_TO_END if trace == 0 else PER_LAYER
    metrics, errors = collect_metrics(raw["metrics"], specs, fill_missing=trace == 1)
    for error in errors:
        print(f"CHECK FAILED: {error}")
    failed = int(raw["failed"])
    match = outputs_match(workload, seed, raw["outputs"], digests)
    if not match:
        print(f"CHECK FAILED: {workload} outputs differ from the recorded digest")
        failed += int(raw["digest_units"])
    return {
        "correct": bool(raw["correct"]) and match and not errors,
        "attempted": int(raw["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }


def build():
    if not (ROOT / "src").is_dir():
        raise SystemExit(f"perfbench: no library sources in {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    "perfbench_harness", "perfbench_selftest"],
                   stdout=sys.stderr, check=True)


def run_harness(workload, seed, seconds, trace):
    command = [str(HARNESS), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", str(BUILD)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=HARNESS_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"perfbench: harness exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None):
    names = [w["name"] for w in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    if args.record_digests:
        recorded = {w: digest(run_harness(w, DEFAULT_SEED, 1, 0)["outputs"])
                    for w in names}
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        return 0

    digests = json.loads(DIGESTS.read_text())
    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    for workload in chosen:
        raw = run_harness(workload, args.seed, args.seconds, args.trace)
        results[workload] = result_for(workload, args.seed, raw, args.trace, digests)
        print(f"{workload}: correct={results[workload]['correct']} "
              f"attempted={results[workload]['attempted']} "
              f"failed={results[workload]['failed']}")
        for name, m in results[workload]["metrics"].items():
            print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    if args.workload == "all":
        MANIFEST.write_text(json.dumps(manifest(), indent=2) + "\n")
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
