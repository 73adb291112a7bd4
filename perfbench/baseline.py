"""Run every workload over ten seeds, twice, and summarise, as a BENCH file.

    python3 perfbench/baseline.py --out perfbench/out/bench.json

Two sets, one after the other: in each, every workload of
BENCHMARK.json runs once per seed (1..10), untraced.  Then lattice-sums,
the one workload whose inputs change with the seed, runs ten times at
seed 1, so that its run-to-run noise shows apart from its change with
the inputs; then one traced run per workload, with seed 1.  The file
records the git commit, the Python version, nproc and /proc/loadavg at
the start and end, every run's result line, per metric and set the
median and the quartile spread (distance between the first and third
quartile over the median), and how the second set's medians compare
with the first's against the bounds of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import _loadavg

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10
SETS = 2
SEEDED = "lattice-sums"  # the workload whose inputs depend on the seed
FIXED_SEED = 1


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    result.update(seed=seed, trace=trace, run_s=time.monotonic() - start)
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": median,
            "spread": (q3 - q1) / median if median else None,
            "unit": runs[0]["metrics"][name]["unit"],
        }
    return out


def _series(workload: str, seeds, seconds: int) -> dict:
    runs = []
    for seed in seeds:
        runs.append(_run(workload, seed, seconds, 0))
        print(workload, seed, {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()},
              f"correct={runs[-1]['correct']}", flush=True)
    summary = summarise(runs)
    for name, s in summary.items():
        print(f"  {workload} {name}: median {s['median']:.4g} {s['unit']}, spread {s['spread']:.3f}", flush=True)
    return {"runs": runs, "summary": summary}


def agreement(first: dict, second: dict, metrics: list[dict]) -> dict:
    """Per metric: the second median against the first, and both spreads, against the bound."""
    out = {}
    for m in metrics:
        a, b = first["summary"][m["name"]], second["summary"][m["name"]]
        change = b["median"] / a["median"] - 1
        worse = change if m["better"] == "lower" else -change
        spread_ok = m["name"] == "setup_s" or max(a["spread"], b["spread"]) <= m["bound"]
        out[m["name"]] = {
            "change": change,
            "bound": m["bound"],
            "spreads": [a["spread"], b["spread"]],
            "within": worse <= m["bound"] and spread_ok,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(HERE / "out" / "bench.json"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    report = {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": _loadavg(),
        "run_seconds": seconds,
        "sets": [],
    }
    seeds = range(1, SEEDS + 1)
    for _ in range(SETS):
        entry = {"loadavg_start": _loadavg(), "workloads": {}}
        for workload in workloads:
            entry["workloads"][workload] = _series(workload, seeds, seconds)
        entry["loadavg_end"] = _loadavg()
        report["sets"].append(entry)
    report["fixed_seed"] = {SEEDED: _series(SEEDED, [FIXED_SEED] * SEEDS, seconds)}
    report["traced"] = {workload: _run(workload, FIXED_SEED, seconds, 1) for workload in workloads}
    first, second = (s["workloads"] for s in report["sets"])
    report["agreement"] = {
        workload: agreement(first[workload], second[workload], spec["end_to_end"]) for workload in workloads
    }
    for workload, metrics in report["agreement"].items():
        for name, a in metrics.items():
            print(f"  {workload} {name}: second set {a['change']:+.3f} against the first, "
                  f"spreads {a['spreads'][0]:.3f} {a['spreads'][1]:.3f}, bound {a['bound']}, "
                  f"{'within' if a['within'] else 'OUTSIDE'}", flush=True)
    report["loadavg_end"] = _loadavg()
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
