"""The agstab benchmark: one workload, measured for a set time, outputs checked.

    python3 perfbench/run.py --workload perfect-search --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports agstab from src/.
One caller runs whole passes back to back (a closed loop, no threads)
until --seconds have gone by, at least one pass.  Every output is
checked after its pass, outside the timed region.

--trace 0 prints the end-to-end metrics: wall_s (median seconds per
pass), slowest_cone_s (median over passes of the longest analyze() call),
setup_s (median over fresh interpreters of the time from process start
until agstab is imported and the workload's cone files are parsed) and
peak_rss_mb.  The three timings are scaled to a reference speed of the
machine, sampled while they run (speed.py); the measured seconds are
printed beside them.
--trace 1 runs untraced passes, then one pass with spans around the
public functions of agstab, and prints the per-layer metrics; the spans
are written to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 2 means the sources
or the arguments are missing; no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES_PER_GAP = 5


def _loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unknown"


def _probe(workload: str) -> tuple[float, float]:
    """(seconds at the reference speed, measured seconds) from starting a fresh
    interpreter until its set-up is done."""
    command = [sys.executable, str(HERE / "probe.py"), workload]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    seconds = report["done"] - start - report["probing_s"]
    return seconds * report["speed"], seconds


def _passes(wl, timer, ledger, seconds: float, probe=None) -> dict:
    """Whole passes until `seconds` have gone by, each timed with the machine's speed sampled.

    Returns per pass the wall time and slowest cone at the reference
    speed, the measured wall time and mean relative speed, and the cone
    records; with a probe, also the set-ups, PROBES_PER_GAP of them
    timed before the first pass and after each pass, so that they
    sample the same stretch of time as the passes do.
    """
    out = {"walls": [], "slowest": [], "raw_walls": [], "speeds": [], "records": [], "setups": []}
    start = time.perf_counter()
    while True:
        if probe:
            out["setups"] += [probe() for _ in range(PROBES_PER_GAP)]
        with speed.Sampler() as sampler:
            t0 = time.perf_counter()
            outputs = wl.run_pass()
            t1 = time.perf_counter()
        pass_speed = sampler.speed(t0, t1)
        cones = timer.take()
        out["walls"].append(sampler.scaled(t0, t1))
        out["raw_walls"].append(t1 - t0)
        out["speeds"].append(pass_speed)
        out["slowest"].append(max((sampler.scaled(b, e, pass_speed) for _, b, e, _, _ in cones), default=0.0))
        out["records"].append([(name, order, poincare) for name, _, _, order, poincare in cones])
        wl.check(outputs, ledger)
        if time.perf_counter() - start >= seconds:
            if probe:
                out["setups"] += [probe() for _ in range(PROBES_PER_GAP)]
            return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _numbers(values, digits):
    return " ".join(f"{v:.{digits}f}" for v in values)


def _untraced(args, wl, timer, ledger) -> dict:
    def probe():
        return _probe(args.workload)

    probe()  # warm-up: fills the bytecode cache, which users fill once
    run = _passes(wl, timer, ledger, args.seconds, probe)
    setups = [scaled for scaled, _ in run["setups"]]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"passes: {len(run['walls'])}, setup probes: {len(setups)}; at these counts only medians are well sampled")
    print(f"measured wall s per pass: {_numbers(run['raw_walls'], 3)}; relative speed {_numbers(run['speeds'], 3)}")
    print(f"wall_s per pass: {_numbers(run['walls'], 3)}")
    print(f"slowest_cone_s per pass: {_numbers(run['slowest'], 3)}")
    print(f"measured setup s per probe: {_numbers([raw for _, raw in run['setups']], 4)}")
    print(f"setup_s per probe: {_numbers(setups, 4)}")
    return {
        "wall_s": _metric(statistics.median(run["walls"]), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "slowest_cone_s": _metric(statistics.median(run["slowest"]), "s"),
        "peak_rss_mb": _metric(peak, "MB"),
    }


def _traced(args, wl, timer, ledger) -> dict:
    import agstab
    from spans import Tracer, span_cost
    from workloads import WORKLOADS

    untraced = _passes(wl, timer, ledger, args.seconds / 2)
    walls, records = untraced["raw_walls"], untraced["records"]
    tracer = Tracer()
    tracer.install()
    try:
        traced_wl = WORKLOADS[args.workload](args.seed)  # set-up again, traced
        tracer.pass_id = "pass"
        t0 = time.perf_counter()
        outputs = traced_wl.run_pass()
        traced_wall = time.perf_counter() - t0
        tracer.pass_id = "replay"
        for generators, order in tracer.groups:
            replayed = agstab.PermGroup.from_generators(generators)
            ledger.check("replay", "closure order", order, replayed.order)
    finally:
        tracer.uninstall()
    traced_wl.check(outputs, ledger)
    traced = [(name, order, poincare) for name, _, _, order, poincare in timer.take()]
    for before, after in zip(records[0], traced):
        ledger.check(before[0], "traced |Aut| and Poincare series", before, after)
    ledger.check("trace", "cones analyzed", len(records[0]), len(traced))

    run = ("pass",)
    total = tracer.total
    counts = tracer.counts
    molien_s = total(["molien.molien_series"], run)
    aut_s = total(["cones.cone_automorphisms"], run)
    # the tracer's cost: spans in the pass times the measured cost of one
    # span; comparing traced with untraced wall_s cannot resolve it, since
    # a pass varies by more than the spans cost
    cost = span_cost()
    pass_spans = sum(1 for span in tracer.spans if span[4] == "pass")
    values = {
        "pipeline.load_s": (total(["pipeline.load_cone_specs"], ("setup", "pass")), "s"),
        "cones.rank_dim_s": (total(["cones.cone_dimension", "cones.cone_rank"], run), "s"),
        "cones.components_s": (total(["cones.cone_components"], run), "s"),
        "cones.aut_s": (aut_s, "s"),
        "cones.aut_share": (aut_s / traced_wall, "frac"),
        "perms.closure_s": (total(["perms.from_generators"], ("replay",)), "s"),
        "cones.poincare_s": (total(["cones.cone_poincare_series"], run), "s"),
        "molien.series_s": (molien_s, "s"),
        "molien.elements": (counts.get("molien.elements", 0), "count"),
        "molien.us_per_element": (1e6 * molien_s / max(1, counts.get("molien.elements", 0)), "us"),
        "pipeline.generator_series_s": (total(["pipeline.generator_series"], run), "s"),
        "symfunc.exp_s": (total(["symfunc.exp_series"], run), "s"),
        "cones.count": (counts.get("cones.count", 0), "count"),
        "cones.generators": (counts.get("cones.generators", 0), "count"),
        "cones.nonbasic": (counts.get("cones.nonbasic", 0), "count"),
        "perms.group_elements": (counts.get("perms.group_elements", 0), "count"),
        "failed.budget": (ledger.count("budget"), "count"),
        "failed.mismatch": (ledger.count("mismatch"), "count"),
        "failed.error": (ledger.count("error"), "count"),
        "trace.overhead_frac": (pass_spans * cost / traced_wall, "frac"),
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    dump = tracer.to_json()
    dump.update(workload=args.workload, seed=args.seed, traced_wall_s=traced_wall, untraced_wall_s=walls,
                span_cost_s=cost)
    path.write_text(json.dumps(dump, indent=1))
    print(f"measured wall s per untraced pass: {_numbers(walls, 3)}; traced: {traced_wall:.3f}")
    print(f"spans: {len(tracer.spans)} ({pass_spans} in the pass, {1e6 * cost:.3g} us each) "
          f"written to {path.relative_to(ROOT)}")
    for name, (value, unit) in values.items():
        print(f"  {name:30s} {value:.6g} {unit}")
    return {name: _metric(value, unit) for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "agstab" / "__init__.py"
    if not package.is_file():
        print(f"error: {package.relative_to(ROOT)} is missing; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import agstab
    from spans import ConeTimer, Patches
    from workloads import WORKLOADS, Ledger

    if Path(agstab.__file__).resolve() != package.resolve():
        print(f"error: imported agstab from {agstab.__file__}, not from src/", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, loadavg {_loadavg()}")
    timer, patches = ConeTimer(), Patches()
    timer.install(patches)
    ledger = Ledger()
    wl = WORKLOADS[args.workload](args.seed)
    run = _traced if args.trace else _untraced
    metrics = run(args, wl, timer, ledger)
    patches.undo()

    print(f"checks: {ledger.attempted} attempted, {ledger.failed} failed, "
          f"failed_frac {ledger.failed / max(1, ledger.attempted):.6g}; loadavg {_loadavg()}")
    for cone, kind, detail in ledger.failures[:20]:
        print(f"  FAILED [{kind}] {cone}: {detail}")
    if not args.trace:
        for name, m in metrics.items():
            print(f"  {name:16s} {m['value']:.6g} {m['unit']}")
        print(f"  {'failed_frac':16s} {ledger.failed / max(1, ledger.attempted):.6g} frac"
              " (the JSON carries it as failed / attempted)")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
