"""Self-test of the benchmark's failure accounting; exits 0 when it holds.

    python3 perfbench/selftest.py

1. One declared-series pass must check clean.
2. The same outputs, checked against one corrupted expected value, must
   give exactly one failure, a mismatch under that command, so that
   failed_frac > 0.
3. A node budget too small for (7,7a) must be counted as a budget
   failure under the cone's name instead of stopping the pass.
It takes about as long as one declared-series pass.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import DeclaredSeries, Ledger, PerfectSearch  # noqa: E402


def main() -> int:
    problems = []

    series = DeclaredSeries(seed=0)
    outputs = series.run_pass()
    honest = Ledger()
    series.check(outputs, honest)
    if honest.failed:
        problems.append(f"honest pass failed {honest.failed} checks: {honest.failures[:3]}")

    corrupted = list(series.EXPECTED[1][0])
    corrupted[5] += 1  # BETTI_PERFECT t^5
    series.EXPECTED = (series.EXPECTED[0], (tuple(corrupted), 8)) + series.EXPECTED[2:]
    ledger = Ledger()
    series.check(outputs, ledger)
    frac = ledger.failed / ledger.attempted
    expected = [(" ".join(series.COMMANDS[1]), "mismatch")]
    if [(cone, kind) for cone, kind, _ in ledger.failures] != expected or not frac > 0:
        problems.append(f"corrupted value gave failed_frac {frac} and {ledger.failures}")

    search = PerfectSearch(seed=0)
    search.specs = [s for s in search.specs if s.name == "(7,7a)"]
    search.node_budget = 100
    ledger = Ledger()
    search.check(search.run_pass(), ledger)
    budget = [cone for cone, kind, _ in ledger.failures if kind == "budget"]
    if budget != ["(7,7a)"]:
        problems.append(f"small node budget gave {ledger.failures}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
