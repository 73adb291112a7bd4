"""One set-up in a fresh interpreter: import agstab and parse a workload's cone files.

    python3 perfbench/probe.py <workload>

Prints one JSON line: "done", time.monotonic() when the set-up is done
(the caller read the same clock just before starting this process);
"probing_s", the seconds spent probing the machine's speed before the
set-up, which the caller subtracts; and "speed", the mean relative speed
of the probes before and after it (speed.py).  Apart from that small
module, only program work is timed: the benchmark's other modules, and
the generation of the lattice-sums cases, are not loaded here.
"""

import sys
import time
from pathlib import Path

import speed

PROBES = 4

# the families whose manifests and cone files each workload parses
FAMILIES = {
    "perfect-search": ("perfect",),
    "declared-series": ("matroidal", "perfect"),
    "lattice-sums": ("perfect",),
}

start = time.monotonic()
before = [speed.probe() for _ in range(PROBES + 1)][1:]  # the first runs cold
probing = time.monotonic() - start

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import agstab.pipeline  # noqa: E402

for family in FAMILIES[sys.argv[1]]:
    agstab.pipeline.load_cone_specs(family)
done = time.monotonic()
after = [speed.probe() for _ in range(PROBES)]
print(f'{{"done": {done!r}, "probing_s": {probing!r}, "speed": {speed.mean_speed(before + after)!r}}}')
