"""Run one nestalg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload radical-q --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the benchmark imports `nestalg` from
`src/` there and nowhere else.  It sets the workload up SETUPS times (each
time importing nestalg afresh and building the inputs from the seed),
then repeats whole rounds of the workload's operations for about
`--seconds` seconds, one process and one thread.  The results of the first
round are checked independently of nestalg, and every later round must
give the same results.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Times are taken per operation and scaled by a speed probe (SpeedProbe
below); each operation's median scaled time over the rounds is its time:
run_s is their sum and op_p50_ms their median.  On a shared host the same
loop can run at half speed for seconds or minutes at a time, and the
probe, timed next to the operations, takes that swing out.  setup_s is
scaled the same way.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
rounds alternate between untraced and traced, and the metrics are the
per-layer ones from the traced rounds (see tracer.py), per round, plus
trace.overhead_s; the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import deque
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 9

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The speed probe's kernel shares no code with nestalg.  REFERENCE_S is its
# time on the host the README's reference figures come from.
PROBE_EVERY = 0.25
REFERENCE_S = 0.0015
HILBERT6 = [[Fraction(1, i + j + 1) for j in range(6)] for i in range(6)]
BITS12 = [[(i * 5 + j * j) % 3 % 2 for j in range(12)] for i in range(12)]


class SpeedProbe:
    """The host's current speed relative to the reference host.

    On a shared host the same code runs up to twice as slowly for seconds
    or minutes at a time.  The probe is timed next to the operations, so
    dividing by it removes that swing while keeping a slower program
    slower."""

    def __init__(self):
        self.factor = 1.0
        self.seen: list[float] = []
        self._recent: deque[float] = deque(maxlen=3)
        self._last = float("-inf")

    def sample(self) -> None:
        """Time the probe; the factor uses the median of the last three
        samples, so that one disturbed sample does not skew it."""
        clock = time.perf_counter
        best = float("inf")
        for _ in range(3):
            t0 = clock()
            gen.inverse(HILBERT6)
            gen.rank(BITS12, 2)
            best = min(best, clock() - t0)
        self._recent.append(best)
        self.factor = REFERENCE_S / statistics.median(self._recent)
        self.seen.append(self.factor)
        self._last = clock()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY:
            self.sample()


def fresh_import():
    """Import nestalg from the checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "nestalg" or m.startswith("nestalg.")]:
        del sys.modules[name]
    na = importlib.import_module("nestalg")
    if Path(na.__file__).resolve().parent != ROOT / "src" / "nestalg":
        raise ImportError(f"nestalg was imported from {na.__file__}, not from this checkout")
    return na


def run_round(workload, probe: SpeedProbe):
    """Run every operation once: (wall time, [(label, value, seconds)]),
    each operation's time scaled by the probe."""
    clock = time.perf_counter
    out = []
    t0 = clock()
    for label, thunk in workload.ops:
        probe.maybe_sample()
        a = clock()
        try:
            value = thunk()
        except Exception as exc:  # a crashing operation is a failed one
            value = exc
        out.append((label, value, (clock() - a) * probe.factor))
    return clock() - t0, out


def measure(workload, seconds: float, tracer: Tracer | None, probe: SpeedProbe) -> dict:
    """Repeat whole rounds while the next one is predicted to end within
    `seconds`; with a tracer, alternate untraced and traced rounds and
    run at least one of each."""
    walls = {False: [], True: []}
    times = {False: {}, True: {}}  # label -> scaled times, one per round
    extra = {}
    first, mismatched, failed_labels = None, set(), []
    attempted = failed = 0
    start = time.perf_counter()
    traced = False
    while True:
        gc.collect()
        if traced:
            tracer.install()
        try:
            wall, values = run_round(workload, probe)
        finally:
            if traced:
                tracer.remove()
        walls[traced].append(wall)
        results = {}
        for label, value, dt in values:
            if isinstance(value, Exception) or workload.failed(label, value):
                failed += 1
                if first is None:
                    failed_labels.append(f"{label}: {value!r}"[:200])
            else:
                results[label] = value
                times[traced].setdefault(label, []).append(dt)
        attempted += len(values)
        if first is None:
            first = results
        else:
            mismatched.update(k for k in first.keys() | results.keys()
                              if first.get(k) != results.get(k))
        if traced:
            for k, v in workload.round_counters(results).items():
                extra[k] = extra.get(k, 0) + v
        del results, values
        elapsed = time.perf_counter() - start
        if tracer is not None:
            traced = not traced
        nxt = statistics.median(walls[traced] or walls[not traced])
        if elapsed + nxt > seconds and (tracer is None or (walls[False] and walls[True])):
            break
    return {
        "walls": walls, "times": times, "extra": extra, "first": first,
        "mismatched": sorted(mismatched), "failed_labels": failed_labels,
        "attempted": attempted, "failed": failed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nestalg" / "__init__.py").is_file():
        print(f"error: no nestalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        probe = SpeedProbe()
        setups = []
        for _ in range(SETUPS):
            gc.collect()
            probe.sample()
            t0 = time.perf_counter()
            workload.setup(fresh_import(), args.seed, workdir)
            setups.append((time.perf_counter() - t0) * probe.factor)
        tracer = Tracer() if args.trace else None
        m = measure(workload, args.seconds, tracer, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = workload.check(m["first"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems += [f"{label}: differs between rounds" for label in m["mismatched"]]
    op_s = {label: statistics.median(ts) for label, ts in m["times"][False].items()}
    run_s = sum(op_s.values())
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(op_s.values()), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        overhead_s = sum(statistics.median(ts) for ts in m["times"][True].values()) - run_s
        metrics = tracer.metrics(len(m["walls"][True]), overhead_s, m["extra"],
                                 statistics.median(probe.seen))
        tracer.dump(OUT / f"trace-{args.workload}-s{args.seed}.bin")

    walls = " ".join(f"{w:.3f}" for w in m["walls"][False])
    q = statistics.quantiles(probe.seen, n=4)
    print(f"{args.workload} seed {args.seed}: {len(workload.ops)} operations a round; "
          f"untraced round walls {walls} s; {len(m['walls'][True])} traced rounds; "
          f"probe factor quartiles {q[0]:.3f} {q[1]:.3f} {q[2]:.3f}", file=sys.stderr)
    for line in m["failed_labels"]:
        print(f"failed: {line}", file=sys.stderr)
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
