"""Layered preprocessing benchmark.

    python3 bench/run.py --workload ground_data --seed 0 --seconds 30 --trace 0

One closed-loop client in one process preprocesses one generated problem at
a time (parse -> six transformations -> print, see driver.py), then checks
the output (validate.py). Problems go round-robin over the workload's three
sizes in whole rounds. With `--trace 0` the run reports the end-to-end
metrics; with `--trace 1` it runs each problem untraced and then traced,
and reports per-layer metrics. Times are scaled to a reference core (see
calibrate.py). The last line of standard output is one JSON
object; the exit code is 0 only when every problem passed its checks.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# At least MIN_ROUNDS whole rounds, so that the 75th percentile has ten
# samples beyond it and every size has a stable mean.
MIN_ROUNDS = 14
# A run stops starting rounds after this, even short of MIN_ROUNDS, to stay
# inside the per-run time limit when the program gets much slower.
HARD_LIMIT_S = 140.0
# p75 even when a run is long enough for p90 (100 samples), so that the
# tail does not switch percentiles between runs of different length.
TAIL_PERCENTILES = (75, 50)
SETUP_REPEATS = 9
# The child stamps the clock once the modules are imported (perf_counter
# reads the system-wide monotonic clock), then times the calibration kernel
# on the core it ran on.
SETUP_CHILD = ("import time\n"
               "import folbridge.conversion, folbridge.parser, folbridge.printer, "
               "folbridge.terms, folbridge.transforms\n"
               "t = time.perf_counter()\n"
               "import calibrate\n"
               "print(t, calibrate.kernel())\n")

UNITS = {
    "setup_s": "s", "preprocess_s": "s", "preprocess_tail_s": "s",
    "problems_per_s": "1/s", "scaling_exp": "1", "check_s": "s",
    "hyps_out": "count", "peak_rss_mb": "MB",
}


@dataclass
class Sample:
    size: int
    preprocess_s: float
    check_s: float
    hyps: int
    calibration_s: float      # two calibration kernels, before and after


def measure_setup() -> list[float]:
    """Times from starting a fresh interpreter until it has imported the
    folbridge modules, each scaled by the speed of the child's core."""
    env = {"PYTHONPATH": f"{SRC}:{BENCH}", "PATH": "/usr/bin:/bin"}
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env, cwd=ROOT,
                             check=True, timeout=60, capture_output=True, text=True)
        imported, kernel_s = map(float, out.stdout.split())
        times.append((imported - t0) * calibrate.REFERENCE_S / kernel_s)
    return times


class Runner:
    def __init__(self, workload: str, seed: int):
        import driver
        import validate
        import workloads
        self.driver, self.validate, self.workloads = driver, validate, workloads
        self.workload, self.seed = workload, seed
        self.tracer = None
        self.sizes = workloads.SIZES[workload]
        self.golden = validate.load_golden(workload) if seed == validate.GOLDEN_SEED else []
        self.samples: list[Sample] = []
        self.failures: list[str] = []

    def run_one(self, index: int) -> Sample | None:
        """Preprocess and check problem `index`; any exception or failed
        check is recorded and the run goes on."""
        size, text = self.workloads.problem(self.workload, self.seed, index)
        calibration = calibrate.kernel()
        try:
            t0 = time.perf_counter()
            if self.tracer is None:
                result = self.driver.preprocess(text)
                t1 = time.perf_counter()
                errors = self.validate.check(result)
            else:
                with self.tracer.root("driver.preprocess", index):
                    result = self.driver.preprocess(text)
                    self.tracer.count("transforms.dedup_dropped", result.dropped)
                t1 = time.perf_counter()
                with self.tracer.root("driver.check", index):
                    errors = self.validate.check(result)
            t2 = time.perf_counter()
        except Exception as e:  # noqa: BLE001 - every failure is counted, not raised
            self.failures.append(f"problem {index} (size {size}): {type(e).__name__}: {e}"[:300])
            return None
        calibration += calibrate.kernel()
        if index < len(self.golden) and result.lines != self.golden[index]:
            errors.append("printed output differs from the golden file")
        if errors:
            self.failures.append(f"problem {index} (size {size}): {errors[0]}")
            return None
        sample = Sample(size, t1 - t0, t2 - t1, len(result.lines), calibration)
        self.samples.append(sample)
        return sample

    def warm_up(self) -> None:
        """Run problem 0 once and forget it, so one-time costs stay out of
        the samples."""
        self.run_one(0)
        self.samples, self.failures = [], []

    def run_rounds(self, seconds: float) -> None:
        """Whole rounds until `seconds` have passed and MIN_ROUNDS are done."""
        start = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - start
            rounds = index // len(self.sizes)
            if (rounds >= MIN_ROUNDS and elapsed >= seconds) or elapsed >= HARD_LIMIT_S:
                return
            for _ in self.sizes:
                self.run_one(index)
                index += 1


def tail(times: list[float]) -> tuple[int, float]:
    """The highest listed percentile with at least ten samples beyond it
    (nearest rank), and the mean of the samples beyond it. A single order
    statistic jumps between the two speeds of a shared core; the mean of
    the ten or more slowest samples does not."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            return p, statistics.fmean(ordered[rank:])
    return 100, ordered[-1]


def scaling_exponent(sizes: list[int], times: list[float]) -> float:
    """Least-squares slope of log(mean time) against log(size)."""
    by_size: dict[int, list[float]] = {}
    for size, t in zip(sizes, times):
        by_size.setdefault(size, []).append(t)
    xs = [math.log(size) for size in by_size]
    ys = [math.log(statistics.fmean(ts)) for ts in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def scale(s: Sample) -> float:
    """Reference time over the mean of the two kernels around the problem:
    the factor that turns its seconds into seconds on the reference core
    (see calibrate.py)."""
    return 2 * calibrate.REFERENCE_S / s.calibration_s


def end_to_end(runner: Runner, setup: list[float]) -> tuple[dict[str, float], list[str]]:
    samples = runner.samples
    times = [s.preprocess_s * scale(s) for s in samples]
    checks = [s.check_s * scale(s) for s in samples]
    p, tail_value = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "preprocess_s": statistics.fmean(times),
        "preprocess_tail_s": tail_value,
        "problems_per_s": len(samples) / (sum(times) + sum(checks)),
        "scaling_exp": scaling_exponent([s.size for s in samples], times),
        "check_s": statistics.fmean(checks),
        "hyps_out": statistics.median(s.hyps for s in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"preprocess_tail_s is the mean beyond p{p} of {len(times)} samples",
             f"mean speed factor {statistics.fmean(map(scale, samples)):.4f}"]
    for size in runner.sizes:
        ts = [t for s, t in zip(samples, times) if s.size == size]
        if ts:
            notes.append(f"size {size}: mean {statistics.fmean(ts):.4f} s, "
                         f"median {statistics.median(ts):.4f} s over {len(ts)} problems")
    return metrics, notes


def traced(runner: Runner, seconds: float) -> tuple[dict[str, float], list[str]]:
    """Whole rounds in which every problem runs untraced, then traced, back
    to back; per-layer metrics are per-problem means over the traced runs."""
    import tracer as tracing
    tr = tracing.Tracer()
    pairs: list[tuple[Sample, Sample]] = []
    start = time.perf_counter()
    index = 0
    while index == 0 or index % len(runner.sizes) or (
            time.perf_counter() - start < min(seconds, HARD_LIMIT_S)):
        plain = runner.run_one(index)
        with tracing.installed(tr):
            runner.tracer = tr
            try:
                seen = runner.run_one(index)
            finally:
                runner.tracer = None
        if plain and seen:
            pairs.append((plain, seen))
        index += 1
    if not pairs:
        return {}, []
    f = statistics.fmean(scale(t) for _, t in pairs)
    metrics = {}
    for name, value in tr.layer_metrics(index).items():
        unit = _layer_unit(name)
        metrics[name] = value * f if unit == "s" else value / f if unit == "1/s" else value
    metrics["trace.overhead_frac"] = (sum(t.preprocess_s * scale(t) for _, t in pairs)
                                      / sum(u.preprocess_s * scale(u) for u, _ in pairs)) - 1
    tr.write(OUT / f"spans-{runner.workload}.bin")
    profile = sorted(tr.path_profile().items(), key=lambda kv: -kv[1])
    notes = [f"{index} problems traced; spans written to {OUT.name}/",
             f"mean speed factor {f:.4f}"]
    notes += [f"{t * f / index:10.4f} s  {path}" for path, t in profile[:25]]
    return metrics, notes


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("ground_data", "poly_lemmas", "unfold_defs"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "folbridge").is_dir():
        print(f"error: {SRC} holds no folbridge sources", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.trace:
        runner = Runner(args.workload, args.seed)
        runner.warm_up()
        metrics, notes = traced(runner, args.seconds)
        units = {name: _layer_unit(name) for name in metrics}
    else:
        setup = measure_setup()
        runner = Runner(args.workload, args.seed)
        runner.warm_up()
        runner.run_rounds(args.seconds)
        metrics, notes = end_to_end(runner, setup) if runner.samples else ({}, [])
        units = UNITS
    attempted = len(runner.samples) + len(runner.failures)
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    for line in notes:
        print(f"# {line}")
    correct = not runner.failures and bool(runner.samples)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
