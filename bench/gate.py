"""Correctness gate over every workload.

    python3 bench/gate.py                 # all workloads at the golden seed
    python3 bench/gate.py --write-golden  # rewrite golden/ from the current program

Runs `run.py --trace 0` once per workload at the golden seed (0), for the
`run_seconds` of BENCHMARK.json. The first round of each run is compared
byte for byte with `golden/<workload>.txt`, and every output hypothesis is
checked for scope, for type Prop and against the random truth oracle.
Prints every end-to-end metric by name with its unit and exits non-zero if
any run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("ground_data", "poly_lemmas", "unfold_defs")


def write_golden() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import driver
    import validate
    import workloads
    for w in WORKLOADS:
        outputs = []
        for index in range(len(workloads.SIZES[w])):
            size, text = workloads.problem(w, validate.GOLDEN_SEED, index)
            outputs.append((size, driver.preprocess(text).lines))
        validate.golden_path(w).write_text(validate.format_golden(outputs))
        print(f"wrote {validate.golden_path(w).relative_to(ROOT)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()
    if args.write_golden:
        write_golden()
        return 0
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ok = True
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", "0",
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        passed = proc.returncode == 0 and result["correct"]
        ok &= passed
        print(f"== {w}: {'ok' if passed else 'FAILED'} "
              f"({result.get('failed', '?')} of {result.get('attempted', '?')} problems failed)")
        for name, m in result["metrics"].items():
            print(f"   {name:20s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
