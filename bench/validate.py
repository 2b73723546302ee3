"""Correctness checks on the driver's output.

Every output hypothesis must be well scoped, typecheck at Prop and survive
`random_truth_check`, the independent randomized oracle, at a fixed seed
and sample count. For the golden seed, the printed output of the first
round must also equal the golden file byte for byte.
"""

from __future__ import annotations

from pathlib import Path

from folbridge import conversion, printer, terms

CHECK_SAMPLES = 1
CHECK_SEED = 0

GOLDEN_SEED = 0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def check(result) -> list[str]:
    """Problems found in a driver Result; empty when every hypothesis
    passes."""
    env = result.state.env
    errors: list[str] = []
    for h in result.state.hypotheses:
        if not terms.well_scoped(h.statement, 0):
            errors.append(f"{h.name}: not well scoped")
            continue
        if not isinstance(conversion.typecheck(env, [], h.statement), terms.SortProp):
            errors.append(f"{h.name}: not a proposition")
            continue
        cex = conversion.random_truth_check(env, h.statement,
                                            samples=CHECK_SAMPLES, seed=CHECK_SEED)
        if cex is not None:
            errors.append(f"{h.name}: counterexample "
                          f"{printer.print_term(cex.instance, env)}")
    return errors


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.txt"


def format_golden(outputs: list[tuple[int, list[str]]]) -> str:
    """One `## problem i size s` block per problem of the first round."""
    parts = []
    for i, (size, lines) in enumerate(outputs):
        parts.append(f"## problem {i} size {size}\n" + "".join(l + "\n" for l in lines))
    return "".join(parts)


def load_golden(workload: str) -> list[list[str]]:
    """Expected printed lines of problems 0, 1, ... at the golden seed."""
    blocks: list[list[str]] = []
    for line in golden_path(workload).read_text().splitlines():
        if line.startswith("## problem "):
            blocks.append([])
        else:
            blocks[-1].append(line)
    return blocks
