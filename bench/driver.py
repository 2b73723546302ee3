"""The end-to-end operation the benchmark times: problem text in, printed
hypothesis set out.

It calls only public functions, each through its module attribute, so that
the tracer can wrap them: `parser.parse_problem`, the six transformations in
the paper's order until a round adds nothing, alpha-deduplication through
`ProofState.has_alpha` of every hypothesis that enters the context, given
ones included, and `printer.print_term` on every hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass

from folbridge import parser, printer, terms, transforms

# Transformations applied to one hypothesis at a time, in the paper's order.
PER_HYPOTHESIS = ("expand", "eliminate_fix", "eliminate_pattern_matching")


@dataclass
class Result:
    lines: list[str]          # "name : statement", one per hypothesis
    state: transforms.ProofState
    dropped: int              # hypotheses dropped as alpha-duplicates


def _constants(t: terms.Term, defined: dict) -> set[str]:
    return {s.name for s in terms.subterms(t)
            if isinstance(s, terms.Const) and s.name in defined}


def preprocess(text: str) -> Result:
    problem = parser.parse_problem(text)
    env = problem.env
    state = transforms.ProofState(env, [], problem.goal)
    dropped = 0

    def commit(hyps) -> int:
        nonlocal dropped
        added = 0
        for h in hyps:
            if state.has_alpha(h.statement):
                dropped += 1
            else:
                state.add(h)
                added += 1
        return added

    commit([transforms.Hypothesis(name, stmt, transforms.Given())
            for name, stmt in problem.hypotheses])

    # get_def runs on every constant reachable from the goal through the
    # bodies of the definitions it unfolds.
    pending = sorted(_constants(problem.goal, env.definitions))
    unfolded: set[str] = set()
    tried = {t: 0 for t in PER_HYPOTHESIS}  # prefix of hypotheses each has seen
    while True:
        added = 0
        while pending:
            c = pending.pop(0)
            if c in unfolded:
                continue
            unfolded.add(c)
            pending += sorted(_constants(env.definitions[c].body, env.definitions) - unfolded)
            try:
                added += commit([transforms.get_def(state, c)])
            except transforms.TransformError:
                pass
        for t in PER_HYPOTHESIS:
            fn = getattr(transforms, t)
            while tried[t] < len(state.hypotheses):
                h = state.hypotheses[tried[t]]
                tried[t] += 1
                try:
                    out = fn(state, h.name)
                except transforms.TransformError:
                    continue
                added += commit(out if isinstance(out, list) else [out])
        added += commit(transforms.monomorphize(state))
        added += commit(transforms.interp_alg_types(state))
        if not added:
            break
    lines = [f"{h.name} : {printer.print_term(h.statement, env)}"
             for h in state.hypotheses]
    return Result(lines, state, dropped)
