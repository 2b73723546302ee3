"""Reference `repr` of term nodes, branches and evaluator values: the
recursive version that `terms.node_repr`, one explicit-stack loop, replaced,
kept as its oracle. Each node shows `Name(field=value, ...)` over the
fields its class's `__slots__` names, a branch its binders and body, and a
tuple its items in Python's own format. It recurses once per node and
tuple, so it serves shallow inputs only."""

from __future__ import annotations

from folbridge.conversion import Value
from folbridge.terms import Branch, Term


def node_repr(x: object) -> str:
    if isinstance(x, (Term, Value)):
        fields = ", ".join(f"{n}={node_repr(getattr(x, n))}" for n in x.__slots__)
        return f"{type(x).__name__}({fields})"
    if isinstance(x, Branch):
        return f"Branch(binders={x.binders!r}, body={node_repr(x.body)})"
    if isinstance(x, tuple):
        items = ", ".join(node_repr(v) for v in x)
        return f"({items},)" if len(x) == 1 else f"({items})"
    return repr(x)
