"""Reference normalizers: `conversion._norm`, `conversion.beta_reduce`,
`transforms.iota_reduce` with `_iota_once`, and `conversion.replace_tvars`
as they were before each became one call to `terms.normal_form`. Kept
verbatim as the oracles that the kernel-based versions are tested against
(the same `repr`, binder names included, and the same fuel).

Each repeats the `map_subterms` recursion by hand; `beta_reduce` and
`iota_reduce` also run a whole extra pass to confirm their fixpoint, and
`iota_reduce` gives up after `rounds` passes. `whnf`, `map_subterms`,
`subst`, `subst_list` and the spine helpers are shared with the code under
test.
"""

from __future__ import annotations

from folbridge.conversion import Fuel, whnf
from folbridge.terms import (
    Ctor, GlobalEnv, Lam, Match, Term, TVar, make_app, map_subterms, spine,
    subst, subst_list,
)
from folbridge.transforms import TransformError


def _norm(env: GlobalEnv, t: Term, fuel: Fuel) -> Term:
    t = whnf(env, t, fuel)
    t2 = map_subterms(t, lambda s, _extra: _norm(env, s, fuel))
    if t2 is not t:
        t3 = whnf(env, t2, fuel)
        if t3 != t2:
            return _norm(env, t3, fuel)
    return t2


def beta_reduce(t: Term, fuel: Fuel | None = None) -> Term:
    """Beta-only normalization (no delta/iota/fix); used when building
    statements whose redexes are display artifacts."""
    if fuel is None:
        fuel = Fuel()

    def go(s: Term) -> Term:
        while True:
            head, args = spine(s)
            if isinstance(head, Lam) and args:
                fuel.consume()
                s = make_app(subst(head.body, 0, args[0]), args[1:])
                continue
            break
        return map_subterms(s, lambda c, _e: go(c))

    try:
        out = go(t)
        while True:
            again = go(out)
            if again == out:
                return out
            out = again
    finally:
        del go  # empties go's own closure cell: no reference cycle is left


def iota_reduce(env: GlobalEnv, t: Term, rounds: int = 64) -> Term:
    """Select branches of matches whose scrutinee is constructor-headed;
    no delta or fix unfolding."""
    for _ in range(rounds):
        t2 = _iota_once(env, t)
        if t2 is t:
            return t
        t = t2
    raise TransformError("iota reduction did not converge")


def _iota_once(env: GlobalEnv, t: Term) -> Term:
    t = map_subterms(t, lambda s, _e: _iota_once(env, s))
    if isinstance(t, Match):
        head, cargs = spine(t.scrutinee)
        if isinstance(head, Ctor):
            decl = env.inductive(head.inductive)
            value_args = cargs[len(decl.params):]
            br = t.branches[head.ctor_index]
            if len(value_args) == br.arity:
                return subst_list(br.body, list(reversed(value_args)))
    return t


def replace_tvars(t: Term, mapping: dict[str, Term]) -> Term:
    if isinstance(t, TVar) and t.name in mapping:
        return mapping[t.name]
    return map_subterms(t, lambda s, _e: replace_tvars(s, mapping))
