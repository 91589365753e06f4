"""Slow reference semantics that the tests compare the package against.

Nothing here shares code with the package's evaluation engine: worlds are
handled by name, the box reads the up-sets directly, and gamma is read off
the least-fixpoint reachability relation.
"""

from polyreach.formulas import And, Atom, Box, Not, Reach


def reach_relation(model, area):
    """Least relation R with: w R v if some a in area has w <= a >= v, and
    w R v if some a in area has w R a R v.  Quadratic in the number of
    worlds per iteration, meant for desk-scale cross-checks.
    """
    a_set = frozenset(area)
    unknown = a_set - model.world_set
    if unknown:
        raise ValueError(f"unknown worlds: {sorted(unknown)}")
    relation = set()
    for u in a_set:
        below = model.down[u]
        relation.update((w, v) for w in below for v in below)
    changed = True
    while changed:
        changed = False
        for u in a_set:
            sources = [w for (w, x) in relation if x == u]
            targets = [v for (x, v) in relation if x == u]
            for w in sources:
                for v in targets:
                    if (w, v) not in relation:
                        relation.add((w, v))
                        changed = True
    return frozenset(relation)


def evaluate_fixpoint(model, formula):
    """Extension of a core formula, with gamma taken from reach_relation."""
    match formula:
        case Atom(name):
            return model.atom_extension(name)
        case Not(child):
            return model.world_set - evaluate_fixpoint(model, child)
        case And(left, right):
            return evaluate_fixpoint(model, left) & evaluate_fixpoint(model, right)
        case Box(child):
            body = evaluate_fixpoint(model, child)
            return frozenset(w for w in model.worlds if model.up[w] <= body)
        case Reach(left, right):
            relation = reach_relation(model, evaluate_fixpoint(model, left))
            goal = evaluate_fixpoint(model, right)
            return frozenset(w for (w, v) in relation if v in goal)
    raise TypeError(f"not a formula: {formula!r}")


def updown_bfs(model, start, area):
    """Worlds reachable from start by an alternating up-down walk.

    Odd positions of such a walk always sit inside the area; even positions
    may leave it only to end the walk.  A shortest walk never repeats a
    (world, parity) state, so plain breadth-first search is complete.
    """
    frontier = {start}
    seen_even = {start}
    reached = set()
    while frontier:
        tops = {u for x in frontier for u in model.up[x] if u in area}
        bottoms = {v for u in tops for v in model.down[u]}
        reached |= bottoms
        frontier = {v for v in bottoms if v in area and v not in seen_even}
        seen_even |= frontier
    return reached
