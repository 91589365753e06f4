"""Slow reference semantics that the tests compare the package against.

The evaluators share no code with the package's evaluation engine: worlds
are handled by name, up- and down-sets are read off ``leq`` one pair at a
time, the box reads the up-sets directly, and gamma is read off the
least-fixpoint reachability relation.  The scalar satisfiability
search walks the same orders and assignments as ``find_model`` but runs the
mask engine once per assignment instead of on lanes of assignments.
"""

from collections import deque
from functools import lru_cache

from polyreach.formulas import And, Atom, Box, Not, Reach, atoms_of
from polyreach.kripke import _compile, _run
from polyreach.soundness import _ascending_closures, _model_from_masks


@lru_cache(maxsize=16)
def order_sets(model):
    """Up- and down-sets by name, from ``leq`` on every pair of worlds."""
    worlds = model.worlds
    up = {w: frozenset(v for v in worlds if model.leq(w, v)) for w in worlds}
    down = {v: frozenset(w for w in worlds if v in up[w]) for v in worlds}
    return up, down


def reach_relation(model, area):
    """Least relation R with: w R v if some a in area has w <= a >= v, and
    w R v if some a in area has w R a R v.  Quadratic in the number of
    worlds per iteration, meant for desk-scale cross-checks.
    """
    a_set = frozenset(area)
    unknown = a_set - model.world_set
    if unknown:
        raise ValueError(f"unknown worlds: {sorted(unknown)}")
    _, down = order_sets(model)
    relation = set()
    for u in a_set:
        below = down[u]
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
            up, _ = order_sets(model)
            return frozenset(w for w in model.worlds if up[w] <= body)
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
    up, down = order_sets(model)
    frontier = {start}
    seen_even = {start}
    reached = set()
    while frontier:
        tops = {u for x in frontier for u in up[x] if u in area}
        bottoms = {v for u in tops for v in down[u]}
        reached |= bottoms
        frontier = {v for v in bottoms if v in area and v not in seen_even}
        seen_even |= frontier
    return reached


def witness_path_by_name(model, start, area, goal):
    """Breadth-first up-down witness search on name sets.

    Uppers are expanded in queue order and every candidate set in sorted
    name order, so the first witness found is the package's.  The path is
    start, then alternating uppers and strict lowers, then the least goal
    world under the last upper.
    """
    up, down = order_sets(model)
    a_set, b_set = frozenset(area), frozenset(goal)
    parents = {}
    queue = deque()
    for u in sorted(a_set & up[start]):
        parents[u] = None
        queue.append(u)
    expanded = set()
    final = None
    while queue:
        u = queue.popleft()
        if down[u] & b_set:
            final = u
            break
        for x in sorted(a_set & down[u]):
            if x in expanded or not model.lt(x, u):
                continue
            expanded.add(x)
            for u2 in sorted(a_set & up[x]):
                if u2 in parents or not model.lt(x, u2):
                    continue
                parents[u2] = (u, x)
                queue.append(u2)
    if final is None:
        return None
    middle = [final]
    while parents[middle[-1]] is not None:
        upper, lower = parents[middle[-1]]
        middle.extend((lower, upper))
    return (start, *reversed(middle), min(down[final] & b_set))


def find_model_scalar(formula, max_worlds):
    """First (model, world) of the bounded search, one assignment at a time."""
    names = sorted(atoms_of(formula))
    ops = _compile(formula)
    for n in range(1, max_worlds + 1):
        full = (1 << n) - 1
        for up in _ascending_closures(n):
            down = tuple(
                sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)
            )
            for assignment in range(1 << (n * len(names))):
                val = {
                    p: assignment >> (index * n) & full
                    for index, p in enumerate(names)
                }
                hits = _run(ops, up, down, val, full)
                if hits:
                    world_index = (hits & -hits).bit_length() - 1
                    return _model_from_masks(up, val, n), f"w{world_index}"
    return None
