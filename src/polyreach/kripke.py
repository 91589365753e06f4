"""Finite preorder and poset models with reachability-aware evaluation.

A model is a finite set of worlds, a reflexive-transitive order built as the
closure of generator edges, and a valuation.  The box quantifies over the
up-set of a world.  The reachability operator gamma(a, b) holds at w when an
up-down path starts at w, ends at a b-world, and every intermediate world
satisfies a.

One engine evaluates formulas: build_model keeps the closed order as bitmask
rows over world positions, and a formula compiles once into flat ops on those
masks.  The box is the complement of the down-closure of the complement;
gamma(a, b) is the down-closure of the comparability components of a that
meet the up-closure of b.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Iterable, Mapping, Sequence

from .errors import PolyreachError
from .formulas import (
    And,
    Atom,
    Box,
    Formula,
    Not,
    Reach,
    RESERVED_ATOM,
    KEYWORDS,
)

__all__ = [
    "ModelError",
    "ModelFormatError",
    "PreorderModel",
    "PosetModel",
    "build_model",
    "evaluate",
    "reach_targets",
    "witness_path",
    "check_updown_path",
    "is_valid",
    "parse_model",
    "serialize_model",
    "nonempty_chains",
]

_WORLD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_+]*\Z")


class ModelError(PolyreachError):
    pass


class ModelFormatError(ModelError):
    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, eq=False)
class PreorderModel:
    """Reflexive-transitive Kripke frame with a valuation.

    ``up[w]`` is the set of worlds v with w <= v, ``down[w]`` the converse.
    ``up_rows``, ``down_rows`` and ``atom_rows`` hold the same sets as
    bitmasks over the positions in ``worlds``, which ``index`` maps to.
    Instances are immutable; all derived data is precomputed by build_model.
    """

    worlds: tuple[str, ...]
    base_edges: tuple[tuple[str, str], ...]
    order: frozenset[tuple[str, str]]
    valuation: Mapping[str, frozenset[str]]
    up: Mapping[str, frozenset[str]] = field(repr=False)
    down: Mapping[str, frozenset[str]] = field(repr=False)
    index: Mapping[str, int] = field(repr=False)
    up_rows: tuple[int, ...] = field(repr=False)
    down_rows: tuple[int, ...] = field(repr=False)
    atom_rows: Mapping[str, int] = field(repr=False)

    @cached_property
    def world_set(self) -> frozenset[str]:
        return frozenset(self.worlds)

    def leq(self, a: str, b: str) -> bool:
        return b in self.up[a]

    def lt(self, a: str, b: str) -> bool:
        return b in self.up[a] and a not in self.up[b]

    def atom_extension(self, name: str) -> frozenset[str]:
        return self.valuation.get(name, frozenset())


class PosetModel(PreorderModel):
    """A preorder model whose order is antisymmetric."""


def _validate_atom_name(name: str) -> None:
    if name == RESERVED_ATOM:
        raise ModelError(f"atom name {name!r} is reserved")
    if not re.match(r"[A-Za-z][A-Za-z0-9_]*\Z", name) or name in KEYWORDS:
        raise ModelError(f"invalid atom name: {name!r}")


def build_model(
    worlds: Iterable[str],
    edges: Iterable[tuple[str, str]] = (),
    valuation: Mapping[str, Iterable[str]] | None = None,
) -> PreorderModel:
    """Close the generator edges and classify the result.

    Returns a PosetModel when the closed order is antisymmetric, otherwise a
    PreorderModel.  Duplicate worlds, unknown edge endpoints, and valuation
    entries naming unknown worlds are errors.
    """
    world_list: list[str] = []
    seen: set[str] = set()
    for w in worlds:
        if not isinstance(w, str) or not _WORLD_RE.match(w):
            raise ModelError(f"invalid world id: {w!r}")
        if w in seen:
            raise ModelError(f"duplicate world id: {w!r}")
        seen.add(w)
        world_list.append(w)
    if not world_list:
        raise ModelError("a model needs at least one world")
    world_list.sort()
    index = {w: i for i, w in enumerate(world_list)}

    succ: list[list[int]] = [[] for _ in world_list]
    pred: list[list[int]] = [[] for _ in world_list]
    base: list[tuple[str, str]] = []
    for a, b in edges:
        if a not in seen or b not in seen:
            raise ModelError(f"edge ({a!r}, {b!r}) mentions an unknown world")
        succ[index[a]].append(index[b])
        pred[index[b]].append(index[a])
        base.append((a, b))
    up_rows = _closure_rows(succ)
    down_rows = _closure_rows(pred)
    up = {w: _names(world_list, row) for w, row in zip(world_list, up_rows)}

    val: dict[str, frozenset[str]] = {}
    atom_rows: dict[str, int] = {}
    if valuation:
        for name in sorted(valuation):
            _validate_atom_name(name)
            members = frozenset(valuation[name])
            unknown = members - seen
            if unknown:
                raise ModelError(
                    f"valuation for {name!r} names unknown worlds: {sorted(unknown)}"
                )
            val[name] = members
            atom_rows[name] = _row(index, members)

    antisymmetric = all(u & d == 1 << i for i, (u, d) in enumerate(zip(up_rows, down_rows)))
    cls = PosetModel if antisymmetric else PreorderModel
    return cls(
        worlds=tuple(world_list),
        base_edges=tuple(base),
        order=frozenset((w, v) for w in world_list for v in up[w]),
        valuation=val,
        up=up,
        down={w: _names(world_list, row) for w, row in zip(world_list, down_rows)},
        index=index,
        up_rows=tuple(up_rows),
        down_rows=tuple(down_rows),
        atom_rows=atom_rows,
    )


def _closure_rows(succ: list[list[int]]) -> list[int]:
    """Reflexive-transitive closure of the digraph 0..n-1 as bitmask rows.

    Iterative Tarjan: a strongly connected component is popped only after
    every component it reaches, so its row is its members' bits joined with
    the rows of their successors, one OR per edge.
    """
    rows = [0] * len(succ)
    number = [0] * len(succ)  # DFS discovery order from 1; 0 = unvisited
    low = [0] * len(succ)
    stack: list[int] = []
    count = 0
    for root in range(len(succ)):
        if number[root]:
            continue
        count += 1
        number[root] = low[root] = count
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, children = work[-1]
            for w in children:
                if not number[w]:
                    count += 1
                    number[w] = low[w] = count
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if not rows[w]:  # visited without a row: still on the stack
                    low[v] = min(low[v], number[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == number[v]:
                    component = []
                    while not component or component[-1] != v:
                        component.append(stack.pop())
                    row = 0
                    for w in component:
                        row |= 1 << w
                        for x in succ[w]:
                            row |= rows[x]
                    for w in component:
                        rows[w] = row
    return rows


def _row(index: Mapping[str, int], worlds: Iterable[str]) -> int:
    row = 0
    for w in worlds:
        row |= 1 << index[w]
    return row


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _names(worlds: Sequence[str], row: int) -> frozenset[str]:
    """The worlds at the set bits of row, selected by its reversed binary digits."""
    return frozenset(compress(worlds, bin(row)[:1:-1].encode().translate(_BIT_BYTES)))


def _compile(formula: Formula) -> list[tuple]:
    """Flat op list (kind, x, y) with shared subformulas computed once.

    The kind is the core constructor class; x and y are positions of earlier
    ops, or the name of an Atom.  The memo is keyed by object identity: the
    dataclass __hash__ of a formula recurses through the tree on every lookup.
    """
    ops: list[tuple] = []
    done: dict[int, int] = {}

    def emit(f: Formula) -> int:
        hit = done.get(id(f))
        if hit is not None:
            return hit
        match f:
            case Atom(name):
                op = (Atom, name, None)
            case Not(child) | Box(child):
                op = (type(f), emit(child), None)
            case And(left, right) | Reach(left, right):
                op = (type(f), emit(left), emit(right))
            case _:
                raise TypeError(f"not a formula: {f!r}")
        ops.append(op)
        done[id(f)] = len(ops) - 1
        return len(ops) - 1

    emit(formula)
    return ops


def _run(ops: list[tuple], up: Sequence[int], down: Sequence[int],
         atoms: Mapping[str, int], full: int) -> int:
    """The extension of the compiled formula as a bitmask of worlds."""
    out: list[int] = []
    for kind, x, y in ops:
        if kind is Atom:
            out.append(atoms.get(x, 0))
        elif kind is Not:
            out.append(full ^ out[x])
        elif kind is And:
            out.append(out[x] & out[y])
        elif kind is Box:
            out.append(full ^ _closure(full ^ out[x], down))
        else:
            out.append(_reach(out[x], _closure(out[y], up), up, down))
    return out[-1]


def _closure(row: int, rows: Sequence[int]) -> int:
    """Union of rows[i] over the members i of row."""
    out = 0
    while row:
        low = row & -row
        out |= rows[low.bit_length() - 1]
        row ^= low
    return out


def _reach(area: int, touch: int, up: Sequence[int], down: Sequence[int]) -> int:
    """Down-closure of the comparability components of area that meet touch.

    Each component grows from its lowest world by frontier expansion over
    the comparable worlds, so every world of area is expanded once.
    """
    out = 0
    while area and touch:
        component = frontier = area & -area
        while frontier:
            grown = _closure(frontier, up) | _closure(frontier, down)
            frontier = grown & area & ~component
            component |= frontier
        area ^= component
        if component & touch:
            out |= _closure(component, down)
    return out


def _check_world_subset(model: PreorderModel, worlds: Iterable[str]) -> frozenset[str]:
    ws = frozenset(worlds)
    unknown = ws - model.world_set
    if unknown:
        raise ModelError(f"unknown worlds: {sorted(unknown)}")
    return ws


def reach_targets(
    model: PreorderModel, start: str, area: Iterable[str]
) -> frozenset[str]:
    """Worlds reachable from start along up-down paths with middles in area."""
    a_set = _check_world_subset(model, area)
    if start not in model.world_set:
        raise ModelError(f"unknown world: {start!r}")
    row = _reach(
        _row(model.index, a_set), model.up_rows[model.index[start]],
        model.up_rows, model.down_rows,
    )
    return _names(model.worlds, row)


def witness_path(
    model: PreorderModel,
    start: str,
    area: Iterable[str],
    goal: Iterable[str],
) -> tuple[str, ...] | None:
    """Search for an up-down path from start to a goal world through area.

    The path alternates upper and lower elements: start <= u1, strict
    descents and ascents between consecutive uppers, and u_last >= end.
    Deterministic: breadth-first over uppers with sorted tie-breaking.
    Returns None when no witness exists.
    """
    a_set = _check_world_subset(model, area)
    b_set = _check_world_subset(model, goal)
    if start not in model.world_set:
        raise ModelError(f"unknown world: {start!r}")

    def is_goal(u: str) -> bool:
        return bool(model.down[u] & b_set)

    parents: dict[str, tuple[str, str] | None] = {}
    queue: deque[str] = deque()
    for u in sorted(a_set & model.up[start]):
        parents[u] = None
        queue.append(u)
    # A lower's first expansion already links every upper above it.
    expanded: set[str] = set()
    final: str | None = None
    while queue:
        u = queue.popleft()
        if is_goal(u):
            final = u
            break
        for x in sorted(a_set & model.down[u]):
            if x in expanded or not model.lt(x, u):
                continue
            expanded.add(x)
            for u2 in sorted(a_set & model.up[x]):
                if u2 in parents or not model.lt(x, u2):
                    continue
                parents[u2] = (u, x)
                queue.append(u2)
    if final is None:
        return None

    uppers: list[str] = []
    lowers: list[str] = []
    node: str | None = final
    while node is not None:
        uppers.append(node)
        link = parents[node]
        if link is None:
            node = None
        else:
            node, x = link
            lowers.append(x)
    uppers.reverse()
    lowers.reverse()

    path: list[str] = [start]
    for i, u in enumerate(uppers):
        path.append(u)
        if i < len(lowers):
            path.append(lowers[i])
    end = min(sorted(model.down[final] & b_set))
    path.append(end)
    return tuple(path)


def check_updown_path(
    model: PreorderModel, path: Sequence[str], area: Iterable[str]
) -> bool:
    """Validate the up-down path shape and that middles lie in area.

    Shape: odd length of at least three, first step ascending, last step
    descending, and strict zigzag alternation on interior middle elements.
    """
    a_set = _check_world_subset(model, area)
    if any(w not in model.world_set for w in path):
        return False
    k = len(path) - 1
    if k < 2 or k % 2 != 0:
        return False
    if not model.leq(path[0], path[1]):
        return False
    if not model.leq(path[k], path[k - 1]):
        return False
    j = k // 2
    for i in range(1, j):
        if not model.lt(path[2 * i], path[2 * i - 1]):
            return False
        if not model.lt(path[2 * i], path[2 * i + 1]):
            return False
    return all(w in a_set for w in path[1:k])


def evaluate(model: PreorderModel, formula: Formula) -> frozenset[str]:
    """Extension of a core formula.

    Atoms absent from the valuation denote the empty set, which also covers
    the reserved truth-constant atom.
    """
    full = (1 << len(model.worlds)) - 1
    row = _run(_compile(formula), model.up_rows, model.down_rows, model.atom_rows, full)
    return _names(model.worlds, row)


def is_valid(model: PreorderModel, formula: Formula) -> bool:
    return evaluate(model, formula) == model.world_set


def nonempty_chains(model: PosetModel) -> list[frozenset[str]]:
    """All non-empty chains of a poset, each discovered once in ascending order."""
    if not isinstance(model, PosetModel):
        raise ModelError("chains are only enumerated for posets")
    chains: list[frozenset[str]] = []

    def extend(chain: tuple[str, ...], top: str) -> None:
        chains.append(frozenset(chain))
        for v in sorted(model.up[top]):
            if v != top:
                extend(chain + (v,), v)

    for w in sorted(model.worlds):
        extend((w,), w)
    return chains


# ---------------------------------------------------------------------------
# Text format
#
#   worlds a b c        declare worlds
#   order a b           generator edge a <= b; closure is implicit
#   valuation p a c     worlds where atom p holds
#
# '#' starts a comment; blank lines are ignored; any other directive is an
# error.  World declarations are gathered in a first pass, so directive order
# does not matter.
# ---------------------------------------------------------------------------


def parse_model(text: str) -> PreorderModel:
    worlds: list[str] = []
    declared: set[str] = set()
    edges: list[tuple[str, str]] = []
    valuation: dict[str, set[str]] = {}

    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((number, stripped.split()))

    for number, parts in lines:
        if parts[0] == "worlds":
            if len(parts) < 2:
                raise ModelFormatError("worlds directive needs at least one id", number)
            for w in parts[1:]:
                if not _WORLD_RE.match(w):
                    raise ModelFormatError(f"invalid world id: {w!r}", number)
                if w in declared:
                    raise ModelFormatError(f"duplicate world id: {w!r}", number)
                declared.add(w)
                worlds.append(w)
        elif parts[0] not in ("order", "valuation"):
            raise ModelFormatError(f"unknown directive: {parts[0]!r}", number)

    for number, parts in lines:
        if parts[0] == "order":
            if len(parts) != 3:
                raise ModelFormatError("order directive needs exactly two ids", number)
            a, b = parts[1], parts[2]
            for w in (a, b):
                if w not in declared:
                    raise ModelFormatError(f"unknown world id: {w!r}", number)
            edges.append((a, b))
        elif parts[0] == "valuation":
            if len(parts) < 2:
                raise ModelFormatError("valuation directive needs an atom name", number)
            name = parts[1]
            unknown = [w for w in parts[2:] if w not in declared]
            if unknown:
                raise ModelFormatError(f"unknown world id: {unknown[0]!r}", number)
            valuation.setdefault(name, set()).update(parts[2:])

    if not worlds:
        raise ModelFormatError("no worlds declared")
    try:
        return build_model(worlds, edges, valuation)
    except ModelError as exc:
        raise ModelFormatError(str(exc)) from exc


def serialize_model(model: PreorderModel) -> str:
    """Canonical text for a model; parsing it back rebuilds an equal model."""
    lines = ["worlds " + " ".join(model.worlds)]
    for a, b in sorted(model.order):
        if a != b:
            lines.append(f"order {a} {b}")
    for name in sorted(model.valuation):
        members = " ".join(sorted(model.valuation[name]))
        lines.append(f"valuation {name} {members}".rstrip())
    return "\n".join(lines) + "\n"
