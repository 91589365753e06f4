"""Seeded samplers, axiom checking, and bounded satisfiability search."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from .formulas import (
    And,
    Atom,
    Box,
    Formula,
    Not,
    Reach,
    BOT,
    TOP,
    atoms_of,
    dia,
    format_formula,
    implies,
    lor,
)
from .kripke import (
    PosetModel,
    PreorderModel,
    _compile,
    build_model,
    evaluate,
    is_valid,
)

__all__ = [
    "random_formula",
    "random_poset_model",
    "random_preorder_model",
    "SoundnessReport",
    "Violation",
    "axiom_suite",
    "find_model",
    "all_posets",
]


def random_formula(
    rng: random.Random,
    atoms: list[str],
    max_depth: int,
    *,
    allow_reach: bool = True,
) -> Formula:
    """Random core formula with the given atom pool and depth bound."""
    if max_depth <= 0 or not atoms:
        roll = rng.random()
        if atoms and roll < 0.8:
            return Atom(rng.choice(atoms))
        return TOP if roll < 0.9 else BOT
    kinds = ["atom", "not", "and", "box"]
    if allow_reach:
        kinds.append("reach")
    kind = rng.choice(kinds)
    if kind == "atom":
        return random_formula(rng, atoms, 0)
    if kind == "not":
        return Not(random_formula(rng, atoms, max_depth - 1, allow_reach=allow_reach))
    if kind == "box":
        return Box(random_formula(rng, atoms, max_depth - 1, allow_reach=allow_reach))
    left = random_formula(rng, atoms, max_depth - 1, allow_reach=allow_reach)
    right = random_formula(rng, atoms, max_depth - 1, allow_reach=allow_reach)
    return And(left, right) if kind == "and" else Reach(left, right)


def _random_valuation(
    rng: random.Random, worlds: list[str], atoms: list[str]
) -> dict[str, set[str]]:
    return {
        p: {w for w in worlds if rng.random() < 0.5} for p in atoms
    }


def random_poset_model(
    rng: random.Random,
    max_worlds: int,
    atoms: list[str],
    edge_prob: float = 0.4,
) -> PosetModel:
    """Random poset: edges only ascend a fixed world enumeration."""
    n = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(n)]
    edges = [
        (worlds[i], worlds[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    ]
    model = build_model(worlds, edges, _random_valuation(rng, worlds, atoms))
    assert isinstance(model, PosetModel)
    return model


def random_preorder_model(
    rng: random.Random,
    max_worlds: int,
    atoms: list[str],
    edge_prob: float = 0.3,
) -> PreorderModel:
    """Random preorder: arbitrary directed edges, so clusters can appear."""
    n = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(n)]
    edges = [
        (a, b) for a in worlds for b in worlds if a != b and rng.random() < edge_prob
    ]
    return build_model(worlds, edges, _random_valuation(rng, worlds, atoms))


LAW_NAMES = (
    "axiom_reach_box",
    "axiom_reach_absorb",
    "reach_implies_diamond",
    "rule_monotone",
    "rule_induction",
    "grz",
)


@dataclass
class Violation:
    law: str
    instance: str
    world: str


@dataclass
class SoundnessReport:
    """Outcome of sampling axiom and rule instances on one model."""

    is_poset: bool
    checked: dict[str, int] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)

    def law_ok(self, law: str) -> bool:
        return not any(v.law == law for v in self.violations)

    @property
    def reach_laws_ok(self) -> bool:
        return all(self.law_ok(law) for law in LAW_NAMES if law != "grz")

    @property
    def grz_ok(self) -> bool:
        return self.law_ok("grz")

    @property
    def all_ok(self) -> bool:
        return not self.violations


def _grz_instance(f: Formula) -> Formula:
    return implies(Box(implies(Box(implies(f, Box(f))), f)), Box(f))


def axiom_suite(
    model: PreorderModel,
    *,
    seed: int,
    samples: int = 40,
    max_depth: int = 2,
) -> SoundnessReport:
    """Sample substitution instances of the reachability axioms and rules.

    The two axioms and the reach-to-diamond law must be valid on every
    preorder model; the Grz schema is additionally expected on posets and is
    reported either way.  The monotonicity rule is exercised with premises
    that hold by construction, the induction rule with premise filtering.
    """
    rng = random.Random(seed)
    atoms = sorted(model.valuation) or ["p"]
    report = SoundnessReport(is_poset=isinstance(model, PosetModel))

    def note(law: str) -> None:
        report.checked[law] = report.checked.get(law, 0) + 1

    def check(law: str, instance: Formula) -> None:
        note(law)
        missing = model.world_set - evaluate(model, instance)
        if missing:
            report.violations.append(
                Violation(law, format_formula(instance), min(missing))
            )

    for _ in range(samples):
        a = random_formula(rng, atoms, max_depth)
        b = random_formula(rng, atoms, max_depth)
        g = Reach(a, b)
        check("axiom_reach_box", implies(lor(b, And(a, g)), Box(implies(a, g))))
        check("axiom_reach_absorb", implies(dia(And(a, g)), g))
        check("reach_implies_diamond", implies(g, dia(a)))
        check("grz", _grz_instance(random_formula(rng, atoms, max_depth)))

        widen_a = lor(a, random_formula(rng, atoms, 1))
        widen_b = lor(b, random_formula(rng, atoms, 1))
        check("rule_monotone", implies(g, Reach(widen_a, widen_b)))

        premise_one = implies(b, Box(implies(a, b)))
        premise_two = implies(And(a, dia(And(a, b))), b)
        if is_valid(model, premise_one) and is_valid(model, premise_two):
            check("rule_induction", implies(g, dia(And(a, b))))

    return report


# ---------------------------------------------------------------------------
# Bounded satisfiability search.
#
# Every finite poset admits a relabeling along a linear extension, so
# enumerating only orders that ascend a fixed world enumeration finds a
# witness whenever one exists at the size bound.  Orders are generated as
# transitive closures of ascending edge sets, deduplicated.
#
# On n worlds a valuation is an assignment whose bit k*n + i says that the
# k-th atom in sorted order holds at world i.  The compiled formula runs on many assignments of an
# order at once: a value holds one int per world, and bit v of that int is
# the truth at the world under the v-th assignment of the block.  The low
# _LANE_BITS assignment bits index these lanes and the high bits are fixed
# per block, so memory stays bounded and a satisfiable search stops at the
# first block with a hit.  Sizes, orders, blocks, lanes and worlds are all
# scanned in ascending order, so the first hit is the least (order,
# assignment, world).  It is re-checked on a built model with the general
# evaluator before being returned.
# ---------------------------------------------------------------------------

_LANE_BITS = 12


@lru_cache(maxsize=None)
def _ascending_closures(n: int) -> tuple[tuple[int, ...], ...]:
    """Deduplicated reflexive-transitive up-masks of ascending edge sets."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    for bits in range(1 << len(pairs)):
        up = [1 << i for i in range(n)]
        for index, (i, j) in enumerate(pairs):
            if bits >> index & 1:
                up[i] |= 1 << j
        for i in range(n - 2, -1, -1):
            mask = up[i]
            j = i + 1
            while j < n:
                if mask >> j & 1:
                    mask |= up[j]
                j += 1
            up[i] = mask
        key = tuple(up)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return tuple(out)


def _model_from_masks(
    up: tuple[int, ...], val: dict[str, int], n: int
) -> PosetModel:
    worlds = [f"w{i}" for i in range(n)]
    edges = [
        (worlds[i], worlds[j])
        for i in range(n)
        for j in range(n)
        if i != j and up[i] >> j & 1
    ]
    valuation = {
        p: {worlds[i] for i in range(n) if mask >> i & 1} for p, mask in val.items()
    }
    model = build_model(worlds, edges, valuation)
    assert isinstance(model, PosetModel)
    return model


@lru_cache(maxsize=None)
def _lane_patterns(bits: int) -> tuple[int, ...]:
    """Masks over 2**bits lanes: mask b has lane v set when bit b of v is set."""
    lanes = 1 << bits
    out = []
    for b in range(bits):
        run = 1 << b
        unit = ((1 << run) - 1) << run  # run clear lanes, then run set lanes
        out.append(unit * (((1 << lanes) - 1) // ((1 << 2 * run) - 1)))
    return tuple(out)


def _block_atoms(
    names: list[str], n: int, block: int, lane_bits: int, ones: int
) -> dict[str, list[int]]:
    """Lane values of the atoms over the assignments of one block."""
    patterns = _lane_patterns(lane_bits)
    atoms = {}
    for k, p in enumerate(names):
        atoms[p] = [
            patterns[bit] if bit < lane_bits
            else ones if block >> (bit - lane_bits) & 1
            else 0
            for bit in range(k * n, k * n + n)
        ]
    return atoms


def _order_lists(
    up_masks: tuple[int, ...],
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Up-sets, down-sets and comparable worlds as world positions."""
    n = len(up_masks)
    up = [tuple(j for j in range(n) if m >> j & 1) for m in up_masks]
    down = [tuple(i for i in range(n) if up_masks[i] >> j & 1) for j in range(n)]
    return up, down, [tuple(sorted({*up[i], *down[i]})) for i in range(n)]


def _lane_or(values: list[int], worlds: Iterable[int]) -> int:
    out = 0
    for i in worlds:
        out |= values[i]
    return out


def _run_lanes(
    ops: list[tuple],
    up: list[tuple[int, ...]],
    down: list[tuple[int, ...]],
    comparable: list[tuple[int, ...]],
    atoms: dict[str, list[int]],
    ones: int,
) -> list[int]:
    """The compiled formula's lane value at every world.

    up, down and comparable list world positions; ones has every lane set.
    """
    n = len(up)
    out: list[list[int]] = []
    for kind, x, y in ops:
        if kind is Atom:
            value = atoms.get(x, [0] * n)
        elif kind is Not:
            value = [ones ^ v for v in out[x]]
        elif kind is And:
            value = [v & w for v, w in zip(out[x], out[y])]
        elif kind is Box:
            child = out[x]
            value = []
            for row in up:
                truth = ones
                for j in row:
                    truth &= child[j]
                value.append(truth)
        else:
            # gamma: the area worlds above a goal world, grown through
            # comparable area worlds to a fixpoint, then down-closed.
            area, goal = out[x], out[y]
            grown = [area[u] & _lane_or(goal, down[u]) for u in range(n)]
            changed = True
            while changed:
                changed = False
                for u in range(n):
                    more = area[u] & _lane_or(grown, comparable[u])
                    if more != grown[u]:
                        grown[u] = more
                        changed = True
            value = [_lane_or(grown, row) for row in up]
        out.append(value)
    return out[-1]


def find_model(
    formula: Formula, max_worlds: int
) -> tuple[PosetModel, str] | None:
    """Search for a poset model and world satisfying the formula.

    Enumerates orders and valuations up to max_worlds worlds in a fixed
    deterministic sequence and returns the first witness, re-checked with
    the general evaluator.  None means unsatisfiable at this bound, not
    unsatisfiable outright.
    """
    names = sorted(atoms_of(formula))
    ops = _compile(formula)
    for n in range(1, max_worlds + 1):
        full = (1 << n) - 1
        bits = n * len(names)
        lane_bits = min(bits, _LANE_BITS)
        ones = (1 << (1 << lane_bits)) - 1
        for up_masks in _ascending_closures(n):
            rows = _order_lists(up_masks)
            for block in range(1 << (bits - lane_bits)):
                atoms = _block_atoms(names, n, block, lane_bits, ones)
                hits = _run_lanes(ops, *rows, atoms, ones)
                lanes = _lane_or(hits, range(n))
                if not lanes:
                    continue
                lane = (lanes & -lanes).bit_length() - 1
                world_index = next(i for i in range(n) if hits[i] >> lane & 1)
                assignment = block << lane_bits | lane
                val = {
                    p: assignment >> (index * n) & full
                    for index, p in enumerate(names)
                }
                model = _model_from_masks(up_masks, val, n)
                world = f"w{world_index}"
                confirmed = evaluate(model, formula)
                if world not in confirmed or world in evaluate(model, Not(formula)):
                    raise AssertionError(
                        "lane search and evaluator disagree on "
                        f"{format_formula(formula)}"
                    )
                return model, world
    return None


def all_posets(n: int) -> list[PosetModel]:
    """Every poset on n worlds up to relabeling along a linear extension."""
    return [_model_from_masks(up, {}, n) for up in _ascending_closures(n)]
