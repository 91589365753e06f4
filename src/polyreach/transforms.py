"""Model transformations: nerve, up-down morphisms, filtration, and cut.

Each transformation returns a new model together with enough bookkeeping to
check, not merely assume, the semantic property it is supposed to enjoy:
morphisms come with a clause-level verdict, filtrations keep the per-class
theories, and the full pipeline reports preservation formula by formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Mapping

from .formulas import (
    AdequateSet,
    And,
    Atom,
    BOT,
    Box,
    Formula,
    RESERVED_ATOM,
    Reach,
    TOP,
    adequate_closure,
    dia,
    formula_key,
    format_formula,
    implies,
    lor,
    saturate_diamonds,
)
from .kripke import (
    ModelError,
    PosetModel,
    PreorderModel,
    build_model,
    check_updown_path,
    evaluate,
    is_valid,
    nonempty_chains,
    reach_targets,
    witness_path,
)

__all__ = [
    "NerveModel",
    "ClassModel",
    "MorphismCheck",
    "PullbackCheck",
    "PipelineReport",
    "PipelineResult",
    "nerve",
    "is_updown_morphism",
    "pullback_check",
    "filtrate",
    "chi",
    "chi_disjunction",
    "chi_lemma_check",
    "cut",
    "cut_filtration_pipeline",
]


def _label(members: Iterable[str]) -> str:
    return "+".join(sorted(members))


def _require_distinct(names: Iterable[str]) -> None:
    """Raises ModelError if two generated world ids coincide.  Generated ids
    join member ids with '+', and member ids may contain '+' themselves."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ModelError(f"generated world id {name!r} names two different worlds")
        seen.add(name)


# ---------------------------------------------------------------------------
# Nerve
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NerveModel:
    """Non-empty chains of a poset, ordered by inclusion.

    ``tops`` maps each chain world to the maximum of the chain in the
    source order; it is the canonical map back to the source model.
    """

    model: PosetModel
    source: PosetModel
    chains: Mapping[str, frozenset[str]]
    tops: Mapping[str, str]


def nerve(model: PosetModel) -> NerveModel:
    """All non-empty chains under inclusion, atoms read off the chain top."""
    if not isinstance(model, PosetModel):
        raise ValueError("nerve needs a poset")
    found = nonempty_chains(model)
    names = [_label(c) for c in found]
    _require_distinct(names)
    chains = dict(zip(names, found))
    tops = {
        name: max(chain, key=lambda w: len(model.down[w] & chain))
        for name, chain in chains.items()
    }
    edges = [
        (a, b)
        for a, ca in chains.items()
        for b, cb in chains.items()
        if a != b and ca < cb
    ]
    valuation = {
        atom: {name for name, top in tops.items() if top in members}
        for atom, members in model.valuation.items()
    }
    built = build_model(chains.keys(), edges, valuation)
    assert isinstance(built, PosetModel)
    return NerveModel(model=built, source=model, chains=chains, tops=tops)


# ---------------------------------------------------------------------------
# Up-down morphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MorphismCheck:
    ok: bool
    clause: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_updown_morphism(
    f: Mapping[str, str], source: PreorderModel, target: PreorderModel
) -> MorphismCheck:
    """Check the three morphism clauses, reporting the first violation.

    atom: w and f(w) agree on every atom.
    forth: the order is preserved, hence so is every up-down triple.
    back: whenever f(w) sits under u' over v', some world reachable from w
    through the preimage of u' is mapped onto v'.
    """
    missing = [w for w in source.worlds if w not in f]
    if missing or any(f[w] not in target.world_set for w in source.worlds):
        raise ValueError("map is not total between the given models")

    atoms = sorted(set(source.valuation) | set(target.valuation))
    for atom in atoms:
        source_ext = source.atom_extension(atom)
        target_ext = target.atom_extension(atom)
        for w in sorted(source.worlds):
            if (w in source_ext) != (f[w] in target_ext):
                return MorphismCheck(False, "atom", (atom, w))

    for w, u in sorted(source.order):
        if not target.leq(f[w], f[u]):
            return MorphismCheck(False, "forth", (w, u))

    fibers: dict[str, set[str]] = {}
    for w in source.worlds:
        fibers.setdefault(f[w], set()).add(w)
    for w in source.worlds:
        for u_prime in sorted(target.up[f[w]]):
            area = frozenset(fibers.get(u_prime, ()))
            reachable = reach_targets(source, w, area)
            images = {f[z] for z in reachable}
            for v_prime in sorted(target.down[u_prime]):
                if v_prime not in images:
                    return MorphismCheck(False, "back", (w, u_prime, v_prime))
    return MorphismCheck(True)


@dataclass(frozen=True)
class PullbackCheck:
    ok: bool
    failing: Formula | None = None

    def __bool__(self) -> bool:
        return self.ok


def pullback_check(
    f: Mapping[str, str],
    source: PreorderModel,
    target: PreorderModel,
    formulas: Iterable[Formula],
) -> PullbackCheck:
    """Truth is reflected along an up-down morphism: ``[f] = f^-1 [f]'``."""
    verdict = is_updown_morphism(f, source, target)
    if not verdict:
        raise ValueError(
            f"not an up-down morphism: {verdict.clause} clause fails"
            f" at {verdict.witness}"
        )
    for formula in formulas:
        target_ext = evaluate(target, formula)
        pulled = frozenset(w for w in source.worlds if f[w] in target_ext)
        if evaluate(source, formula) != pulled:
            return PullbackCheck(False, formula)
    return PullbackCheck(True)


# ---------------------------------------------------------------------------
# Filtration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ClassModel:
    """Quotient of a model by agreement on an adequate set.

    Classes are named by their sorted source members joined with ``+``;
    ``theories`` records which adequate-set members hold on each class.
    """

    model: PreorderModel
    source: PreorderModel
    class_map: Mapping[str, str]
    theories: Mapping[str, frozenset[Formula]]
    sigma: AdequateSet


def filtrate(model: PreorderModel, sigma: AdequateSet) -> ClassModel:
    """Quotient by Σ-theories with the box-profile order.

    Two worlds are identified when the same Σ-members are true at them.  A
    class sits below another when every box member of Σ true at the first
    is true at the second; the valuation keeps the atoms that belong to Σ.
    """
    extensions = {member: evaluate(model, member) for member in sigma}
    theory_of = {
        w: frozenset(m for m in sigma if w in extensions[m]) for w in model.worlds
    }
    classes: dict[frozenset[Formula], list[str]] = {}
    for w in model.worlds:
        classes.setdefault(theory_of[w], []).append(w)
    names = {theory: _label(members) for theory, members in classes.items()}
    _require_distinct(names.values())
    class_map = {w: names[theory_of[w]] for w in model.worlds}
    theories = {names[theory]: theory for theory in classes}

    boxes = [m for m in sigma if isinstance(m, Box)]
    edges = [
        (a, b)
        for a in theories
        for b in theories
        if a != b
        and all(box in theories[b] for box in boxes if box in theories[a])
    ]
    valuation = {
        m.name: {name for name, theory in theories.items() if m in theory}
        for m in sigma
        if isinstance(m, Atom) and m.name != RESERVED_ATOM
    }
    built = build_model(theories.keys(), edges, valuation)
    for w, v in model.order:
        assert built.leq(class_map[w], class_map[v]), (
            f"filtration dropped the source pair {w} <= {v}"
        )
    return ClassModel(
        model=built,
        source=model,
        class_map=class_map,
        theories=theories,
        sigma=sigma,
    )


def chi(class_theory: Iterable[Formula]) -> Formula:
    """Conjunction of a class's theory in canonical order; empty gives T."""
    members = sorted(class_theory, key=formula_key)
    if not members:
        return TOP
    return reduce(And, members)


def chi_disjunction(filtration: ClassModel, start: str, formula: Formula) -> Formula:
    """Disjunction of the class formulas reachable from ``start`` through
    the extension of ``formula``; empty gives F.
    """
    if start not in filtration.model.world_set:
        raise ValueError(f"unknown class: {start!r}")
    if formula not in filtration.sigma:
        raise ValueError(
            f"formula {format_formula(formula)!r} is not in the adequate set"
        )
    area = evaluate(filtration.model, formula)
    reached = reach_targets(filtration.model, start, area)
    disjuncts = sorted(
        (chi(filtration.theories[name]) for name in reached), key=formula_key
    )
    if not disjuncts:
        return BOT
    return reduce(lor, disjuncts)


def chi_lemma_check(
    model: PreorderModel, sigma: AdequateSet, start: str, formula: Formula
) -> bool:
    """Both reachability laws for the class disjunction hold in the source:
    reaching into the area re-enters the disjunction, and inside the area
    the disjunction propagates upward.
    """
    filtration = filtrate(model, sigma)
    disjunction = chi_disjunction(filtration, start, formula)
    absorb = implies(dia(And(formula, disjunction)), disjunction)
    propagate = implies(
        And(formula, disjunction), Box(implies(formula, disjunction))
    )
    return is_valid(model, absorb) and is_valid(model, propagate)


# ---------------------------------------------------------------------------
# Cut and the full pipeline
# ---------------------------------------------------------------------------


def cut(model: PreorderModel) -> PosetModel:
    """Keep only identity and strictly increasing pairs.

    Clusters flatten into antichains; the result is always a poset, and a
    poset passes through unchanged.
    """
    edges = [(x, y) for x, y in model.order if x != y and not model.leq(y, x)]
    valuation = {atom: set(members) for atom, members in model.valuation.items()}
    built = build_model(model.worlds, edges, valuation)
    assert isinstance(built, PosetModel)
    assert built.order == frozenset(
        (x, y) for x, y in model.order if x == y or not model.leq(y, x)
    )
    return built


@dataclass(frozen=True)
class PipelineReport:
    preserved: tuple[Formula, ...]
    mismatches: tuple[tuple[Formula, str], ...]
    witnesses: tuple[tuple[Formula, str, tuple[str, ...]], ...]
    witness_failures: tuple[tuple[Formula, str], ...]
    advisory: bool

    @property
    def all_pass(self) -> bool:
        return not self.mismatches and not self.witness_failures


@dataclass(frozen=True, eq=False)
class PipelineResult:
    output: PosetModel
    filtrated: ClassModel
    class_map: Mapping[str, str]
    sigma: AdequateSet
    saturated: AdequateSet
    report: PipelineReport


def _source_refined(filtration: ClassModel) -> PreorderModel:
    """Class order with profile ties resolved instead of left symmetric.

    The profile order can relate two distinct classes in both directions
    even when the source order ranks them one way; cutting such a tie would
    discard the ranked direction along with the spurious one and could lose
    reachability witnesses.  The refined order keeps every strict profile
    pair plus the image of every source pair, and any tie that survives
    even that is turned into a chain rather than severed.  Everything added
    lives inside the profile order, so the result is still a legitimate
    class order; it is simply no coarser than what the source justifies.
    """
    classes = filtration.model
    edges = [
        (a, b)
        for a in classes.worlds
        for b in classes.worlds
        if a != b and classes.leq(a, b) and not classes.leq(b, a)
    ]
    edges.extend(
        (filtration.class_map[w], filtration.class_map[v])
        for w, v in filtration.source.order
        if filtration.class_map[w] != filtration.class_map[v]
    )
    refined = build_model(classes.worlds, edges, classes.valuation)

    # Classes still tied after the source refinement sit inside one profile
    # cluster, where box members and their arguments are uniform, so no box
    # truth can depend on how the tie is resolved.  Chaining the tied
    # classes in name order therefore loses nothing, while severing the tie
    # outright would discard whatever reachability ran through it.
    ties: list[tuple[str, str]] = []
    seen: set[str] = set()
    for w in refined.worlds:
        if w in seen:
            continue
        cluster = sorted(
            x for x in refined.worlds if refined.leq(w, x) and refined.leq(x, w)
        )
        seen.update(cluster)
        ties.extend(zip(cluster, cluster[1:]))
    if not ties:
        return refined
    strict = [
        (a, b)
        for a in refined.worlds
        for b in refined.worlds
        if a != b and refined.leq(a, b) and not refined.leq(b, a)
    ]
    return build_model(refined.worlds, strict + ties, refined.valuation)


def cut_filtration_pipeline(
    model: PreorderModel, formulas: Iterable[Formula]
) -> PipelineResult:
    """Filtrate by the saturated adequate set, then cut to a poset.

    The class order handed to the cut is first refined with the pairs the
    source order induces, and any class tie that still remains is chained
    in name order, so that no reachability is severed along with a tie.
    The report checks that every
    adequate-set member keeps its truth value between each source world and
    its class, and that every reachability member true at a class has a
    witness path in the cut model.  For poset inputs an all-pass report is
    the contract; for preorders it is advisory.
    """
    sigma = adequate_closure(formulas)
    saturated = saturate_diamonds(sigma)
    filtration = filtrate(model, saturated)
    output = cut(_source_refined(filtration))

    preserved: list[Formula] = []
    mismatches: list[tuple[Formula, str]] = []
    for member in sigma:
        source_ext = evaluate(model, member)
        out_ext = evaluate(output, member)
        bad = [
            w
            for w in model.worlds
            if (w in source_ext) != (filtration.class_map[w] in out_ext)
        ]
        if bad:
            mismatches.extend((member, w) for w in bad)
        else:
            preserved.append(member)

    witnesses: list[tuple[Formula, str, tuple[str, ...]]] = []
    witness_failures: list[tuple[Formula, str]] = []
    for member in sigma:
        if not isinstance(member, Reach):
            continue
        area = evaluate(filtration.model, member.left)
        goal = evaluate(filtration.model, member.right)
        for name in sorted(evaluate(filtration.model, member)):
            path = witness_path(output, name, area, goal)
            if path is None or not check_updown_path(output, path, area):
                witness_failures.append((member, name))
            else:
                witnesses.append((member, name, path))

    report = PipelineReport(
        preserved=tuple(preserved),
        mismatches=tuple(mismatches),
        witnesses=tuple(witnesses),
        witness_failures=tuple(witness_failures),
        advisory=not isinstance(model, PosetModel),
    )
    return PipelineResult(
        output=output,
        filtrated=filtration,
        class_map=filtration.class_map,
        sigma=sigma,
        saturated=saturated,
        report=report,
    )
