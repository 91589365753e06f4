"""Axiom/rule sampling and bounded satisfiability search.

The poset counts frozen here (1, 2, 7, 40 for one to four worlds) were
re-derived by hand for n <= 3 and match the published count of naturally
labeled posets for n = 4.
"""

import random

import pytest
from oracles import evaluate_fixpoint

from polyreach.formulas import (
    And,
    Atom,
    Not,
    Reach,
    dia,
    implies,
    parse_formula,
)
from polyreach.kripke import PosetModel, build_model, evaluate, serialize_model
from polyreach.soundness import (
    LAW_NAMES,
    all_posets,
    axiom_suite,
    find_model,
    random_formula,
    random_poset_model,
    random_preorder_model,
)

P, Q = Atom("p"), Atom("q")


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def test_random_poset_model_is_poset():
    rng = random.Random(1)
    for _ in range(50):
        m = random_poset_model(rng, max_worlds=6, atoms=("p", "q"))
        assert isinstance(m, PosetModel)
        assert 1 <= len(m.worlds) <= 6


def test_random_preorder_model_produces_clusters():
    rng = random.Random(2)
    saw_cluster = False
    for _ in range(100):
        m = random_preorder_model(rng, max_worlds=5, atoms=("p",))
        if not isinstance(m, PosetModel):
            saw_cluster = True
    assert saw_cluster


def test_random_formula_respects_reach_flag():
    rng = random.Random(3)

    def mentions_reach(f):
        if isinstance(f, Reach):
            return True
        for name in ("child", "left", "right"):
            sub = getattr(f, name, None)
            if sub is not None and mentions_reach(sub):
                return True
        return False

    for _ in range(100):
        f = random_formula(rng, ("p", "q"), 3, allow_reach=False)
        assert not mentions_reach(f)


# ---------------------------------------------------------------------------
# Axiom suite
# ---------------------------------------------------------------------------


def test_suite_all_pass_on_posets():
    rng = random.Random(4)
    for _ in range(10):
        m = random_poset_model(rng, max_worlds=5, atoms=("p", "q"))
        report = axiom_suite(m, seed=rng.randrange(10**6))
        assert report.is_poset
        assert report.all_ok, report.violations
        for law in LAW_NAMES:
            assert report.checked.get(law, 0) > 0 or law == "rule_induction"


def test_reach_laws_hold_on_preorders():
    rng = random.Random(5)
    for _ in range(10):
        m = random_preorder_model(rng, max_worlds=5, atoms=("p", "q"))
        report = axiom_suite(m, seed=rng.randrange(10**6))
        assert report.reach_laws_ok, report.violations


def test_cluster_breaks_grz_but_not_reach_laws():
    cluster = build_model(
        ["a", "b"], [("a", "b"), ("b", "a")], {"p": {"a"}}
    )
    report = axiom_suite(cluster, seed=0, samples=60)
    assert not report.is_poset
    assert report.reach_laws_ok, report.violations
    assert not report.grz_ok
    violation = next(v for v in report.violations if v.law == "grz")
    # the reported instance really fails at the reported world
    instance = parse_formula(violation.instance)
    assert violation.world not in evaluate(cluster, instance)


def test_suite_is_deterministic():
    cluster = build_model(["a", "b"], [("a", "b"), ("b", "a")], {"p": {"a"}})
    one = axiom_suite(cluster, seed=7, samples=30)
    two = axiom_suite(cluster, seed=7, samples=30)
    assert one.checked == two.checked
    assert [(v.law, v.instance, v.world) for v in one.violations] == [
        (v.law, v.instance, v.world) for v in two.violations
    ]


def test_induction_rule_gets_nonvacuous_checks():
    m = build_model(
        ["a", "u", "v"], [("a", "u"), ("v", "u")], {"p": {"u"}, "q": {"v"}}
    )
    report = axiom_suite(m, seed=11, samples=80)
    assert report.checked.get("rule_induction", 0) > 0
    assert report.all_ok


# ---------------------------------------------------------------------------
# Bounded satisfiability
# ---------------------------------------------------------------------------


def test_poset_enumeration_counts_frozen():
    assert [len(all_posets(n)) for n in (1, 2, 3, 4)] == [1, 2, 7, 40]


def test_find_model_atom():
    found = find_model(P, 2)
    assert found is not None
    model, world = found
    assert len(model.worlds) == 1
    assert world in evaluate(model, P)


def test_find_model_gamma_without_diamond_goal():
    found = find_model(parse_formula("gamma(p, q) & ~<>q"), 3)
    assert found is not None
    model, world = found
    assert len(model.worlds) <= 3
    f = parse_formula("gamma(p, q) & ~<>q")
    assert world in evaluate(model, f)
    assert world in evaluate_fixpoint(model, f)


def test_find_model_unsat_cases():
    # gamma implies the diamond of its area, so these have no models.
    assert find_model(parse_formula("gamma(p, q) & ~<>p"), 4) is None
    assert find_model(parse_formula("p & ~p"), 4) is None
    # negated absorption axiom
    negated = Not(implies(dia(And(P, Reach(P, Q))), Reach(P, Q)))
    assert find_model(negated, 4) is None


def test_find_model_deterministic():
    f = parse_formula("gamma(p, q) & ~<>q")
    one = find_model(f, 4)
    two = find_model(f, 4)
    assert one is not None and two is not None
    assert serialize_model(one[0]) == serialize_model(two[0])
    assert one[1] == two[1]


def test_find_model_prefers_smaller_models():
    # <>p is satisfiable on one world; the search must not return more.
    found = find_model(dia(P), 4)
    assert found is not None
    assert len(found[0].worlds) == 1


@pytest.mark.parametrize("text", ["[]p & ~p", "gamma(p & ~p, q)"])
def test_find_model_miscellany(text):
    f = parse_formula(text)
    found = find_model(f, 3)
    if text == "[]p & ~p":
        assert found is None  # box is reflexive
    else:
        assert found is None  # empty area admits no witness path
