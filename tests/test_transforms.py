"""Nerve, morphism checks, filtration, cut, and the full pipeline."""

import random

import pytest

from polyreach.formulas import (
    Atom,
    BOT,
    Box,
    Not,
    Reach,
    TOP,
    adequate_closure,
    format_formula,
    parse_formula,
)
from polyreach.kripke import (
    PosetModel,
    PreorderModel,
    build_model,
    check_updown_path,
    evaluate,
    parse_model,
    serialize_model,
)
from polyreach.soundness import (
    random_formula,
    random_poset_model,
    random_preorder_model,
)
from polyreach.transforms import (
    ClassModel,
    chi,
    chi_disjunction,
    chi_lemma_check,
    cut,
    cut_filtration_pipeline,
    filtrate,
    is_updown_morphism,
    nerve,
    pullback_check,
)


def v_model():
    return build_model(
        ["a", "u", "v"], [("a", "u"), ("v", "u")], {"p": {"u"}, "q": {"v"}}
    )


def chain2():
    return build_model(["x", "y"], [("x", "y")], {"p": {"y"}})


def cluster2():
    return build_model(["a", "b"], [("a", "b"), ("b", "a")], {"p": {"a"}})


# ---------------------------------------------------------------------------
# Nerve
# ---------------------------------------------------------------------------


def test_nerve_of_a_chain_has_all_subsets():
    m = build_model(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert len(nerve(m).model.worlds) == 7


def test_nerve_of_an_antichain_has_singletons():
    m = build_model(["a", "b", "c"], [])
    assert nerve(m).model.worlds == ("a", "b", "c")


def test_nerve_frozen_on_the_v_poset():
    nv = nerve(v_model())
    assert nv.model.worlds == ("a", "a+u", "u", "u+v", "v")
    assert dict(sorted(nv.tops.items())) == {
        "a": "a",
        "a+u": "u",
        "u": "u",
        "u+v": "u",
        "v": "v",
    }
    assert evaluate(nv.model, Atom("p")) == frozenset({"a+u", "u", "u+v"})
    assert evaluate(nv.model, Atom("q")) == frozenset({"v"})
    assert nv.model.leq("a", "a+u") and nv.model.leq("u", "a+u")
    assert not nv.model.leq("a+u", "u+v")


def test_nerve_rejects_preorders():
    with pytest.raises(ValueError):
        nerve(cluster2())


def test_nerve_model_round_trips_through_text():
    nv = nerve(v_model())
    text = serialize_model(nv.model)
    again = parse_model(text)
    assert serialize_model(again) == text


# ---------------------------------------------------------------------------
# Up-down morphisms and pullbacks
# ---------------------------------------------------------------------------


def test_identity_is_a_morphism():
    m = v_model()
    check = is_updown_morphism({w: w for w in m.worlds}, m, m)
    assert check and check.clause is None


def test_atoms_must_agree_both_ways():
    bare = build_model(["w"], [])
    rich = build_model(["w"], [], {"p": {"w"}})
    forward = is_updown_morphism({"w": "w"}, bare, rich)
    assert not forward
    assert forward.clause == "atom"
    assert forward.witness == ("p", "w")
    backward = is_updown_morphism({"w": "w"}, rich, bare)
    assert not backward
    assert backward.clause == "atom"
    assert backward.witness == ("p", "w")


def test_a_map_that_merges_truth_values_is_no_morphism():
    # Carrying p forward alone would accept this map, yet p fails to pull
    # back: b lacks p while its image c has it.
    source = build_model(["a", "b"], [], {"p": {"a"}})
    target = build_model(["c"], [], {"p": {"c"}})
    check = is_updown_morphism({"a": "c", "b": "c"}, source, target)
    assert not check
    assert check.clause == "atom"
    assert check.witness == ("p", "b")
    with pytest.raises(ValueError, match="atom clause"):
        pullback_check({"a": "c", "b": "c"}, source, target, [Atom("p")])


def test_forth_violation_reported():
    source = chain2()
    target = build_model(["x", "y"], [], {"p": {"y"}})
    check = is_updown_morphism({"x": "x", "y": "y"}, source, target)
    assert not check
    assert check.clause == "forth"
    assert check.witness == ("x", "y")


def test_back_violation_reported():
    source = build_model(["a", "b"], [], {"p": {"b"}})
    target = build_model(["x", "y"], [("x", "y")], {"p": {"y"}})
    check = is_updown_morphism({"a": "x", "b": "y"}, source, target)
    assert not check
    assert check.clause == "back"
    assert check.witness == ("a", "y", "x")


def test_partial_maps_are_rejected():
    m = v_model()
    with pytest.raises(ValueError):
        is_updown_morphism({"a": "a"}, m, m)
    with pytest.raises(ValueError):
        is_updown_morphism({w: "zz" for w in m.worlds}, m, m)


def test_nerve_top_map_is_a_morphism_with_pullback():
    formulas = [
        parse_formula("p"),
        parse_formula("[]p"),
        parse_formula("gamma(p, q)"),
        parse_formula("<>q -> p"),
    ]
    rng = random.Random(31)
    for _ in range(25):
        m = random_poset_model(rng, max_worlds=5, atoms=["p", "q"])
        nv = nerve(m)
        assert is_updown_morphism(nv.tops, nv.model, m)
        assert pullback_check(nv.tops, nv.model, m, formulas)


def test_pullback_requires_a_morphism():
    source = chain2()
    target = build_model(["x", "y"], [], {"p": {"y"}})
    with pytest.raises(ValueError):
        pullback_check({"x": "x", "y": "y"}, source, target, [Atom("p")])


def test_pullback_reports_the_failing_formula():
    # a morphism in the three clauses need not reflect gamma unless the
    # back clause holds, so build a map that is NOT one and check the
    # error instead; a genuine morphism never fails the pullback.
    m = v_model()
    nv = nerve(m)
    verdict = pullback_check(nv.tops, nv.model, m, [parse_formula("gamma(p, q)")])
    assert verdict and verdict.failing is None


# ---------------------------------------------------------------------------
# Filtration
# ---------------------------------------------------------------------------


def test_filtrate_chain_by_box_closure():
    filt = filtrate(chain2(), adequate_closure([parse_formula("[]p")]))
    assert isinstance(filt.model, PosetModel)
    assert filt.model.worlds == ("x", "y")
    assert filt.model.leq("x", "y") and not filt.model.leq("y", "x")
    assert filt.class_map == {"x": "x", "y": "y"}
    assert format_formula(chi(filt.theories["x"])) == "~[]p & ~p"
    assert format_formula(chi(filt.theories["y"])) == "[]p & p"


def test_filtrate_without_boxes_gives_a_cluster():
    filt = filtrate(chain2(), adequate_closure([parse_formula("p")]))
    assert not isinstance(filt.model, PosetModel)
    assert filt.model.leq("x", "y") and filt.model.leq("y", "x")


def test_filtrate_chain_by_gamma_closure_is_a_cluster():
    filt = filtrate(chain2(), adequate_closure([parse_formula("gamma(p, q)")]))
    assert isinstance(filt.model, PreorderModel)
    assert not isinstance(filt.model, PosetModel)
    a, b = filt.model.worlds
    assert filt.model.leq(a, b) and filt.model.leq(b, a)


def test_filtrate_merges_agreeing_worlds():
    m = build_model(["a", "b", "c"], [("a", "c"), ("b", "c")], {"p": {"c"}})
    filt = filtrate(m, adequate_closure([parse_formula("[]p")]))
    assert filt.class_map["a"] == filt.class_map["b"] == "a+b"
    assert filt.class_map["c"] == "c"
    assert len(filt.model.worlds) == 2


def test_filtrate_accepts_the_verum_constant():
    filt = filtrate(v_model(), adequate_closure([parse_formula("gamma(p, T)")]))
    assert evaluate(filt.model, TOP) == filt.model.world_set
    assert "__t" not in filt.model.valuation


def test_filtrate_theories_match_source_truth():
    rng = random.Random(47)
    for _ in range(40):
        m = random_preorder_model(rng, max_worlds=6, atoms=["p", "q"])
        gamma_set = [random_formula(rng, ["p", "q"], 2, allow_reach=True)]
        sigma = adequate_closure(gamma_set)
        filt = filtrate(m, sigma)
        assert set(filt.class_map) == set(m.worlds)
        for member in sigma:
            source_ext = evaluate(m, member)
            for w in m.worlds:
                assert (w in source_ext) == (
                    member in filt.theories[filt.class_map[w]]
                )


def test_filtrate_preserves_member_truth():
    rng = random.Random(53)
    for _ in range(40):
        m = random_preorder_model(rng, max_worlds=6, atoms=["p", "q"])
        sigma = adequate_closure(
            [random_formula(rng, ["p", "q"], 2, allow_reach=True)]
        )
        filt = filtrate(m, sigma)
        for member in sigma:
            source_ext = evaluate(m, member)
            class_ext = evaluate(filt.model, member)
            for w in m.worlds:
                assert (w in source_ext) == (filt.class_map[w] in class_ext)


# ---------------------------------------------------------------------------
# Class formulas
# ---------------------------------------------------------------------------


def test_chi_of_empty_theory_is_verum():
    assert chi(frozenset()) == TOP


def test_chi_orders_conjuncts_canonically():
    theory = frozenset({Atom("p"), Not(Atom("q")), Box(Atom("p"))})
    assert format_formula(chi(theory)) == "[]p & p & ~q"


def test_chi_disjunction_frozen():
    filt = filtrate(chain2(), adequate_closure([parse_formula("[]p")]))
    formula = chi_disjunction(filt, "x", Atom("p"))
    assert format_formula(formula) == "~(~([]p & p) & ~(~[]p & ~p))"


def test_chi_disjunction_empty_reach_is_falsum():
    filt = filtrate(chain2(), adequate_closure([parse_formula("[]p")]))
    assert chi_disjunction(filt, "y", Not(Atom("p"))) == BOT


def test_chi_disjunction_input_validation():
    filt = filtrate(chain2(), adequate_closure([parse_formula("[]p")]))
    with pytest.raises(ValueError):
        chi_disjunction(filt, "zz", Atom("p"))
    with pytest.raises(ValueError):
        chi_disjunction(filt, "x", Atom("q"))


def test_chi_lemma_on_the_v_poset():
    sigma = adequate_closure([parse_formula("gamma(p, q)")])
    filt = filtrate(v_model(), sigma)
    for cls in filt.model.worlds:
        assert chi_lemma_check(v_model(), sigma, cls, Atom("p"))


def test_chi_lemma_on_random_models():
    rng = random.Random(61)
    done = 0
    while done < 30:
        m = random_preorder_model(rng, max_worlds=5, atoms=["p", "q"])
        sigma = adequate_closure(
            [random_formula(rng, ["p", "q"], 2, allow_reach=True)]
        )
        filt = filtrate(m, sigma)
        member = sorted(sigma, key=format_formula)[done % len(sigma.members)]
        cls = filt.model.worlds[done % len(filt.model.worlds)]
        assert chi_lemma_check(m, sigma, cls, member)
        done += 1


# ---------------------------------------------------------------------------
# Cut
# ---------------------------------------------------------------------------


def test_cut_leaves_posets_alone():
    m = v_model()
    out = cut(m)
    assert out.worlds == m.worlds
    assert out.order == m.order


def test_cut_collapses_clusters_to_antichains():
    out = cut(cluster2())
    assert isinstance(out, PosetModel)
    assert not out.leq("a", "b") and not out.leq("b", "a")


def test_cut_keeps_strict_pairs():
    m = build_model(
        ["a", "b", "c"],
        [("a", "b"), ("b", "a"), ("a", "c"), ("b", "c")],
        {"p": {"c"}},
    )
    out = cut(m)
    assert out.leq("a", "c") and out.leq("b", "c")
    assert not out.leq("a", "b")


def test_cut_is_idempotent():
    rng = random.Random(71)
    for _ in range(20):
        m = random_preorder_model(rng, max_worlds=6, atoms=["p"])
        once = cut(m)
        assert cut(once).order == once.order


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def test_pipeline_frozen_on_the_v_poset():
    result = cut_filtration_pipeline(v_model(), [parse_formula("gamma(p, q)")])
    assert result.report.all_pass
    assert not result.report.advisory
    assert len(result.sigma.members) == 14
    assert len(result.saturated.members) == 26
    assert result.output.worlds == ("a", "u", "v")
    witnesses = {
        (format_formula(f), cls): path for f, cls, path in result.report.witnesses
    }
    assert witnesses[("gamma(p, q)", "a")] == ("a", "u", "v")
    assert witnesses[("gamma(p, q)", "u")] == ("u", "u", "v")
    assert witnesses[("gamma(p, q)", "v")] == ("v", "u", "v")
    assert len(result.report.preserved) == 14


def test_pipeline_witnesses_validate_in_the_output():
    result = cut_filtration_pipeline(v_model(), [parse_formula("gamma(p, q)")])
    for formula, _cls, path in result.report.witnesses:
        assert isinstance(formula, Reach)
        area = evaluate(result.output, formula.left)
        assert check_updown_path(result.output, path, area)
        assert path[-1] in evaluate(result.output, formula.right)


def test_pipeline_is_advisory_on_preorders():
    m = build_model(
        ["a", "b", "c"],
        [("a", "b"), ("b", "a"), ("a", "c"), ("b", "c")],
        {"p": {"c"}},
    )
    result = cut_filtration_pipeline(m, [parse_formula("[]p")])
    assert result.report.advisory
    assert result.report.all_pass
    assert result.output.worlds == ("a+b", "c")
    assert result.class_map == {"a": "a+b", "b": "a+b", "c": "c"}


def test_pipeline_saturates_diamonds():
    result = cut_filtration_pipeline(chain2(), [parse_formula("<>p")])
    assert len(result.sigma.members) == 4
    assert len(result.saturated.members) == 8
    hat = {format_formula(m) for m in result.saturated.members}
    assert "~[]~(~p & ~[]~p)" in hat
    assert result.report.all_pass


def test_pipeline_output_is_always_a_poset():
    rng = random.Random(83)
    for _ in range(20):
        m = random_preorder_model(rng, max_worlds=5, atoms=["p", "q"])
        gamma_set = [random_formula(rng, ["p", "q"], 2, allow_reach=True)]
        result = cut_filtration_pipeline(m, gamma_set)
        assert isinstance(result.output, PosetModel)
        assert result.report.advisory == (not isinstance(m, PosetModel))


def test_pipeline_all_pass_on_random_posets():
    rng = random.Random(89)
    for _ in range(20):
        m = random_poset_model(rng, max_worlds=5, atoms=["p", "q"])
        gamma_set = [random_formula(rng, ["p", "q"], 2, allow_reach=True)]
        result = cut_filtration_pipeline(m, gamma_set)
        assert result.report.all_pass, (
            serialize_model(m),
            [format_formula(g) for g in gamma_set],
            result.report.mismatches,
            result.report.witness_failures,
        )


def test_pipeline_keeps_source_ranked_ties():
    # w2 and w3 share a box profile, so the class order alone ties them both
    # ways; only the source pair w2 <= w3 says which direction is real.  The
    # box member would flip at w0 if the tie were severed instead of kept.
    m = build_model(
        ["w0", "w1", "w2", "w3"],
        [("w0", "w3"), ("w2", "w3")],
        {"p": ["w1", "w2", "w3"], "q": ["w2"]},
    )
    result = cut_filtration_pipeline(m, [parse_formula("[]gamma(p, q)")])
    assert result.report.all_pass, (
        result.report.mismatches,
        result.report.witness_failures,
    )
    assert isinstance(result.output, PosetModel)


def test_pipeline_chains_class_ties_the_source_cannot_rank():
    # The two ends of this chain satisfy the same members, so they land in
    # one class and the source pairs run between the classes in both
    # directions.  Chaining the tie keeps the witness path; severing it
    # would leave gamma(p, q) with no up-down path in the output.
    m = build_model(
        ["w0", "w1", "w2"],
        [("w0", "w1"), ("w1", "w2")],
        {"p": ["w0", "w1", "w2"], "q": ["w1"]},
    )
    result = cut_filtration_pipeline(m, [parse_formula("gamma(p, q)")])
    assert result.report.all_pass, (
        result.report.mismatches,
        result.report.witness_failures,
    )
    assert isinstance(result.output, PosetModel)
    filt = result.filtrated
    assert filt.class_map["w0"] == filt.class_map["w2"]


def test_pipeline_output_round_trips_through_text():
    result = cut_filtration_pipeline(v_model(), [parse_formula("gamma(p, q)")])
    text = serialize_model(result.output)
    assert serialize_model(parse_model(text)) == text


def test_filtrated_result_is_a_class_model():
    result = cut_filtration_pipeline(v_model(), [parse_formula("gamma(p, q)")])
    assert isinstance(result.filtrated, ClassModel)
    assert result.filtrated.sigma is result.saturated
