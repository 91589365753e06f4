"""Model construction, evaluation, reachability oracles, and the text format.

The `V model` used throughout is the three-world poset a < u > v with p
true at u and q true at v; frozen extensions on it were derived by running
the reachability fixpoint by hand.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import evaluate_fixpoint, reach_relation, updown_bfs, witness_path_by_name

from polyreach.formulas import (
    BOT,
    TOP,
    And,
    Atom,
    Box,
    Not,
    Reach,
    dia,
    implies,
    lor,
    parse_formula,
    pibox,
)
from polyreach.kripke import (
    ModelError,
    ModelFormatError,
    PosetModel,
    PreorderModel,
    build_model,
    check_updown_path,
    evaluate,
    is_valid,
    nonempty_chains,
    parse_model,
    reach_targets,
    serialize_model,
    witness_path,
)
from polyreach.soundness import random_poset_model, random_preorder_model

P, Q = Atom("p"), Atom("q")


def v_model() -> PosetModel:
    return build_model(
        ["a", "u", "v"], [("a", "u"), ("v", "u")], {"p": {"u"}, "q": {"v"}}
    )


def chain2() -> PosetModel:
    return build_model(["a", "b"], [("a", "b")], {"p": {"b"}})


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_build_transitive_closure_and_classification():
    m = build_model(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert m.leq("a", "c")
    assert m.leq("a", "a")
    assert isinstance(m, PosetModel)

    cluster = build_model(["a", "b"], [("a", "b"), ("b", "a")])
    assert isinstance(cluster, PreorderModel)
    assert not isinstance(cluster, PosetModel)
    assert cluster.leq("a", "b") and cluster.leq("b", "a")


def test_single_world_is_identity_order():
    m = build_model(["w"], [])
    assert m.order == frozenset({("w", "w")})
    assert isinstance(m, PosetModel)


def test_up_down_sets_and_strictness():
    m = v_model()
    assert {v for v in m.worlds if m.leq("a", v)} == {"a", "u"}
    assert {w for w in m.worlds if m.leq(w, "u")} == {"a", "u", "v"}
    assert m.lt("a", "u") and not m.lt("a", "a")
    cluster = build_model(["a", "b"], [("a", "b"), ("b", "a")])
    assert not cluster.lt("a", "b")  # comparable both ways, so not strict


def test_build_errors():
    with pytest.raises(ModelError):
        build_model(["a", "a"], [])
    with pytest.raises(ModelError):
        build_model(["9x"], [])
    with pytest.raises(ModelError):
        build_model(["a"], [("a", "b")])
    with pytest.raises(ModelError):
        build_model(["a"], [], {"p": {"z"}})
    with pytest.raises(ModelError):
        build_model(["a"], [], {"gamma": {"a"}})
    with pytest.raises(ModelError):
        build_model(["a"], [], {"__t": {"a"}})
    with pytest.raises(ModelError):
        build_model([], [])


def test_plus_joined_world_ids_are_allowed():
    m = build_model(["a+b", "c"], [("a+b", "c")], {"p": {"a+b"}})
    assert m.leq("a+b", "c")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_box_and_diamond_on_chain():
    m = chain2()
    assert evaluate(m, Box(P)) == frozenset({"b"})
    assert evaluate(m, dia(P)) == frozenset({"a", "b"})
    assert evaluate(m, Not(P)) == frozenset({"a"})
    assert evaluate(m, And(P, P)) == frozenset({"b"})


def test_gamma_on_v_model_frozen():
    m = v_model()
    g = Reach(P, Q)
    assert evaluate(m, g) == frozenset({"a", "u", "v"})
    assert evaluate(m, dia(Q)) == frozenset({"v"})
    # a reaches q through the peak even though no q-world is above a
    assert "a" in evaluate(m, g) and "a" not in evaluate(m, dia(Q))


def test_gamma_needs_a_middle_point():
    # With an empty area there is no up-down path at all, even into a
    # goal world itself.
    m = chain2()
    r = Atom("r")
    assert evaluate(m, Reach(r, P)) == frozenset()
    assert evaluate(m, Reach(P, r)) == frozenset()


def test_gamma_through_a_zigzag_frozen():
    # a < c > d < e > f with the area a, c, d, e and the goal f: the path
    # a, c, d, e, f crosses two peaks, so gamma holds everywhere in the area.
    m = build_model(
        ["a", "c", "d", "e", "f"],
        [("a", "c"), ("d", "c"), ("d", "e"), ("f", "e")],
        {"p": {"a", "c", "d", "e"}, "q": {"f"}},
    )
    assert evaluate(m, Reach(P, Q)) == frozenset({"a", "c", "d", "e", "f"})


def test_gamma_with_top_goal_is_diamond():
    rng = random.Random(71)
    for _ in range(40):
        m = random_preorder_model(rng, max_worlds=5, atoms=("p", "q"))
        assert evaluate(m, Reach(P, TOP)) == evaluate(m, dia(P))


def test_missing_atoms_evaluate_to_empty():
    m = chain2()
    assert evaluate(m, Atom("zz")) == frozenset()
    assert evaluate(m, Not(Atom("zz"))) == frozenset({"a", "b"})


def test_engines_agree_on_random_models():
    rng = random.Random(9)
    for _ in range(60):
        m = random_preorder_model(rng, max_worlds=5, atoms=("p", "q"))
        f = Reach(lor(P, Q), And(P, Q))
        assert evaluate(m, f) == evaluate_fixpoint(m, f)
        g = Reach(P, Reach(Q, P))
        assert evaluate(m, g) == evaluate_fixpoint(m, g)


@st.composite
def _models(draw, max_worlds=7):
    """Small models; posets take only edges that ascend the world numbering."""
    n = draw(st.integers(1, max_worlds))
    worlds = [f"w{i}" for i in range(n)]
    poset = draw(st.booleans())
    pairs = [(a, b) for a in range(n) for b in range(n) if (a < b if poset else a != b)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    valuation = {
        p: {worlds[i] for i in draw(st.sets(st.integers(0, n - 1)))} for p in ("p", "q")
    }
    return build_model(worlds, [(worlds[a], worlds[b]) for a, b in edges], valuation)


_formulas = st.recursive(
    st.sampled_from([P, Q, TOP, BOT]),
    lambda kids: st.one_of(
        kids.map(Not),
        kids.map(Box),
        st.tuples(kids, kids).map(lambda ab: And(*ab)),
        st.tuples(kids, kids).map(lambda ab: Reach(*ab)),
    ),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(_models(), _formulas, _formulas)
def test_evaluate_matches_fixpoint_oracle(m, f, g):
    nested = Reach(f, Box(Reach(g, f)))
    for formula in (f, nested, Reach(P, Q)):
        assert evaluate(m, formula) == evaluate_fixpoint(m, formula)
    area = evaluate(m, f)
    relation = reach_relation(m, area)
    for w in m.worlds:
        assert reach_targets(m, w, area) == frozenset(v for (x, v) in relation if x == w)


def test_box_is_an_interior_operator():
    rng = random.Random(13)
    for _ in range(30):
        m = random_preorder_model(rng, max_worlds=6, atoms=("p", "q"))
        box_p = evaluate(m, Box(P))
        assert box_p <= evaluate(m, P)
        assert box_p == evaluate(m, Box(Box(P)))
        both = evaluate(m, Box(And(P, Q)))
        assert both == box_p & evaluate(m, Box(Q))


def test_validity():
    m = v_model()
    assert is_valid(m, lor(P, Not(P)))
    assert is_valid(m, implies(dia(And(P, Reach(P, Q))), Reach(P, Q)))
    assert not is_valid(m, P)


def test_pi_box_matches_component_oracle():
    # pi f holds exactly on the components of the comparability graph that
    # satisfy f everywhere; the oracle recomputes components by BFS.
    rng = random.Random(23)
    for _ in range(40):
        m = random_preorder_model(rng, max_worlds=6, atoms=("p",))
        neighbours = {
            w: {v for v in m.worlds if m.leq(w, v) or m.leq(v, w)}
            for w in m.worlds
        }
        component = {}
        for w in m.worlds:
            if w in component:
                continue
            seen, queue = {w}, [w]
            while queue:
                x = queue.pop()
                for y in neighbours[x]:
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            for x in seen:
                component[x] = w
        p_ext = evaluate(m, P)
        expected = frozenset(
            w
            for w in m.worlds
            if all(x in p_ext for x in m.worlds if component[x] == component[w])
        )
        assert evaluate(m, pibox(P)) == expected


# ---------------------------------------------------------------------------
# Reachability oracles
# ---------------------------------------------------------------------------


def test_reach_relation_on_v_model_frozen():
    # A = {u}: every pair of worlds below the peak is related, 9 pairs.
    m = v_model()
    rel = reach_relation(m, frozenset({"u"}))
    assert rel == frozenset(
        (x, y) for x in ("a", "u", "v") for y in ("a", "u", "v")
    )


def test_reach_relation_empty_area():
    m = v_model()
    assert reach_relation(m, frozenset()) == frozenset()


def test_reach_relation_composes_through_area():
    # w0 < m0 > w1 < m1 > w2: composition links w0 to w2, but only when the
    # dip w1 itself lies in the area, because compositions route through it.
    m = build_model(
        ["w0", "m0", "w1", "m1", "w2"],
        [("w0", "m0"), ("w1", "m0"), ("w1", "m1"), ("w2", "m1")],
    )
    rel = reach_relation(m, frozenset({"m0", "w1", "m1"}))
    assert ("w0", "w2") in rel
    assert ("w2", "w0") in rel
    without_dip = reach_relation(m, frozenset({"m0", "m1"}))
    assert ("w0", "w2") not in without_dip


def test_reach_targets_matches_relation():
    rng = random.Random(37)
    for _ in range(30):
        m = random_preorder_model(rng, max_worlds=5, atoms=("p",))
        area = evaluate(m, P)
        rel = reach_relation(m, area)
        for w in m.worlds:
            assert reach_targets(m, w, area) == frozenset(
                v for (x, v) in rel if x == w
            )


def test_witness_path_on_v_model():
    m = v_model()
    path = witness_path(m, "a", frozenset({"u"}), frozenset({"v"}))
    assert path == ("a", "u", "v")
    assert check_updown_path(m, path, frozenset({"u"}))


def test_witness_path_absent_when_gamma_fails():
    m = v_model()
    assert witness_path(m, "a", frozenset({"u"}), frozenset()) is None
    assert witness_path(m, "a", frozenset(), frozenset({"v"})) is None


def test_witness_path_agrees_with_evaluate_everywhere():
    rng = random.Random(51)
    for _ in range(50):
        m = random_preorder_model(rng, max_worlds=6, atoms=("p", "q"))
        area, goal = evaluate(m, P), evaluate(m, Q)
        ext = evaluate(m, Reach(P, Q))
        for w in m.worlds:
            path = witness_path(m, w, area, goal)
            if w in ext:
                assert path is not None
                assert path[0] == w and path[-1] in goal
                assert check_updown_path(m, path, area)
            else:
                assert path is None


@st.composite
def _fences(draw, max_worlds=8):
    """Fences p0 < p1 > p2 < p3 ... over shuffled names, where up-down paths
    often need several turns, plus a few edges: from a minimal to a maximal
    world of the fence (still a poset) or between any two (a preorder)."""
    n = draw(st.integers(1, max_worlds))
    worlds = draw(st.permutations([f"w{i}" for i in range(n)]))
    steps = enumerate(zip(worlds, worlds[1:]))
    edges = [(a, b) if k % 2 == 0 else (b, a) for k, (a, b) in steps]
    if draw(st.booleans()):
        pairs = [(a, b) for a in worlds[0::2] for b in worlds[1::2]]
    else:
        pairs = [(a, b) for a in worlds for b in worlds if a != b]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=n // 2)) if pairs else []
    return build_model(worlds, edges)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_witness_path_matches_name_set_oracle(data):
    m = data.draw(st.one_of(_models(max_worlds=8), _fences()))
    worlds = st.sets(st.sampled_from(m.worlds))
    start = data.draw(st.sampled_from(m.worlds))
    area = m.world_set - data.draw(worlds)
    for goal in [frozenset(data.draw(worlds)), *({w} for w in m.worlds)]:
        path = witness_path(m, start, area, goal)
        assert path == witness_path_by_name(m, start, area, goal)
        if path is not None:
            assert check_updown_path(m, path, area)


def test_witness_paths_on_a_large_poset():
    # Goals high in the order make many uppers share lowers; each lower is
    # expanded once, so this stays fast while paths stay checkable.
    rng = random.Random(41)
    n = 1000
    worlds = [f"w{i:04d}" for i in range(n)]
    edges = [
        (worlds[i], worlds[min(n - 1, i + rng.randint(1, 40))])
        for i in range(n - 1)
        for _ in range(2)
    ]
    m = build_model(worlds, edges)
    area = frozenset(w for w in worlds if rng.random() < 0.6)
    goal = frozenset(rng.sample(worlds[-n // 10:], 5))
    found = 0
    for start in rng.sample(worlds, 8):
        path = witness_path(m, start, area, goal)
        reachable = bool(updown_bfs(m, start, area) & goal)
        assert (path is not None) == reachable
        if path is not None:
            found += 1
            assert path[0] == start and path[-1] in goal
            assert check_updown_path(m, path, area)
    assert found > 0


def test_check_updown_path_shapes():
    m = v_model()
    area = frozenset({"u"})
    assert not check_updown_path(m, ("a", "u"), area)  # even length
    assert not check_updown_path(m, ("a",), area)
    assert not check_updown_path(m, ("v", "a", "v"), area)  # v not <= a
    assert not check_updown_path(m, ("a", "u", "u", "u", "v"), area)  # lax middle
    assert check_updown_path(m, ("u", "u", "v"), area)  # reflexive ends allowed
    assert not check_updown_path(m, ("a", "a", "a"), area)  # middle outside area


def test_check_updown_path_strict_interior():
    # 5-step zigzag needs strictly descending and ascending interior steps.
    m = build_model(
        ["w0", "m0", "x", "m1", "v"],
        [("w0", "m0"), ("x", "m0"), ("x", "m1"), ("v", "m1")],
    )
    area = frozenset({"m0", "m1", "x"})
    good = ("w0", "m0", "x", "m1", "v")
    assert check_updown_path(m, good, area)
    lax = ("w0", "m0", "m0", "m1", "v")  # interior step m0 > m0 not strict
    assert not check_updown_path(m, lax, area)


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------


def test_nonempty_chains_counts():
    assert len(nonempty_chains(chain2())) == 3
    assert len(nonempty_chains(v_model())) == 5
    antichain = build_model(["a", "b", "c"], [])
    assert set(nonempty_chains(antichain)) == {
        frozenset({w}) for w in ("a", "b", "c")
    }
    # linear n-chain has 2^n - 1 non-empty chains
    for n in range(1, 6):
        worlds = [f"w{i}" for i in range(n)]
        edges = [(worlds[i], worlds[i + 1]) for i in range(n - 1)]
        m = build_model(worlds, edges)
        assert len(nonempty_chains(m)) == 2**n - 1


def test_nonempty_chains_rejects_preorders():
    cluster = build_model(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError):
        nonempty_chains(cluster)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


MODEL_TEXT = """\
# the V model
worlds a u v
order a u
order v u
valuation p u
valuation q v
"""


def test_parse_model_example():
    m = parse_model(MODEL_TEXT)
    assert m.worlds == ("a", "u", "v")
    assert m.leq("a", "u") and m.leq("v", "u") and not m.leq("a", "v")
    assert m.atom_extension("p") == frozenset({"u"})


def test_serialize_is_canonical_and_round_trips():
    m = v_model()
    text = serialize_model(m)
    assert text == MODEL_TEXT.replace("# the V model\n", "")
    again = parse_model(text)
    assert serialize_model(again) == text
    assert again.order == m.order and again.valuation == m.valuation


def test_round_trip_random_models():
    rng = random.Random(3)
    for k in range(50):
        sample = random_poset_model if k % 2 else random_preorder_model
        m = sample(rng, max_worlds=6, atoms=("p", "q"))
        text = serialize_model(m)
        again = parse_model(text)
        assert again.worlds == m.worlds
        assert again.up_rows == m.up_rows and again.down_rows == m.down_rows
        assert again.valuation == m.valuation
        assert type(again) is type(m)
        assert serialize_model(again) == text


def test_directives_may_come_in_any_order():
    # worlds are gathered in a first pass, so forward references are fine
    m = parse_model("order a b\nvaluation p b\nworlds a b\n")
    assert m.leq("a", "b")


def test_parse_model_errors_carry_line_numbers():
    with pytest.raises(ModelFormatError) as err:
        parse_model("worlds a\nfrobnicate a\n")
    assert err.value.line == 2
    with pytest.raises(ModelFormatError) as err:
        parse_model("worlds a\norder a z\n")
    assert err.value.line == 2
    with pytest.raises(ModelFormatError) as err:
        parse_model("worlds a 9bad\n")
    assert err.value.line == 1
    with pytest.raises(ModelFormatError):
        parse_model("order a b\n")  # no worlds at all
    with pytest.raises(ModelFormatError) as err:
        parse_model("worlds a\nworlds a\n")
    assert err.value.line == 2
