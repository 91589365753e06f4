"""Acceptance gate: one test per advertised guarantee of the package.

Every test here re-derives its expected answers through an independent
route (brute-force enumeration, handwritten graph search, or a frozen
construction) and then checks the package against them at the stated
sample sizes and time budgets.  Each test prints a single summary line.
"""

import itertools
import random
import time

from oracles import reach_relation, updown_bfs
from polyreach.formulas import (
    Atom,
    Reach,
    TOP,
    adequate_closure,
    dia,
    formula_key,
    parse_formula,
)
from polyreach.geometry import (
    barycenter,
    cell_label,
    evaluate_polyhedral,
    maze_from_labels,
    realize,
)
from polyreach.kripke import (
    PosetModel,
    build_model,
    check_updown_path,
    evaluate,
    serialize_model,
)
from polyreach.soundness import (
    all_posets,
    axiom_suite,
    find_model,
    random_formula,
    random_poset_model,
    random_preorder_model,
)
from polyreach.transforms import (
    chi_lemma_check,
    cut_filtration_pipeline,
    filtrate,
    is_updown_morphism,
    nerve,
)


def report(line):
    print(line)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def tuple_paths_extension(model, area, goal, shapes):
    """Start worlds of literally enumerated up-down tuples."""
    starts = set()
    for path in shapes:
        if all(w in area for w in path[1:-1]) and path[-1] in goal:
            starts.add(path[0])
    return starts


def updown_shapes(model):
    """Every alternating tuple over the model up to the complete length."""
    worlds = list(model.worlds)
    shapes = []
    for length in range(3, 2 * len(worlds) + 2, 2):
        for path in itertools.product(worlds, repeat=length):
            ok = True
            for i in range(length - 1):
                if i % 2 == 0:
                    ok = model.leq(path[i], path[i + 1])
                else:
                    ok = model.leq(path[i + 1], path[i])
                if not ok:
                    break
            if ok:
                shapes.append(path)
    return shapes


def painted_extension(worlds, edges, area, goal):
    model = build_model(worlds, edges, {"za": area, "zb": goal})
    return evaluate(model, Reach(Atom("za"), Atom("zb")))


def relation_extension(model, area, goal):
    relation = reach_relation(model, area)
    return {w for w, v in relation if v in goal}


def bfs_extension(model, area, goal):
    return {w for w in model.worlds if updown_bfs(model, w, area) & goal}


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_path_relation_equivalence():
    started = time.perf_counter()
    cases = 0
    for n in range(1, 5):
        for skeleton in all_posets(n):
            worlds = list(skeleton.worlds)
            edges = [(a, b) for a, b in skeleton.order if a != b]
            shapes = updown_shapes(skeleton) if n <= 3 else None
            subsets = [
                frozenset(w for i, w in enumerate(worlds) if mask >> i & 1)
                for mask in range(1 << n)
            ]
            for area in subsets:
                for goal in subsets:
                    cases += 1
                    painted = set(painted_extension(worlds, edges, area, goal))
                    fixpoint = relation_extension(skeleton, area, goal)
                    walked = bfs_extension(skeleton, area, goal)
                    assert painted == fixpoint == walked, (worlds, edges, area, goal)
                    if shapes is not None:
                        literal = tuple_paths_extension(
                            skeleton, area, goal, shapes
                        )
                        assert painted == literal, (worlds, edges, area, goal)
    rng = random.Random(1001)
    for _ in range(500):
        model = random_preorder_model(rng, max_worlds=7, atoms=("p",))
        worlds = list(model.worlds)
        area = frozenset(w for w in worlds if rng.random() < 0.5)
        goal = frozenset(w for w in worlds if rng.random() < 0.5)
        edges = [(a, b) for a, b in model.order if a != b]
        cases += 1
        painted = set(painted_extension(worlds, edges, area, goal))
        assert painted == relation_extension(model, area, goal)
        assert painted == bfs_extension(model, area, goal)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        f"criterion 01 path/relation equivalence: PASS "
        f"({cases} cases, {elapsed:.1f}s)"
    )


def test_criterion_02_reach_diamond_interdefinability():
    started = time.perf_counter()
    rng = random.Random(1002)
    for _ in range(1000):
        model = random_preorder_model(rng, max_worlds=6, atoms=("p", "q"))
        left = random_formula(rng, ("p", "q"), max_depth=3, allow_reach=True)
        right = random_formula(rng, ("p", "q"), max_depth=3, allow_reach=True)
        diamond = evaluate(model, dia(left))
        assert evaluate(model, Reach(left, TOP)) == diamond
        assert evaluate(model, Reach(left, right)) <= diamond
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(
        f"criterion 02 reach/diamond interdefinability: PASS "
        f"(1000 model-formula pairs, {elapsed:.1f}s)"
    )


def test_criterion_03_soundness_suite():
    started = time.perf_counter()
    rng = random.Random(1003)
    for _ in range(200):
        model = random_preorder_model(rng, max_worlds=5, atoms=("p", "q"))
        suite = axiom_suite(model, seed=rng.randrange(10**6))
        assert suite.law_ok("axiom_reach_box")
        assert suite.law_ok("axiom_reach_absorb")
        assert suite.law_ok("reach_implies_diamond")
        assert suite.law_ok("rule_monotone")
        assert suite.law_ok("rule_induction")
    for _ in range(200):
        model = random_poset_model(rng, max_worlds=5, atoms=("p", "q"))
        suite = axiom_suite(model, seed=rng.randrange(10**6))
        assert suite.all_ok
        assert suite.law_ok("grz")
    cluster = build_model(
        ["a", "b"], [("a", "b"), ("b", "a")], {"p": ["a"]}
    )
    suite = axiom_suite(cluster, seed=3)
    assert not suite.law_ok("grz")
    assert any(v.law == "grz" for v in suite.violations)
    assert suite.law_ok("axiom_reach_box")
    assert suite.law_ok("axiom_reach_absorb")
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        f"criterion 03 soundness suite: PASS "
        f"(200 preorders + 200 posets + cluster counterinstance, {elapsed:.1f}s)"
    )


def test_criterion_04_nerve_preservation():
    started = time.perf_counter()
    rng = random.Random(1004)
    for _ in range(200):
        model = random_poset_model(rng, max_worlds=5, atoms=("p", "q"))
        result = nerve(model)
        assert is_updown_morphism(result.tops, result.model, model)
        for _ in range(3):
            f = random_formula(rng, ("p", "q"), max_depth=3, allow_reach=True)
            source_ext = evaluate(model, f)
            pulled = {
                c for c in result.model.worlds if result.tops[c] in source_ext
            }
            assert evaluate(result.model, f) == pulled
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        f"criterion 04 nerve preservation: PASS "
        f"(200 posets x 3 formulas, {elapsed:.1f}s)"
    )


def test_criterion_05_realization():
    started = time.perf_counter()
    rng = random.Random(1005)
    for _ in range(50):
        model = random_poset_model(rng, max_worlds=5, atoms=("p", "q"))
        realized = realize(model)
        chains = nerve(model).model
        assert serialize_model(realized.companion()) == serialize_model(chains)
        for _ in range(3):
            f = random_formula(rng, ("p", "q"), max_depth=3, allow_reach=True)
            extension = evaluate(chains, f)
            for simplex in realized.complex.simplices:
                point = barycenter(realized.complex, simplex)
                truth = evaluate_polyhedral(realized, f, point)
                assert truth == (cell_label(simplex) in extension)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        f"criterion 05 realization: PASS "
        f"(50 posets, companion equality + barycenter truth, {elapsed:.1f}s)"
    )


def test_criterion_06_filtration_truth():
    started = time.perf_counter()
    rng = random.Random(1006)
    for index in range(200):
        if index % 2:
            model = random_preorder_model(rng, max_worlds=6, atoms=("p", "q"))
        else:
            model = random_poset_model(rng, max_worlds=6, atoms=("p", "q"))
        gammas = [
            random_formula(rng, ("p", "q"), max_depth=3, allow_reach=True)
            for _ in range(rng.randint(1, 2))
        ]
        sigma = adequate_closure(gammas)
        filtration = filtrate(model, sigma)
        for member in sigma.members:
            source_ext = evaluate(model, member)
            class_ext = evaluate(filtration.model, member)
            for w in model.worlds:
                assert (w in source_ext) == (filtration.class_map[w] in class_ext)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(
        f"criterion 06 filtration truth: PASS "
        f"(200 model-set pairs, every member at every world, {elapsed:.1f}s)"
    )


def test_criterion_07_chi_lemmas():
    started = time.perf_counter()
    rng = random.Random(1007)
    for _ in range(100):
        model = random_preorder_model(rng, max_worlds=5, atoms=("p", "q"))
        gamma = random_formula(rng, ("p", "q"), max_depth=2, allow_reach=True)
        sigma = adequate_closure([gamma])
        filtration = filtrate(model, sigma)
        start = rng.choice(sorted(filtration.model.worlds))
        member = rng.choice(sorted(sigma.members, key=formula_key))
        assert chi_lemma_check(model, sigma, start, member)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        f"criterion 07 class-formula lemmas: PASS (100 samples, {elapsed:.1f}s)"
    )


def test_criterion_08_cut_filtration_pipeline():
    started = time.perf_counter()
    rng = random.Random(1008)
    witnesses_checked = 0
    for _ in range(100):
        model = random_poset_model(rng, max_worlds=6, atoms=("p", "q"))
        gammas = [
            Reach(Atom("p"), Atom("q")),
            random_formula(rng, ("p", "q"), max_depth=3, allow_reach=True),
        ]
        result = cut_filtration_pipeline(model, gammas)
        assert isinstance(result.output, PosetModel)
        assert result.report.all_pass, (
            serialize_model(model),
            result.report.mismatches,
            result.report.witness_failures,
        )
        for member, name, path in result.report.witnesses:
            area = evaluate(result.output, member.left)
            goal = evaluate(result.output, member.right)
            assert path[0] == name
            assert path[-1] in goal
            assert check_updown_path(result.output, path, area)
            witnesses_checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(
        f"criterion 08 cut-filtration pipeline: PASS "
        f"(100 posets, {witnesses_checked} witness paths revalidated, "
        f"{elapsed:.1f}s)"
    )


def test_criterion_09_satisfiability_transfer():
    started = time.perf_counter()
    rng = random.Random(1009)
    triples = 0
    while triples < 100:
        model = random_poset_model(rng, max_worlds=5, atoms=("p", "q"))
        f = random_formula(rng, ("p", "q"), max_depth=3, allow_reach=True)
        extension = evaluate(model, f)
        if not extension:
            continue
        chains = nerve(model).model
        chain_ext = evaluate(chains, f)
        realized = realize(model)
        for w in sorted(extension):
            assert w in chain_ext
            point = barycenter(realized.complex, frozenset({w}))
            assert evaluate_polyhedral(realized, f, point)
            triples += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        f"criterion 09 satisfiability transfer: PASS "
        f"({triples} satisfiable triples, {elapsed:.1f}s)"
    )


def test_criterion_10_bounded_sat_sanity():
    started = time.perf_counter()
    sat_formula = parse_formula("gamma(p, q) & ~<>q")
    found = find_model(sat_formula, 3)
    assert found is not None
    model, world = found
    assert len(model.worlds) <= 3
    assert world in evaluate(model, sat_formula)
    for text in ("gamma(p, q) & ~<>p", "~(<>(p & gamma(p, q)) -> gamma(p, q))"):
        assert find_model(parse_formula(text), 5) is None
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(
        f"criterion 10 bounded satisfiability sanity: PASS "
        f"(1 witness + 2 refutations at bound 5, {elapsed:.1f}s)"
    )


def maze_labels(walled):
    rng = random.Random(1011)
    labels = {
        (i, j): rng.choice(("white", "gray"))
        for i in range(8)
        for j in range(8)
    }
    for i in range(1, 8):
        labels[(i, 0)] = "gray" if walled else "corridor"
    for j in range(1, 7):
        labels[(7, j)] = "gray" if walled else "corridor"
    labels[(0, 0)] = "red"
    labels[(7, 7)] = "green"
    labels[(6, 7)] = "gray"
    labels[(6, 6)] = "gray"
    return labels


def maze_oracle_reaches_green(maze, start_cell):
    """Graph search over safe cells of the complex, written from scratch."""
    area = set()
    for atom in ("red", "corridor", "white"):
        area |= maze.valuation.get(atom, frozenset())
    goal = maze.valuation.get("green", frozenset())
    frontier = {u for u in area if start_cell <= u}
    seen = set(frontier)
    while frontier:
        grown = {
            t
            for u in frontier
            for t in area
            if t not in seen and (t <= u or u <= t)
        }
        seen |= grown
        frontier = grown
    return any(v <= u for u in seen for v in goal)


def test_criterion_11_maze_demo():
    started = time.perf_counter()
    query = parse_formula("red & gamma(red | corridor | white, green)")

    maze = maze_from_labels(8, 8, maze_labels(walled=False))
    red_cells = maze.valuation["red"]
    assert len(red_cells) == 11
    expected = {
        cell_label(c) for c in red_cells if maze_oracle_reaches_green(maze, c)
    }
    assert maze.extension(query) == expected
    assert expected == {cell_label(c) for c in red_cells}

    walled = maze_from_labels(8, 8, maze_labels(walled=True))
    expected_walled = {
        cell_label(c)
        for c in walled.valuation["red"]
        if maze_oracle_reaches_green(walled, c)
    }
    assert walled.extension(query) == expected_walled
    assert expected_walled == set()

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(
        f"criterion 11 maze demo: PASS "
        f"(8x8 corridor maze, {len(red_cells)} red cells flip with the wall, "
        f"{elapsed:.1f}s)"
    )
