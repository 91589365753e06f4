"""Simplicial complexes, point location, realization, and mazes."""

import random

import pytest

from polyreach.formulas import Atom, Box, Reach, parse_formula
from polyreach.geometry import (
    ComplexFormatError,
    GeometryError,
    PointLocationError,
    barycenter,
    cell_label,
    cell_of,
    evaluate_polyhedral,
    face_poset,
    geometric_problems,
    make_complex,
    make_polyhedral_model,
    maze_from_labels,
    maze_generate,
    parse_complex,
    path_witness_poly,
    realize,
    serialize_complex,
    structural_problems,
)
from polyreach.kripke import evaluate, serialize_model
from polyreach.soundness import random_poset_model
from polyreach.transforms import nerve

TRIANGLE = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0)}
SQUARE = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0), "d": (1.0, 1.0)}


def triangle():
    return make_complex(TRIANGLE, [["a", "b", "c"]])


def two_triangles():
    return make_complex(SQUARE, [["a", "b", "c"], ["b", "c", "d"]])


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_auto_completion_adds_all_faces():
    cx = triangle()
    assert len(cx.simplices) == 7
    assert frozenset({"a", "b"}) in cx.simplices
    assert frozenset({"a"}) in cx.simplices


def test_missing_faces_detected_without_completion():
    cx = make_complex(
        TRIANGLE,
        [["a", "b", "c"], ["a"], ["b"], ["c"], ["a", "b"]],
        auto_complete=False,
        validate=False,
    )
    problems = structural_problems(cx)
    assert "missing face a+c of a+b+c" in problems
    assert "missing face b+c of a+b+c" in problems
    with pytest.raises(GeometryError):
        make_complex(
            TRIANGLE,
            [["a", "b", "c"], ["a"], ["b"], ["c"], ["a", "b"]],
            auto_complete=False,
        )


def test_degenerate_simplex_rejected():
    flat = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (2.0, 0.0)}
    with pytest.raises(GeometryError):
        make_complex(flat, [["a", "b", "c"]])


def test_construction_errors():
    with pytest.raises(GeometryError):
        make_complex(TRIANGLE, [["a", "z"]])
    with pytest.raises(GeometryError):
        make_complex(TRIANGLE, [[]])
    with pytest.raises(GeometryError):
        make_complex({}, [])
    with pytest.raises(GeometryError):
        make_complex({"a": (0, 0), "b": (0, 0, 1)}, [["a", "b"]])
    with pytest.raises(GeometryError):
        make_complex({"9x": (0, 0)}, [["9x"]])


def test_valuation_validation():
    cx = triangle()
    with pytest.raises(GeometryError):
        make_polyhedral_model(cx, {"p": [["a", "z"]]})
    with pytest.raises(GeometryError):
        make_polyhedral_model(cx, {"gamma": [["a"]]})
    with pytest.raises(GeometryError):
        make_polyhedral_model(cx, {"__t": [["a"]]})


# ---------------------------------------------------------------------------
# Face poset and point location
# ---------------------------------------------------------------------------


def test_face_poset_of_triangle_frozen():
    poset = face_poset(triangle())
    assert poset.worlds == ("a", "a+b", "a+b+c", "a+c", "b", "b+c", "c")
    assert poset.leq("a", "a+b") and poset.leq("a+b", "a+b+c")
    assert not poset.leq("a+b", "b+c")


def test_face_poset_of_two_triangles_size():
    assert len(face_poset(two_triangles()).worlds) == 11


def test_cell_of_locates_each_kind():
    cx = triangle()
    assert cell_label(cell_of(cx, (0.2, 0.2))) == "a+b+c"
    assert cell_label(cell_of(cx, (0.5, 0.0))) == "a+b"
    assert cell_label(cell_of(cx, (0.0, 0.0))) == "a"
    assert cell_label(cell_of(cx, (0.5, 0.5))) == "b+c"


def test_cell_of_rejects_outside_points():
    cx = triangle()
    with pytest.raises(PointLocationError):
        cell_of(cx, (0.6, 0.6))
    with pytest.raises(PointLocationError):
        cell_of(cx, (-0.1, 0.2))


def test_cell_of_flags_ambiguity_between_overlapping_cells():
    # Two coincident triangles on disjoint vertex names form an invalid
    # complex; point location must refuse to pick one of them.
    doubled = make_complex(
        {**TRIANGLE, "x": (0.0, 0.0), "y": (1.0, 0.0), "z": (0.0, 1.0)},
        [["a", "b", "c"], ["x", "y", "z"]],
        validate=False,
    )
    with pytest.raises(PointLocationError) as err:
        cell_of(doubled, (0.2, 0.2))
    assert "ambiguous" in str(err.value)


def test_barycenters_locate_to_their_own_cell():
    cx = two_triangles()
    for simplex in cx.simplices:
        assert cell_of(cx, barycenter(cx, simplex)) == simplex


def test_cell_of_partitions_random_interior_points():
    cx = two_triangles()
    rng = random.Random(17)
    for _ in range(200):
        point = (rng.random(), rng.random())
        cell = cell_of(cx, point)  # never raises inside the unit square
        assert cell in cx.simplices


def test_scale_matches_the_numpy_extent():
    np = pytest.importorskip("numpy")
    rng = random.Random(5)
    for _ in range(50):
        dim = rng.randint(1, 3)
        magnitude = 10.0 ** rng.randint(-3, 6)
        vertices = {
            f"v{i}": tuple(rng.uniform(-magnitude, magnitude) for _ in range(dim))
            for i in range(rng.randint(1, 6))
        }
        cx = make_complex(vertices, [[v] for v in vertices])
        coords = np.array(list(vertices.values()), dtype=float)
        assert cx.scale == max(1.0, float(np.max(coords) - np.min(coords)))


def test_unknown_vertices_are_named_in_sorted_order():
    with pytest.raises(GeometryError) as exc:
        make_complex(TRIANGLE, [["z", "a", "y"]])
    assert str(exc.value) == "simplex mentions unknown vertices: ['y', 'z']"


def test_tolerance_scales_with_coordinates():
    big = make_complex(
        {k: (x * 1e6, y * 1e6) for k, (x, y) in TRIANGLE.items()},
        [["a", "b", "c"]],
    )
    assert cell_label(cell_of(big, (2e5, 2e5))) == "a+b+c"
    assert cell_label(cell_of(big, (5e5, 0.0))) == "a+b"


# ---------------------------------------------------------------------------
# Polyhedral evaluation
# ---------------------------------------------------------------------------


def lshape_model():
    cx = two_triangles()
    return make_polyhedral_model(
        cx,
        {
            "p": [["a", "b", "c"], ["b", "c", "d"], ["b", "c"]],
            "q": [["d"]],
        },
    )


def test_polyhedral_gamma_crosses_the_shared_edge():
    pm = lshape_model()
    g = parse_formula("gamma(p, q)")
    assert evaluate_polyhedral(pm, g, (0.25, 0.25))
    assert evaluate_polyhedral(pm, g, (0.0, 0.0))
    assert evaluate_polyhedral(pm, parse_formula("~q"), (0.25, 0.25))


def test_polyhedral_box_needs_the_whole_star():
    # p holds on both triangles and the shared edge but not on the outer
    # boundary, so box p holds only where every coface is a p-cell.
    pm = lshape_model()
    assert evaluate_polyhedral(pm, Box(Atom("p")), (0.25, 0.25))
    assert evaluate_polyhedral(pm, Box(Atom("p")), (0.5, 0.5))
    assert not evaluate_polyhedral(pm, Box(Atom("p")), (0.5, 0.0))


def test_extension_cache_is_consistent():
    pm = lshape_model()
    g = parse_formula("gamma(p, q)")
    first = pm.extension(g)
    assert pm.extension(g) == first
    assert first == evaluate(pm.companion(), g)


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------


def test_realize_matches_nerve_on_random_posets():
    rng = random.Random(29)
    for _ in range(20):
        m = random_poset_model(rng, max_worlds=5, atoms=("p", "q"))
        realized = realize(m)
        assert serialize_model(realized.companion()) == serialize_model(
            nerve(m).model
        )


def test_realize_vertices_are_standard_basis():
    from polyreach.kripke import build_model

    m = build_model(["x", "y"], [("x", "y")], {"p": {"y"}})
    realized = realize(m)
    assert realized.complex.vertices["x"] == (1.0, 0.0)
    assert realized.complex.vertices["y"] == (0.0, 1.0)
    assert frozenset({"x", "y"}) in realized.complex.simplices


def test_realize_rejects_preorders():
    from polyreach.kripke import build_model

    cluster = build_model(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(GeometryError):
        realize(cluster)


# ---------------------------------------------------------------------------
# Polyline witnesses
# ---------------------------------------------------------------------------


def test_path_witness_descends_through_the_shared_edge():
    pm = lshape_model()
    points = path_witness_poly(
        pm, (0.25, 0.25), (0.9, 0.9), [["a", "b", "c"], ["b", "c"], ["b", "c", "d"]]
    )
    assert points[0] == (0.25, 0.25)
    assert points[-1] == (0.9, 0.9)
    assert points[2] == (0.5, 0.5)  # barycenter of the shared edge
    # every via point lies in the polyhedron
    for point in points:
        cell_of(pm.complex, point)


def test_path_witness_degenerate_loop():
    pm = lshape_model()
    points = path_witness_poly(pm, (0.2, 0.2), (0.21, 0.2), [["a", "b", "c"]])
    assert len(points) == 3


def test_path_witness_rejects_non_paths():
    pm = lshape_model()
    with pytest.raises(GeometryError):
        # the two maximal triangles are incomparable
        path_witness_poly(pm, (0.25, 0.25), (0.9, 0.9), [["b", "c", "d"]])
    with pytest.raises(GeometryError):
        path_witness_poly(pm, (0.25, 0.25), (0.9, 0.9), [["a", "z"]])
    with pytest.raises(PointLocationError):
        path_witness_poly(pm, (5.0, 5.0), (0.9, 0.9), [["b", "c"]])


# ---------------------------------------------------------------------------
# Mazes
# ---------------------------------------------------------------------------


def test_one_by_one_white_maze():
    maze = maze_from_labels(1, 1, {(0, 0): "white"})
    model = maze.companion()
    ext = evaluate(model, Atom("white"))
    triangles = {w for w in ext if w.count("+") == 2}
    assert triangles == {"v0_0+v0_1+v1_1", "v0_0+v1_0+v1_1"}
    # 4 vertices, 4 boundary edges plus the diagonal, 2 triangles
    assert len(model.worlds) == 11


def test_maze_closure_labeling():
    # every face of a labeled triangle carries that triangle's label too,
    # so region labels are closed and reachability can cross boundaries
    maze = maze_from_labels(2, 1, {(0, 0): "red", (1, 0): "green"})
    shared_edge = "v1_0+v1_1"
    red = evaluate(maze.companion(), Atom("red"))
    green = evaluate(maze.companion(), Atom("green"))
    assert shared_edge in red and shared_edge in green


def test_maze_gamma_frozen():
    maze = maze_from_labels(2, 1, {(0, 0): "red", (1, 0): "green"})
    query = parse_formula("red & gamma(red | corridor | white, green)")
    ext = evaluate(maze.companion(), query)
    # exactly the closure of the red square: 4 vertices, 6 edges, 2 triangles
    # minus the cells not labeled red; derived by listing incident cells.
    assert ext == frozenset(
        {
            "v0_0",
            "v0_1",
            "v1_0",
            "v1_1",
            "v0_0+v0_1",
            "v0_0+v1_0",
            "v0_0+v1_1",
            "v0_1+v1_1",
            "v1_0+v1_1",
            "v0_0+v0_1+v1_1",
            "v0_0+v1_0+v1_1",
        }
    )


def test_gray_wall_blocks_reachability():
    walled = maze_from_labels(
        3, 1, {(0, 0): "red", (1, 0): "gray", (2, 0): "green"}
    )
    query = parse_formula("red & gamma(red | corridor | white, green)")
    assert evaluate(walled.companion(), query) == frozenset()
    open_maze = maze_from_labels(
        3, 1, {(0, 0): "red", (1, 0): "corridor", (2, 0): "green"}
    )
    sat = evaluate(open_maze.companion(), query)
    assert "v0_0+v0_1+v1_1" in sat and "v0_0+v1_0+v1_1" in sat


def test_maze_generation_is_deterministic_and_respects_densities():
    one = maze_generate(4, 3, seed=9)
    two = maze_generate(4, 3, seed=9)
    assert serialize_complex(one) == serialize_complex(two)
    all_white = maze_generate(3, 3, seed=5, densities={"white": 1.0})
    assert set(all_white.valuation) == {"white"}


def test_maze_label_validation():
    with pytest.raises(GeometryError):
        maze_from_labels(1, 1, {(0, 0): "blue"})
    with pytest.raises(GeometryError):
        maze_from_labels(2, 1, {(0, 0): "red"})
    with pytest.raises(GeometryError):
        maze_from_labels(1, 1, {(3, 0): "red", (0, 0): "red"})
    with pytest.raises(GeometryError):
        maze_from_labels(0, 1, {})
    with pytest.raises(GeometryError):
        maze_generate(2, 2, seed=1, densities={"blue": 1.0})


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def test_complex_round_trip():
    pm = lshape_model()
    text = serialize_complex(pm)
    again = parse_complex(text)
    assert serialize_complex(again) == text
    assert again.complex.simplices == pm.complex.simplices
    assert again.valuation == pm.valuation


def test_parse_complex_completes_faces():
    pm = parse_complex(
        "vertex a 0 0\nvertex b 1 0\nvertex c 0 1\nsimplex a b c\nvaluation p ab\n"
    )
    assert len(pm.complex.simplices) == 7
    assert pm.valuation["p"] == frozenset({frozenset({"a", "b"})})


def test_parse_complex_errors():
    with pytest.raises(ComplexFormatError) as err:
        parse_complex("vertex a 0 0\nfrob a\n")
    assert err.value.line == 2
    with pytest.raises(ComplexFormatError):
        parse_complex("vertex a 0 zz\nsimplex a\n")
    with pytest.raises(ComplexFormatError):
        parse_complex("vertex a 0 0\nvertex a 1 1\nsimplex a\n")
    with pytest.raises(ComplexFormatError):
        parse_complex("vertex a 0 0\nsimplex a\nvaluation p zz\n")
    with pytest.raises(ComplexFormatError):
        parse_complex("simplex a\n")


def test_ambiguous_file_names_rejected():
    # a vertex literally named "ab" collides with the edge {a, b}
    text = (
        "vertex a 0 0\nvertex b 1 0\nvertex ab 0 1\n"
        "simplex a b\nsimplex ab\n"
    )
    with pytest.raises(ComplexFormatError):
        parse_complex(text)


# ---------------------------------------------------------------------------
# Geometric audit
# ---------------------------------------------------------------------------


def test_geometric_audit_passes_clean_complexes():
    assert geometric_problems(two_triangles()) == []
    assert geometric_problems(triangle()) == []


def test_geometric_audit_flags_overlaps():
    overlap = make_complex(
        {
            "a": (0.0, 0.0),
            "b": (2.0, 0.0),
            "c": (0.0, 2.0),
            "d": (0.5, 0.5),
            "e": (3.0, 0.5),
            "f": (0.5, 3.0),
        },
        [["a", "b", "c"], ["d", "e", "f"]],
    )
    problems = geometric_problems(overlap)
    assert any("cross" in p for p in problems)
    assert any("interior" in p for p in problems)


def test_geometric_audit_flags_vertex_on_foreign_edge():
    cx = make_complex(
        {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0), "m": (0.5, 0.0)},
        [["a", "b", "c"], ["m"]],
    )
    problems = geometric_problems(cx)
    assert any("vertex m" in p for p in problems)


def test_geometric_audit_dimension_limit():
    quad = make_complex({"a": (0, 0, 0, 0), "b": (1, 0, 0, 0)}, [["a", "b"]])
    with pytest.raises(GeometryError):
        geometric_problems(quad)
