"""Simplicial complexes, their face posets, and point-level evaluation.

A complex stores vertices with coordinates and a face-closed set of
simplices, each affinely independent.  The face poset, ordered by vertex-set
inclusion, is the Kripke companion of the polyhedron: a formula holds at a
point exactly when it holds at the unique cell whose relative interior
contains the point.  Numeric work runs at an absolute tolerance scaled to
the bounding box; membership questions that tolerance cannot settle raise
rather than guess.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import PolyreachError
from .formulas import Formula, KEYWORDS, RESERVED_ATOM
from .kripke import (
    PosetModel,
    build_model,
    check_updown_path,
    evaluate,
    nonempty_chains,
)

# numpy is imported inside the functions that compute with it, so that
# commands which build no complex never load it.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GeometryError",
    "PointLocationError",
    "ComplexFormatError",
    "TOLERANCE",
    "SimplicialComplex",
    "PolyhedralModel",
    "make_complex",
    "make_polyhedral_model",
    "cell_label",
    "face_poset",
    "companion",
    "barycenter",
    "cell_of",
    "evaluate_polyhedral",
    "realize",
    "path_witness_poly",
    "MAZE_CLASSES",
    "maze_from_labels",
    "maze_generate",
    "parse_complex",
    "serialize_complex",
    "structural_problems",
    "geometric_problems",
]

TOLERANCE = 1e-9

_VERTEX_RE = re.compile(r"[A-Za-z][A-Za-z0-9_+]*\Z")


class GeometryError(PolyreachError):
    pass


class PointLocationError(GeometryError):
    """A point fell outside the polyhedron or between cells at tolerance."""


class ComplexFormatError(GeometryError):
    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    vertices: Mapping[str, tuple[float, ...]]
    simplices: frozenset[frozenset[str]]

    @property
    def ambient_dim(self) -> int:
        return len(next(iter(self.vertices.values())))

    @property
    def dimension(self) -> int:
        return max(len(s) for s in self.simplices) - 1

    @cached_property
    def scale(self) -> float:
        coords = [c for point in self.vertices.values() for c in point]
        extent = max(coords) - min(coords) if coords else 0.0
        return max(1.0, extent)

    @property
    def tolerance(self) -> float:
        return TOLERANCE * self.scale

    def sorted_simplices(self) -> list[frozenset[str]]:
        return sorted(self.simplices, key=lambda s: (len(s), tuple(sorted(s))))


def cell_label(simplex: Iterable[str]) -> str:
    """World id of a cell: sorted vertex ids joined by '+'."""
    return "+".join(sorted(simplex))


def make_complex(
    vertices: Mapping[str, Sequence[float]],
    simplices: Iterable[Iterable[str]],
    *,
    auto_complete: bool = True,
    validate: bool = True,
) -> SimplicialComplex:
    verts: dict[str, tuple[float, ...]] = {}
    dim: int | None = None
    for name in sorted(vertices):
        if not _VERTEX_RE.match(name):
            raise GeometryError(f"invalid vertex id: {name!r}")
        coords = tuple(float(c) for c in vertices[name])
        if not all(map(math.isfinite, coords)):
            raise GeometryError(f"vertex {name!r} has a non-finite coordinate")
        if dim is None:
            dim = len(coords)
        elif len(coords) != dim:
            raise GeometryError(f"vertex {name!r} has mismatched dimension")
        verts[name] = coords
    if not verts:
        raise GeometryError("a complex needs at least one vertex")

    cells: set[frozenset[str]] = set()
    for simplex in simplices:
        fs = frozenset(simplex)
        if not fs:
            raise GeometryError("empty simplex")
        unknown = [v for v in fs if v not in verts]
        if unknown:
            raise GeometryError(f"simplex mentions unknown vertices: {sorted(unknown)}")
        cells.add(fs)
    if auto_complete:
        for fs in list(cells):
            cells.update(_faces(fs))
    if not cells:
        raise GeometryError("a complex needs at least one simplex")

    complex_ = SimplicialComplex(vertices=verts, simplices=frozenset(cells))
    if validate:
        problems = structural_problems(complex_)
        if problems:
            raise GeometryError("; ".join(problems))
    return complex_


def _faces(simplex: frozenset[str]) -> list[frozenset[str]]:
    """Every nonempty subset of a simplex, the simplex itself included."""
    members = sorted(simplex)
    return [
        frozenset(members[i] for i in range(len(members)) if mask >> i & 1)
        for mask in range(1, 1 << len(members))
    ]


def structural_problems(complex_: SimplicialComplex) -> list[str]:
    """Face closure and affine independence.

    Face closure also makes every nonempty intersection of two cells a cell,
    since it is a face of both; where closure fails, the defect is reported
    as a missing face.
    """
    import numpy as np

    problems: list[str] = []
    cells = complex_.simplices
    for simplex in sorted(cells, key=lambda s: (len(s), tuple(sorted(s)))):
        members = sorted(simplex)
        for face in _faces(simplex):
            if face not in cells:
                problems.append(
                    f"missing face {cell_label(face)} of {cell_label(simplex)}"
                )
        if len(simplex) > 1:
            points = np.array([complex_.vertices[v] for v in members], dtype=float)
            spanning = points[1:] - points[0]
            rank = np.linalg.matrix_rank(spanning, tol=complex_.tolerance)
            if rank != len(members) - 1:
                problems.append(f"degenerate simplex {cell_label(simplex)}")
    return problems


@dataclass(frozen=True, eq=False)
class PolyhedralModel:
    """A simplicial complex with an atom valuation over its cells."""

    complex: SimplicialComplex
    valuation: Mapping[str, frozenset[frozenset[str]]]
    _companion_cache: list = field(default_factory=list, repr=False)
    _extension_cache: dict = field(default_factory=dict, repr=False)

    def companion(self) -> PosetModel:
        if not self._companion_cache:
            self._companion_cache.append(companion(self))
        return self._companion_cache[0]

    def extension(self, formula: Formula) -> frozenset[str]:
        hit = self._extension_cache.get(formula)
        if hit is None:
            hit = evaluate(self.companion(), formula)
            self._extension_cache[formula] = hit
        return hit


def make_polyhedral_model(
    complex_: SimplicialComplex,
    valuation: Mapping[str, Iterable[Iterable[str]]],
) -> PolyhedralModel:
    val: dict[str, frozenset[frozenset[str]]] = {}
    for name in sorted(valuation):
        if name == RESERVED_ATOM:
            raise GeometryError(f"atom name {name!r} is reserved")
        if not re.match(r"[A-Za-z][A-Za-z0-9_]*\Z", name) or name in KEYWORDS:
            raise GeometryError(f"invalid atom name: {name!r}")
        cells = frozenset(frozenset(c) for c in valuation[name])
        missing = cells - complex_.simplices
        if missing:
            raise GeometryError(
                f"valuation for {name!r} names unknown cells: "
                f"{sorted(cell_label(c) for c in missing)}"
            )
        val[name] = cells
    return PolyhedralModel(complex=complex_, valuation=val)


def face_poset(complex_: SimplicialComplex) -> PosetModel:
    """Cells ordered by vertex-set inclusion."""
    return companion(PolyhedralModel(complex=complex_, valuation={}))


def companion(model: PolyhedralModel) -> PosetModel:
    """Face poset with the polyhedral valuation carried over."""
    labels = {s: cell_label(s) for s in model.complex.simplices}
    edges = [
        (labels[face], labels[cell])
        for cell in labels
        for face in _faces(cell)
        if face != cell and face in labels
    ]
    valuation = {
        name: {labels[c] for c in cells} for name, cells in model.valuation.items()
    }
    poset = build_model(labels.values(), edges, valuation)
    assert isinstance(poset, PosetModel)
    return poset


def barycentric_fit(
    complex_: SimplicialComplex, simplex: frozenset[str], point: Sequence[float]
) -> tuple[np.ndarray, float]:
    """Least-squares barycentric coordinates and the fit residual."""
    import numpy as np

    members = sorted(simplex)
    matrix = np.vstack(
        [
            np.array([complex_.vertices[v] for v in members], dtype=float).T,
            np.ones(len(members)),
        ]
    )
    target = np.append(np.asarray(point, dtype=float), 1.0)
    coeffs, _, _, _ = np.linalg.lstsq(matrix, target, rcond=None)
    residual = float(np.linalg.norm(matrix @ coeffs - target))
    return coeffs, residual


def cell_of(
    complex_: SimplicialComplex, point: Sequence[float]
) -> frozenset[str]:
    """The unique cell whose relative interior contains the point.

    Raises PointLocationError when the point lies outside the polyhedron or
    when tolerance cannot separate candidate cells.
    """
    tol = complex_.tolerance
    matches: list[frozenset[str]] = []
    for simplex in complex_.sorted_simplices():
        coeffs, residual = barycentric_fit(complex_, simplex, point)
        if residual <= tol and all(c > tol for c in coeffs):
            matches.append(simplex)
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise PointLocationError(f"point {tuple(point)} is outside the polyhedron")
    names = ", ".join(cell_label(m) for m in matches)
    raise PointLocationError(
        f"point {tuple(point)} is ambiguous at tolerance between: {names}"
    )


def barycenter(complex_: SimplicialComplex, simplex: Iterable[str]) -> tuple[float, ...]:
    import numpy as np

    members = sorted(simplex)
    coords = np.array([complex_.vertices[v] for v in members], dtype=float)
    return tuple(float(x) for x in coords.mean(axis=0))


def evaluate_polyhedral(
    model: PolyhedralModel, formula: Formula, point: Sequence[float]
) -> bool:
    """Truth at a point: truth at the cell carrying the point's interior."""
    cell = cell_of(model.complex, point)
    return cell_label(cell) in model.extension(formula)


def realize(model: PosetModel) -> PolyhedralModel:
    """Geometric realization: worlds become standard basis vertices and
    non-empty chains become simplices; a cell carries an atom exactly when
    the top of its chain does.
    """
    if not isinstance(model, PosetModel):
        raise GeometryError("realization needs a poset")
    worlds = list(model.worlds)
    index = {w: i for i, w in enumerate(worlds)}
    vertices = {
        w: tuple(1.0 if i == index[w] else 0.0 for i in range(len(worlds)))
        for w in worlds
    }
    chains = nonempty_chains(model)
    complex_ = make_complex(vertices, chains, auto_complete=False)
    valuation = {
        name: frozenset(chain for chain, top in chains.items() if top in members)
        for name, members in model.valuation.items()
    }
    return PolyhedralModel(complex=complex_, valuation=valuation)


def path_witness_poly(
    model: PolyhedralModel,
    start: Sequence[float],
    end: Sequence[float],
    middles: Sequence[Iterable[str]],
) -> list[tuple[float, ...]]:
    """Piecewise-linear witness for a cell-level up-down path.

    The cells of the two endpoints together with the given middle cells must
    form an up-down path in the face poset.  The polyline enters each upper
    cell through its interior, touching the barycenter of every middle cell,
    and stays inside the polyhedron throughout.
    """
    complex_ = model.complex
    cells = [frozenset(m) for m in middles]
    unknown = [c for c in cells if c not in complex_.simplices]
    if unknown:
        raise GeometryError(
            f"unknown cells: {sorted(cell_label(c) for c in unknown)}"
        )
    first = cell_of(complex_, start)
    last = cell_of(complex_, end)
    poset = face_poset(complex_)
    path = [cell_label(first)] + [cell_label(c) for c in cells] + [cell_label(last)]
    if not check_updown_path(poset, path, poset.worlds):
        raise GeometryError(f"not an up-down path: {' '.join(path)}")
    points = [tuple(float(x) for x in start)]
    for c in cells:
        points.append(barycenter(complex_, c))
    points.append(tuple(float(x) for x in end))
    return points


# ---------------------------------------------------------------------------
# Triangulated grid mazes.
# ---------------------------------------------------------------------------

MAZE_CLASSES = ("corridor", "gray", "green", "red", "white")


def maze_from_labels(
    width: int, height: int, labels: Mapping[tuple[int, int], str]
) -> PolyhedralModel:
    """Unit-square grid, each square split into two triangles.

    Every square carries exactly one class label; the two triangles of a
    square take that label, and every lower-dimensional cell takes the label
    of each labeled triangle it bounds, so that regions are closed.
    """
    if width < 1 or height < 1:
        raise GeometryError("maze needs positive dimensions")
    for (i, j), cls in labels.items():
        if not (0 <= i < width and 0 <= j < height):
            raise GeometryError(f"square {(i, j)} outside the grid")
        if cls not in MAZE_CLASSES:
            raise GeometryError(f"unknown class {cls!r} for square {(i, j)}")
    if len(labels) != width * height:
        raise GeometryError("every square needs a class label")

    def vid(i: int, j: int) -> str:
        return f"v{i}_{j}"

    vertices = {
        vid(i, j): (float(i), float(j))
        for i in range(width + 1)
        for j in range(height + 1)
    }
    triangles: dict[frozenset[str], str] = {}
    for i in range(width):
        for j in range(height):
            cls = labels[(i, j)]
            lower = frozenset({vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)})
            upper = frozenset({vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)})
            triangles[lower] = cls
            triangles[upper] = cls
    complex_ = make_complex(vertices, triangles.keys(), auto_complete=True)

    valuation: dict[str, set[frozenset[str]]] = {cls: set() for cls in MAZE_CLASSES}
    for triangle, cls in triangles.items():
        valuation[cls].update(_faces(triangle))
    valuation = {cls: cells for cls, cells in valuation.items() if cells}
    return make_polyhedral_model(complex_, valuation)


def maze_generate(
    width: int,
    height: int,
    seed: int,
    densities: Mapping[str, float] | None = None,
) -> PolyhedralModel:
    """Seeded random maze; identical arguments give identical output."""
    weights = dict(densities) if densities else {
        "white": 0.4, "gray": 0.3, "corridor": 0.1, "red": 0.1, "green": 0.1
    }
    unknown = set(weights) - set(MAZE_CLASSES)
    if unknown:
        raise GeometryError(f"unknown classes in densities: {sorted(unknown)}")
    bad = sorted(c for c, w in weights.items() if not (math.isfinite(w) and w >= 0))
    if bad:
        raise GeometryError(f"densities must be finite and non-negative: {bad}")
    classes = [cls for cls in MAZE_CLASSES if weights.get(cls, 0.0) > 0]
    if not classes:
        raise GeometryError("densities select no classes")
    rng = random.Random(seed)
    labels = {
        (i, j): rng.choices(classes, [weights[c] for c in classes])[0]
        for j in range(height)
        for i in range(width)
    }
    return maze_from_labels(width, height, labels)


# ---------------------------------------------------------------------------
# Text format
#
#   vertex v0 0.0 0.0      id followed by coordinates
#   simplex v0 v1 v2       declared simplex; faces are completed on load
#   valuation red v0v1v2   cell named by concatenating sorted vertex ids
# ---------------------------------------------------------------------------


def _file_names(simplices: Iterable[frozenset[str]]) -> dict[str, frozenset[str]]:
    names: dict[str, frozenset[str]] = {}
    for simplex in simplices:
        name = "".join(sorted(simplex))
        if name in names and names[name] != simplex:
            raise ComplexFormatError(
                f"cell name {name!r} is ambiguous between "
                f"{cell_label(names[name])} and {cell_label(simplex)}"
            )
        names[name] = simplex
    return names


def parse_complex(text: str, *, auto_complete: bool = True) -> PolyhedralModel:
    vertices: dict[str, tuple[float, ...]] = {}
    simplices: list[frozenset[str]] = []
    valuation_lines: list[tuple[int, str, list[str]]] = []

    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if parts[0] == "vertex":
            if len(parts) < 3:
                raise ComplexFormatError("vertex needs an id and coordinates", number)
            name = parts[1]
            if not _VERTEX_RE.match(name):
                raise ComplexFormatError(f"invalid vertex id: {name!r}", number)
            if name in vertices:
                raise ComplexFormatError(f"duplicate vertex id: {name!r}", number)
            try:
                vertices[name] = tuple(float(c) for c in parts[2:])
            except ValueError as exc:
                raise ComplexFormatError(f"bad coordinate: {exc}", number) from exc
        elif parts[0] == "simplex":
            if len(parts) < 2:
                raise ComplexFormatError("simplex needs at least one vertex", number)
            simplices.append(frozenset(parts[1:]))
        elif parts[0] == "valuation":
            if len(parts) < 2:
                raise ComplexFormatError("valuation needs an atom name", number)
            valuation_lines.append((number, parts[1], parts[2:]))
        else:
            raise ComplexFormatError(f"unknown directive: {parts[0]!r}", number)

    if not vertices:
        raise ComplexFormatError("no vertices declared")
    try:
        complex_ = make_complex(
            vertices, simplices, auto_complete=auto_complete, validate=auto_complete
        )
    except GeometryError as exc:
        raise ComplexFormatError(str(exc)) from exc

    names = _file_names(complex_.simplices)
    valuation: dict[str, set[frozenset[str]]] = {}
    for number, atom, cell_names in valuation_lines:
        for name in cell_names:
            cell = names.get(name)
            if cell is None:
                raise ComplexFormatError(f"unknown cell name: {name!r}", number)
            valuation.setdefault(atom, set()).add(cell)
        valuation.setdefault(atom, set())
    try:
        return make_polyhedral_model(complex_, valuation)
    except GeometryError as exc:
        raise ComplexFormatError(str(exc)) from exc


def serialize_complex(model: PolyhedralModel) -> str:
    """Canonical text: sorted vertices, maximal simplices, sorted valuation."""
    complex_ = model.complex
    _file_names(complex_.simplices)  # fail early on ambiguous names
    lines = []
    for name in sorted(complex_.vertices):
        coords = " ".join(repr(c) for c in complex_.vertices[name])
        lines.append(f"vertex {name} {coords}")
    proper_faces = {
        face for s in complex_.simplices for face in _faces(s) if face != s
    }
    for simplex in complex_.sorted_simplices():
        if simplex not in proper_faces:
            lines.append("simplex " + " ".join(sorted(simplex)))
    for atom in sorted(model.valuation):
        cells = sorted("".join(sorted(c)) for c in model.valuation[atom])
        lines.append(f"valuation {atom} " + " ".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Geometric audit: convex-position checks for ambient dimension <= 3.
# ---------------------------------------------------------------------------


def _in_hull(
    complex_: SimplicialComplex, simplex: frozenset[str], point: Sequence[float]
) -> bool:
    coeffs, residual = barycentric_fit(complex_, simplex, point)
    tol = complex_.tolerance
    return residual <= tol and all(c >= -tol for c in coeffs)


def geometric_problems(complex_: SimplicialComplex, *, samples: int = 3) -> list[str]:
    """Intersection audit: convex hulls of cells may only meet in shared faces.

    Checks vertex containment, interior sample points, and pairwise edge
    proximity.  Only supported in ambient dimension at most three.
    """
    import numpy as np

    if complex_.ambient_dim > 3:
        raise GeometryError("geometric audit supports ambient dimension <= 3")
    problems: list[str] = []
    cells = complex_.sorted_simplices()
    rng = random.Random(0)

    interior_points: dict[frozenset[str], list[np.ndarray]] = {}
    for simplex in cells:
        members = sorted(simplex)
        coords = np.array([complex_.vertices[v] for v in members], dtype=float)
        points = [coords.mean(axis=0)]
        for _ in range(samples if len(members) > 1 else 0):
            weights = np.array([rng.random() + 0.1 for _ in members])
            weights /= weights.sum()
            points.append(weights @ coords)
        interior_points[simplex] = points

    for a in cells:
        for b in cells:
            if a == b:
                continue
            for vertex in sorted(a):
                if vertex not in b and _in_hull(
                    complex_, b, complex_.vertices[vertex]
                ):
                    problems.append(
                        f"vertex {vertex} lies inside {cell_label(b)}"
                    )
            if not a < b:
                for point in interior_points[a]:
                    if _in_hull(complex_, b, point):
                        problems.append(
                            f"interior of {cell_label(a)} meets {cell_label(b)}"
                        )
                        break

    edges = [s for s in cells if len(s) == 2]
    for i, e1 in enumerate(edges):
        p1, p2 = (np.array(complex_.vertices[v], dtype=float) for v in sorted(e1))
        for e2 in edges[i + 1:]:
            if e1 & e2:
                continue
            q1, q2 = (np.array(complex_.vertices[v], dtype=float) for v in sorted(e2))
            if _segments_cross(p1, p2, q1, q2, complex_.tolerance):
                problems.append(
                    f"edges {cell_label(e1)} and {cell_label(e2)} cross"
                )
    return sorted(set(problems))


def _segments_cross(
    p1: np.ndarray, p2: np.ndarray, q1: np.ndarray, q2: np.ndarray, tol: float
) -> bool:
    import numpy as np

    d1 = p2 - p1
    d2 = q2 - q1
    matrix = np.array([d1 @ d1, -(d1 @ d2), -(d1 @ d2), d2 @ d2]).reshape(2, 2)
    rhs = np.array([(q1 - p1) @ d1, -((q1 - p1) @ d2)])
    try:
        s, t = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        return False
    if not (tol < s < 1 - tol and tol < t < 1 - tol):
        return False
    gap = float(np.linalg.norm((p1 + s * d1) - (q1 + t * d2)))
    return gap <= tol
