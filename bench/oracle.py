"""Independent oracles for the benchmark's verdict checks.

Nothing here imports polyreach.  Every expected answer is re-derived from
the input files the benchmark wrote and the text the program printed, with
its own parsers, its own order closure and its own evaluator.

Formulas are tuples: ("atom", name), ("top",), ("bot",), ("not", f),
("and", f, g), ("box", f) and ("reach", f, g).
"""

from __future__ import annotations

import re
from collections import deque

TOP = ("top",)
BOT = ("bot",)


def atom(name):
    return ("atom", name)


def neg(f):
    return ("not", f)


def conj(f, g):
    return ("and", f, g)


def box(f):
    return ("box", f)


def reach(f, g):
    return ("reach", f, g)


def dia(f):
    return neg(box(neg(f)))


def disj(f, g):
    return neg(conj(neg(f), neg(g)))


def implies(f, g):
    return neg(conj(f, neg(g)))


def show(f) -> str:
    """Surface text with every binary connective parenthesised."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "top":
        return "T"
    if kind == "bot":
        return "F"
    if kind == "not":
        return "~" + show(f[1])
    if kind == "box":
        return "[]" + show(f[1])
    if kind == "and":
        return f"({show(f[1])} & {show(f[2])})"
    return f"gamma({show(f[1])}, {show(f[2])})"


_TOKEN = re.compile(r"\s*(gamma|\[\]|<>|[~&|(),]|[A-Za-z_][A-Za-z0-9_]*)")


def parse(text: str):
    """Parse the program's printed core syntax (plus | and <>)."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot tokenize {text!r} at {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    index = 0

    def peek():
        return tokens[index]

    def take(expected=None):
        nonlocal index
        tok = tokens[index]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r} in {text!r}")
        index += 1
        return tok

    def disjunction():
        f = conjunction()
        while peek() == "|":
            take()
            f = disj(f, conjunction())
        return f

    def conjunction():
        f = unary()
        while peek() == "&":
            take()
            f = conj(f, unary())
        return f

    def unary():
        tok = peek()
        if tok == "~":
            take()
            return neg(unary())
        if tok == "[]":
            take()
            return box(unary())
        if tok == "<>":
            take()
            return dia(unary())
        return primary()

    def primary():
        tok = take()
        if tok == "(":
            f = disjunction()
            take(")")
            return f
        if tok == "gamma":
            take("(")
            left = disjunction()
            take(",")
            right = disjunction()
            take(")")
            return reach(left, right)
        if tok == "T":
            return TOP
        if tok == "F":
            return BOT
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            return atom(tok)
        raise ValueError(f"unexpected token {tok!r} in {text!r}")

    f = disjunction()
    take("")
    return f


# ---------------------------------------------------------------------------
# Finite preorders
# ---------------------------------------------------------------------------


class Model:
    """A preorder read from the model text format, closed by its own BFS."""

    def __init__(self, worlds, edges, valuation):
        self.worlds = list(worlds)
        self.world_set = frozenset(self.worlds)
        succ = {w: [] for w in self.worlds}
        for a, b in edges:
            succ[a].append(b)
        self.up = {}
        for w in self.worlds:
            seen = {w}
            queue = [w]
            while queue:
                x = queue.pop()
                for y in succ[x]:
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            self.up[w] = seen
        self.down = {w: set() for w in self.worlds}
        for w, above in self.up.items():
            for v in above:
                self.down[v].add(w)
        self.val = {name: set(members) for name, members in valuation.items()}
        self._memo = {}

    @classmethod
    def from_text(cls, text: str) -> "Model":
        worlds, edges, valuation = [], [], {}
        for raw in text.splitlines():
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if parts[0] == "worlds":
                worlds.extend(parts[1:])
            elif parts[0] == "order":
                edges.append((parts[1], parts[2]))
            elif parts[0] == "valuation":
                valuation.setdefault(parts[1], set()).update(parts[2:])
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        return cls(worlds, edges, valuation)

    def leq(self, a: str, b: str) -> bool:
        return b in self.up[a]

    @property
    def is_poset(self) -> bool:
        return all(
            w == v or w not in self.up[v] for w in self.worlds for v in self.up[w]
        )

    def ext(self, f) -> frozenset[str]:
        hit = self._memo.get(f)
        if hit is not None:
            return hit
        kind = f[0]
        if kind == "atom":
            out = frozenset(self.val.get(f[1], ()))
        elif kind == "top":
            out = self.world_set
        elif kind == "bot":
            out = frozenset()
        elif kind == "not":
            out = self.world_set - self.ext(f[1])
        elif kind == "and":
            out = self.ext(f[1]) & self.ext(f[2])
        elif kind == "box":
            body = self.ext(f[1])
            out = frozenset(w for w in self.worlds if self.up[w] <= body)
        elif kind == "reach":
            out = updown_reach(self, self.ext(f[1]), self.ext(f[2]))
        else:
            raise ValueError(f"not a formula: {f!r}")
        self._memo[f] = out
        return out


def updown_reach(model: Model, area, goal) -> frozenset[str]:
    """Worlds with an up-down walk through area to goal.

    Backward breadth-first search from the goal: an area world u is a live
    upper when it sits over a goal world, or over an area world that sits
    under another live upper.  The extension is the down-set of the live
    uppers, since a walk starts with one step up.
    """
    live = {u for g in goal for u in model.up[g] if u in area}
    queue = deque(live)
    lowers: set[str] = set()
    while queue:
        u = queue.popleft()
        for x in model.down[u]:
            if x in area and x not in lowers:
                lowers.add(x)
                for u2 in model.up[x]:
                    if u2 in area and u2 not in live:
                        live.add(u2)
                        queue.append(u2)
    out: set[str] = set()
    for u in live:
        out |= model.down[u]
    return frozenset(out)


def valid_walk(leq, path, start, area, goal) -> bool:
    """An up-down walk from start: up, then down and up in turn, ending down
    on a goal world, with every middle world in area.  Steps may be equal.
    """
    k = len(path) - 1
    if k < 2 or k % 2 or path[0] != start or path[k] not in goal:
        return False
    if any(w not in area for w in path[1:k]):
        return False
    for i in range(k):
        low, high = (path[i], path[i + 1]) if i % 2 == 0 else (path[i + 1], path[i])
        if not leq(low, high):
            return False
    return True


def report_lines(stdout: str) -> list[tuple[str, str]]:
    out = []
    for line in stdout.splitlines():
        key, _, value = line.partition("\t")
        out.append((key, value))
    return out


def printed_model(lines, key: str = "model") -> Model:
    return Model.from_text("\n".join(v for k, v in lines if k == key))


def class_members(name: str) -> list[str]:
    """Source worlds of a class named by joining its members with '+'."""
    return name.split("+")


# ---------------------------------------------------------------------------
# Simplicial complexes in the program's text format
# ---------------------------------------------------------------------------


def faces(simplex) -> list[frozenset[str]]:
    members = sorted(simplex)
    return [
        frozenset(members[i] for i in range(len(members)) if mask >> i & 1)
        for mask in range(1, 1 << len(members))
    ]


class Complex:
    def __init__(self, text: str):
        self.vertices: dict[str, tuple[float, ...]] = {}
        self.maximal: list[frozenset[str]] = []
        valuation_lines = []
        for raw in text.splitlines():
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if parts[0] == "vertex":
                self.vertices[parts[1]] = tuple(float(c) for c in parts[2:])
            elif parts[0] == "simplex":
                self.maximal.append(frozenset(parts[1:]))
            elif parts[0] == "valuation":
                valuation_lines.append(parts[1:])
        self.cells: set[frozenset[str]] = set()
        proper: set[frozenset[str]] = set()
        for simplex in self.maximal:
            below = faces(simplex)
            self.cells.update(below)
            proper.update(f for f in below if f != simplex)
        self.maximal = [c for c in self.cells if c not in proper]
        by_name = {"".join(sorted(c)): c for c in self.cells}
        self.valuation: dict[str, set[frozenset[str]]] = {}
        for atom_name, *names in valuation_lines:
            self.valuation.setdefault(atom_name, set()).update(by_name[n] for n in names)

    def barycenter(self, cell) -> tuple[float, ...]:
        coords = [self.vertices[v] for v in cell]
        return tuple(sum(c[i] for c in coords) / len(coords) for i in range(len(coords[0])))

    def locate(self, point, eps: float = 1e-9) -> frozenset[str]:
        """Carrier cell of a point in a planar triangulation."""
        px, py = point
        for tri in self.maximal:
            a, b, c = (self.vertices[v] for v in sorted(tri))
            det = (b[1] - c[1]) * (a[0] - c[0]) + (c[0] - b[0]) * (a[1] - c[1])
            la = ((b[1] - c[1]) * (px - c[0]) + (c[0] - b[0]) * (py - c[1])) / det
            lb = ((c[1] - a[1]) * (px - c[0]) + (a[0] - c[0]) * (py - c[1])) / det
            lc = 1.0 - la - lb
            weights = dict(zip(sorted(tri), (la, lb, lc)))
            if min(weights.values()) >= -eps:
                return frozenset(v for v, w in weights.items() if w > eps)
        raise ValueError(f"point {point} is outside the complex")


def cell_label(cell) -> str:
    return "+".join(sorted(cell))


def maze_truth(cx: Complex) -> dict[frozenset[str], bool]:
    """Truth of red & gamma(red | corridor | white, green) at every cell.

    Union-find joins every safe cell with its safe faces; comparability
    inside the safe area is face inclusion, so the unions are exactly the
    comparability components.  A red cell satisfies the query when its
    component holds a cell with a green face.
    """
    area = set()
    for name in ("red", "corridor", "white"):
        area |= cx.valuation.get(name, set())
    green = cx.valuation.get("green", set())
    parent = {c: c for c in area}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for cell in area:
        for face in faces(cell):
            if face in area:
                ra, rb = find(cell), find(face)
                if ra != rb:
                    parent[ra] = rb
    good = {find(c) for c in area if any(f in green for f in faces(c))}
    red = cx.valuation.get("red", set())
    return {c: c in red and find(c) in good for c in cx.cells}
