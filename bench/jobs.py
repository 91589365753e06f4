"""Seeded workloads: the jobs of one pass and the oracle check of each.

A job is one CLI invocation (``argv``) or one library call (``call``), and
``check(code, stdout)`` returns None when the exit code and the printed
verdict agree with the oracles in oracle.py, or else the reason they do
not.  Inputs are written into the pass directory before the pass starts,
so the program sees only files and argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle as o
from oracle import Complex, Model, report_lines

MAZE_QUERY = "red & gamma(red | corridor | white, green)"
REACH_LAWS = (
    "axiom_reach_box",
    "axiom_reach_absorb",
    "reach_implies_diamond",
    "rule_monotone",
    "rule_induction",
)

# Job counts per pass.  The maze ladder keeps one 16x16 maze per pass:
# its time varies most from seed to seed (the --polyline re-evaluation
# scales with the number of red cells that escape, 6 to 11 s), and the
# smaller rungs and the fixed-size grid jobs dilute that variance.
MAZE_LADDER = ((8, 3), (12, 2), (16, 1))
MAZE_GRID = 12
MAZE_POINTS = 20
BIG_SIZES = (300, 600, 1000)
# cut rebuilds the closure from every order pair, about n * pairs work:
# 7 s and a 7.7 MB report at 1,000 worlds, which would swamp the pass.
BIG_CUT_MAX = 600
# The small jobs outweigh the one bound-5 refutation (about 7 s of
# find_model), so that per-invocation costs show in desk's wall_s.
DESK_COUNTS = {
    "audit-poset": 70,
    "audit-preorder": 50,
    "check": 60,
    "sat": 40,
    "sat-unsat": 20,
    "pipeline": 30,
    "nerve": 30,
    "realize": 30,
    "sat-refute5": 1,
}


@dataclass
class Job:
    kind: str
    check: Callable[[int, str], str | None]
    argv: list[str] | None = None
    call: Callable[[], tuple[int, str]] | None = None


class Fresh:
    """Hands out values never handed out before in this run, so that no two
    jobs of a run are identical and no memo can serve a later job."""

    def __init__(self) -> None:
        self.used: set[object] = set()

    def number(self, rng: random.Random) -> int:
        while True:
            value = rng.randrange(1, 10**9)
            if value not in self.used:
                self.used.add(value)
                return value

    def atoms(self, rng: random.Random, count: int) -> list[str]:
        names = []
        while len(names) < count:
            name = f"{rng.choice('pqrsxyz')}{rng.randrange(10**6)}"
            if name not in self.used:
                self.used.add(name)
                names.append(name)
        return names


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------


def model_text(worlds, edges, valuation) -> str:
    lines = ["worlds " + " ".join(worlds)]
    lines += [f"order {a} {b}" for a, b in edges]
    lines += [f"valuation {p} " + " ".join(sorted(ws)) for p, ws in sorted(valuation.items())]
    return "\n".join(line.rstrip() for line in lines) + "\n"


def small_model(rng, max_worlds, atoms, *, poset, min_worlds=1) -> str:
    n = rng.randint(min_worlds, max_worlds)
    worlds = [f"w{i}" for i in range(n)]
    if poset:
        edges = [(worlds[i], worlds[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
    else:
        edges = [(a, b) for a in worlds for b in worlds if a != b and rng.random() < 0.3]
    valuation = {p: {w for w in worlds if rng.random() < 0.5} for p in atoms}
    return model_text(worlds, edges, valuation)


def big_model(rng, n, *, clusters) -> str:
    """Sparse random order: two edges from each world to later worlds at a
    distance of 1 to 40 (about 350k order pairs at 1,000 worlds).  Back
    edges over short distances make clusters.

    A fixed out-degree keeps a job's cost steadier from seed to seed than
    random degrees do.  The goal atom q sits on every 20th world from a
    seeded offset: witness_path visits uppers in name order and expands
    every one that has no q below it, so goals that happen to start high in
    the order cost 20 to 100 times more (see README.md).
    """
    worlds = [f"w{i}" for i in range(n)]
    edges = [(worlds[i], worlds[min(n - 1, i + rng.randint(1, 40))])
             for i in range(n - 1) for _ in range(2)]
    for _ in range(clusters):
        i = rng.randrange(1, n)
        edges.append((worlds[i], worlds[max(0, i - rng.randint(1, 4))]))
    offset = rng.randrange(20)
    valuation = {
        "p": {w for w in worlds if rng.random() < 0.6},
        "q": {worlds[i] for i in range(offset, n, 20)},
        "r": {w for w in worlds if rng.random() < 0.5},
    }
    return model_text(worlds, edges, valuation)


def random_formula(rng, atoms, depth, *, reach_ok=True):
    if depth <= 0:
        roll = rng.random()
        return o.atom(rng.choice(atoms)) if roll < 0.85 else (o.TOP if roll < 0.93 else o.BOT)
    kinds = ["atom", "not", "and", "box", "or"] + (["reach"] if reach_ok else [])
    kind = rng.choice(kinds)
    sub = lambda: random_formula(rng, atoms, depth - 1, reach_ok=reach_ok)  # noqa: E731
    if kind == "atom":
        return o.atom(rng.choice(atoms))
    if kind == "not":
        return o.neg(sub())
    if kind == "box":
        return o.box(sub())
    if kind == "or":
        return o.disj(sub(), sub())
    if kind == "and":
        return o.conj(sub(), sub())
    return o.reach(sub(), sub())


def negated_law(rng, atoms):
    """The negation of an instance of a law valid on every preorder."""
    a = random_formula(rng, atoms, 1, reach_ok=False)
    b = random_formula(rng, atoms, 1, reach_ok=False)
    g = o.reach(a, b)
    law = rng.choice((
        o.implies(g, o.dia(a)),
        o.implies(o.dia(o.conj(a, g)), g),
        o.implies(o.disj(b, o.conj(a, g)), o.box(o.implies(a, g))),
    ))
    return o.neg(law)


# ---------------------------------------------------------------------------
# Checks.  Each returns None when the verdict agrees with the oracle.
# ---------------------------------------------------------------------------


def _expect_code(code, want):
    return None if code == want else f"exit code {code}, expected {want}"


def check_check(text, formula, world):
    def check(code, out):
        model = Model.from_text(text)
        lines = report_lines(out)
        fields = dict(lines)
        ext = model.ext(formula)
        if world is None:
            if set(fields.get("extension", "").split()) != ext:
                return "extension differs from the oracle"
            witnessed, want = ext, 0
        else:
            truth = world in ext
            if fields.get("value") != ("true" if truth else "false"):
                return f"value at {world} differs from the oracle"
            witnessed, want = ({world} if truth else set()), (0 if truth else 1)
        if formula[0] == "reach":
            area, goal = model.ext(formula[1]), model.ext(formula[2])
            paths = {k[len("witness:"):]: v for k, v in lines if k.startswith("witness:")}
            if set(paths) != witnessed:
                return "witness lines do not cover the extension"
            for start, path in paths.items():
                if not o.valid_walk(model.leq, path.split(), start, area, goal):
                    return f"witness for {start} is not an up-down walk"
        return _expect_code(code, want)

    return check


def _class_map(source: Model, classes: Model):
    class_of = {}
    for name in classes.worlds:
        for w in o.class_members(name):
            if w in class_of or w not in source.world_set:
                return None
            class_of[w] = name
    return class_of if set(class_of) == source.world_set else None


def _preserved(source, classes, class_of, member) -> bool:
    src, dst = source.ext(member), classes.ext(member)
    return all((w in src) == (class_of[w] in dst) for w in source.worlds)


def check_filtrate(text):
    def check(code, out):
        source = Model.from_text(text)
        lines = report_lines(out)
        classes = o.printed_model(lines)
        class_of = _class_map(source, classes)
        if class_of is None:
            return "classes do not partition the source worlds"
        verdicts = [(k[len("preserve:"):], v) for k, v in lines if k.startswith("preserve:")]
        if not verdicts:
            return "no preservation lines"
        for member, verdict in verdicts:
            if verdict != ("pass" if _preserved(source, classes, class_of, o.parse(member)) else "fail"):
                return f"preservation verdict for {member} differs from the oracle"
        return _expect_code(code, 0 if all(v == "pass" for _, v in verdicts) else 1)

    return check


def check_pipeline(text):
    """Posets only: the pipeline must report all-pass with valid witnesses."""

    def check(code, out):
        source = Model.from_text(text)
        lines = report_lines(out)
        output = o.printed_model(lines)
        if not output.is_poset:
            return "pipeline output is not a poset"
        class_of = _class_map(source, output)
        if class_of is None:
            return "classes do not partition the source worlds"
        fields = dict(lines)
        if fields.get("summary") != "all-pass" or fields.get("advisory") != "false":
            return "poset pipeline did not report all-pass"
        members = [o.parse(k[len("preserve:"):]) for k, v in lines if k.startswith("preserve:")]
        for member in members:
            if not _preserved(source, output, class_of, member):
                return f"oracle finds {o.show(member)} not preserved"
        witnesses: dict = {}
        for key, path in lines:
            if key.startswith("gamma-witness:"):
                member_text, _, name = key[len("gamma-witness:"):].rpartition("@")
                witnesses.setdefault(o.parse(member_text), {})[name] = path.split()
        for member in members:
            if member[0] != "reach":
                continue
            found = witnesses.get(member, {})
            if set(found) != output.ext(member):
                return f"witnesses for {o.show(member)} do not cover its extension"
            area, goal = output.ext(member[1]), output.ext(member[2])
            for name, path in found.items():
                if not o.valid_walk(output.leq, path, name, area, goal):
                    return f"witness for {o.show(member)} at {name} is not an up-down walk"
        return _expect_code(code, 0)

    return check


def check_cut(text):
    def check(code, out):
        source = Model.from_text(text)
        lines = report_lines(out)
        printed = [v.split() for k, v in lines if k == "model"]
        pairs = {(p[1], p[2]) for p in printed if p[0] == "order"}
        strict = {(w, v) for w in source.worlds for v in source.up[w]
                  if w != v and not source.leq(v, w)}
        if pairs != strict:
            return "cut order differs from the strict part of the source order"
        worlds = [w for p in printed if p[0] == "worlds" for w in p[1:]]
        valuation = {p[1]: set(p[2:]) for p in printed if p[0] == "valuation"}
        if set(worlds) != source.world_set or valuation != source.val:
            return "cut changed the worlds or the valuation"
        return _expect_code(code, 0)

    return check


def _chains(source: Model) -> list[frozenset[str]]:
    worlds = source.worlds
    chains = []
    for mask in range(1, 1 << len(worlds)):
        chain = [worlds[i] for i in range(len(worlds)) if mask >> i & 1]
        if all(source.leq(a, b) or source.leq(b, a) for a in chain for b in chain):
            chains.append(frozenset(chain))
    return chains


def _top(source: Model, chain) -> str:
    return next(w for w in chain if all(source.leq(v, w) for v in chain))


def check_nerve(text):
    def check(code, out):
        source = Model.from_text(text)
        chains = {o.cell_label(c): c for c in _chains(source)}
        lines = report_lines(out)
        printed = [v.split() for k, v in lines if k == "model"]
        worlds = {w for p in printed if p[0] == "worlds" for w in p[1:]}
        if worlds != set(chains):
            return "nerve worlds differ from the chains of the source"
        pairs = {(p[1], p[2]) for p in printed if p[0] == "order"}
        if pairs != {(a, b) for a in chains for b in chains if chains[a] < chains[b]}:
            return "nerve order differs from strict chain inclusion"
        valuation = {p[1]: set(p[2:]) for p in printed if p[0] == "valuation"}
        for atom_name, members in source.val.items():
            want = {name for name, c in chains.items() if _top(source, c) in members}
            if valuation.get(atom_name, set()) != want:
                return f"nerve valuation of {atom_name} differs from the chain tops"
        return _expect_code(code, 0)

    return check


def check_realize(text):
    def check(code, out):
        source = Model.from_text(text)
        lines = report_lines(out)
        cx = Complex("\n".join(v for k, v in lines if k == "complex"))
        chains = _chains(source)
        maximal = {c for c in chains if not any(c < d for d in chains)}
        if set(cx.maximal) != maximal or set(cx.vertices) != source.world_set:
            return "realization simplices differ from the maximal chains"
        for atom_name, members in source.val.items():
            want = {c for c in chains if _top(source, c) in members}
            if cx.valuation.get(atom_name, set()) != want:
                return f"realization valuation of {atom_name} differs from the chain tops"
        return _expect_code(code, 0)

    return check


def check_sat(formula, bound, satisfiable):
    def check(code, out):
        lines = report_lines(out)
        fields = dict(lines)
        if not satisfiable:
            if fields.get("result") != f"UNSAT-UP-TO {bound}":
                return "a negated valid law was reported satisfiable"
            return _expect_code(code, 1)
        if fields.get("result") != "SAT":
            return "a satisfiable formula was not found"
        model = o.printed_model(lines)
        if not model.is_poset or len(model.worlds) > bound:
            return "witness model is not a poset within the bound"
        if fields.get("world") not in model.ext(formula):
            return "oracle finds the formula false at the witness world"
        return _expect_code(code, 0)

    return check


def check_audit(text):
    def check(code, out):
        model = Model.from_text(text)
        lines = report_lines(out)
        fields = dict(lines)
        if fields.get("poset") != ("true" if model.is_poset else "false"):
            return "audit misclassified the order"
        for law in REACH_LAWS:
            if fields.get(f"law:{law}") != "pass":
                return f"valid law {law} reported failing"
        grz = fields.get("law:grz")
        if model.is_poset and grz != "pass":
            return "Grz reported failing on a poset"
        violations = [v for k, v in lines if k == "violation:grz"]
        if (grz == "fail") != bool(violations):
            return "Grz verdict and violation lines disagree"
        for violation in violations:
            instance, _, world = violation.rpartition(" @ ")
            if world in model.ext(o.parse(instance)):
                return f"oracle finds the Grz instance true at {world}"
        return _expect_code(code, 0 if grz == "pass" else 1)

    return check


def check_maze(path: Path):
    def check(code, out):
        cx = Complex(path.read_text())
        truth = o.maze_truth(cx)
        expected = sorted(o.cell_label(c) for c in cx.cells if len(c) == 3 and truth[c])
        fields = dict(report_lines(out))
        if fields.get("cells", "").split() != expected or fields.get("count") != str(len(expected)):
            return "red cells that reach green differ from the oracle"
        if not expected:
            if fields.get("polyline") != "NONE":
                return "a polyline was printed although no red cell reaches green"
            return _expect_code(code, 1)
        by_point = {tuple(round(x, 9) for x in cx.barycenter(c)): c for c in cx.cells}
        try:
            cells = [by_point[tuple(round(float(x), 9) for x in p.split(","))]
                     for p in fields.get("polyline", "").split()]
        except (KeyError, ValueError):
            return "polyline point is not a cell barycenter"
        area = set()
        for name in ("red", "corridor", "white"):
            area |= cx.valuation.get(name, set())
        start = next(c for c in cx.cells if o.cell_label(c) == expected[0])
        if not o.valid_walk(lambda a, b: a <= b, cells, start, area, cx.valuation["green"]):
            return "polyline is not an up-down walk from the first red cell to green"
        return _expect_code(code, 0)

    return check


def check_points(path: Path, points):
    def check(code, out):
        cx = Complex(path.read_text())
        truth = o.maze_truth(cx)
        expected = "".join("1" if truth[cx.locate(p)] else "0" for p in points)
        if out != expected:
            return "point truth values differ from the oracle"
        return _expect_code(code, 0)

    return check


def check_structure(code, out):
    fields = dict(report_lines(out))
    if fields.get("kind") != "complex" or fields.get("structure") != "pass":
        return "a valid grid complex failed its structural audit"
    return _expect_code(code, 0)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def maze_points(rng, size, count):
    """Generic interior points, edge midpoints and grid vertices."""
    points = []
    for _ in range(count):
        i, j = rng.randrange(size), rng.randrange(size)
        roll = rng.random()
        if roll < 0.6:
            while True:
                u, v = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
                if abs(u - v) > 0.05 and abs(u + v - 1) > 0.05:
                    break
            points.append((i + u, j + v))
        elif roll < 0.8:
            points.append(rng.choice(((i + 0.5, j), (i, j + 0.5), (i + 0.5, j + 0.5))))
        else:
            points.append((float(i), float(j)))
    return points


def point_query_call(path: Path, points):
    def call():
        from polyreach import formulas, geometry

        model = geometry.parse_complex(path.read_text())
        query = formulas.parse_formula(MAZE_QUERY)
        bits = "".join(
            "1" if geometry.evaluate_polyhedral(model, query, p) else "0" for p in points
        )
        return 0, bits

    return call


def grid_complex_text(rng, size) -> str:
    """A size x size grid of unit squares, two triangles each, with seeded
    maze classes, in the complex text format with every cell declared.

    `audit` reads a complex without completing faces, so it needs every
    face on a simplex line; `maze --out` writes only maximal simplices, which
    `audit` rejects (exit 2, unknown cell name).
    """
    weights = {"white": 0.4, "gray": 0.3, "corridor": 0.1, "red": 0.1, "green": 0.1}
    classes = sorted(weights)
    vid = "v{}_{}".format
    lines = [f"vertex {vid(i, j)} {float(i)!r} {float(j)!r}"
             for i in range(size + 1) for j in range(size + 1)]
    cells: set[frozenset[str]] = set()
    valuation: dict[str, set[frozenset[str]]] = {}
    for i in range(size):
        for j in range(size):
            cls = rng.choices(classes, [weights[c] for c in classes])[0]
            for tri in ({vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)},
                        {vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)}):
                for face in o.faces(tri):
                    cells.add(face)
                    valuation.setdefault(cls, set()).add(face)
    lines += ["simplex " + " ".join(sorted(c)) for c in sorted(cells, key=sorted)]
    lines += [f"valuation {cls} " + " ".join(sorted("".join(sorted(c)) for c in members))
              for cls, members in sorted(valuation.items())]
    return "\n".join(lines) + "\n"


# A warm-up pass (warmup=True) runs one job of every kind at a size that
# grows the heap about as far as a timed pass does, so that the first timed
# pass pays no more than later ones.


def maze_pass(rng, directory: Path, fresh: Fresh, warmup: bool) -> list[Job]:
    jobs = []
    for size, count in ((MAZE_GRID, 1),) if warmup else MAZE_LADDER:
        for _ in range(count):
            seed = fresh.number(rng)
            path = directory / f"maze{size}-{seed}.cx"
            argv = ["maze", str(size), str(size), "--seed", str(seed), "--polyline",
                    "--out", str(path)]
            jobs.append(Job(f"maze{size}", check_maze(path), argv=argv))
    size = MAZE_GRID
    path = directory / f"grid{size}-{fresh.number(rng)}.cx"
    path.write_text(grid_complex_text(rng, size))
    points = maze_points(rng, size, 4 if warmup else MAZE_POINTS)
    jobs.append(Job("points", check_points(path, points), call=point_query_call(path, points)))
    jobs.append(Job("audit-complex", check_structure, argv=["audit", str(path)]))
    return jobs


def _write(directory: Path, name: str, text: str) -> str:
    path = directory / name
    path.write_text(text)
    return str(path)


def big_pass(rng, directory: Path, fresh: Fresh, warmup: bool) -> list[Job]:
    """check, pipeline, filtrate and cut on large sparse orders.

    The formulas are fixed and only the orders vary with the seed: the cost
    of a witness search swings by a factor of ten with the density of the
    reachability area, which would drown the signal in seed noise.
    """
    p, q, r = o.atom("p"), o.atom("q"), o.atom("r")
    sigma = "".join(o.show(f) + "\n" for f in (o.reach(p, q), o.box(r)))
    jobs = []
    for n in (BIG_CUT_MAX,) if warmup else BIG_SIZES:
        tag = fresh.number(rng)
        poset = big_model(rng, n, clusters=0)
        preorder = big_model(rng, n, clusters=n // 40)
        poset_file = _write(directory, f"poset{n}-{tag}.model", poset)
        preorder_file = _write(directory, f"preorder{n}-{tag}.model", preorder)
        formulas_file = _write(directory, f"sigma{n}-{tag}.txt", sigma)
        for text, path, formula in ((poset, poset_file, o.reach(p, q)),
                                    (preorder, preorder_file, o.reach(r, q))):
            jobs.append(Job("check", check_check(text, formula, None),
                            argv=["check", path, o.show(formula)]))
        jobs.append(Job("pipeline", check_pipeline(poset),
                        argv=["pipeline", poset_file, "--formulas", formulas_file]))
        jobs.append(Job("filtrate", check_filtrate(preorder),
                        argv=["filtrate", preorder_file, "--formulas", formulas_file]))
        if n <= BIG_CUT_MAX:
            jobs.append(Job("cut", check_cut(preorder), argv=["cut", preorder_file]))
    return jobs


def desk_pass(rng, directory: Path, fresh: Fresh, warmup: bool) -> list[Job]:
    jobs = []
    counts = {kind: 1 for kind in DESK_COUNTS} if warmup else DESK_COUNTS
    for kind, count in counts.items():
        for _ in range(count):
            tag = fresh.number(rng)
            atoms = fresh.atoms(rng, 2)
            if kind.startswith("audit"):
                text = small_model(rng, 6, atoms, poset=kind == "audit-poset")
                path = _write(directory, f"audit-{tag}.model", text)
                jobs.append(Job(kind, check_audit(text),
                                argv=["audit", path, "--seed", str(rng.randrange(1000))]))
            elif kind == "check":
                text = small_model(rng, 6, atoms, poset=rng.random() < 0.6)
                path = _write(directory, f"check-{tag}.model", text)
                formula = random_formula(rng, atoms, rng.randint(1, 3))
                if rng.random() < 0.5:
                    formula = o.reach(random_formula(rng, atoms, 1), random_formula(rng, atoms, 1))
                argv = ["check", path, o.show(formula)]
                world = None
                if rng.random() < 0.3:
                    world = f"w{rng.randrange(len(Model.from_text(text).worlds))}"
                    argv += ["--world", world]
                jobs.append(Job(kind, check_check(text, formula, world), argv=argv))
            elif kind == "sat":
                bound = rng.randint(2, 4)
                model = Model.from_text(small_model(rng, bound, atoms, poset=True))
                formula = random_formula(rng, atoms, rng.randint(1, 3))
                if not model.ext(formula):
                    formula = o.neg(formula)
                jobs.append(Job(kind, check_sat(formula, bound, True),
                                argv=["sat", o.show(formula), "--max-worlds", str(bound)]))
            elif kind == "sat-unsat":
                bound = rng.randint(3, 4)
                formula = negated_law(rng, atoms)
                jobs.append(Job(kind, check_sat(formula, bound, False),
                                argv=["sat", o.show(formula), "--max-worlds", str(bound)]))
            elif kind == "sat-refute5":
                p, q = (o.atom(a) for a in atoms)
                formula = o.conj(o.reach(p, q), o.neg(o.dia(p)))
                bound = 4 if warmup else 5
                jobs.append(Job(kind, check_sat(formula, bound, False),
                                argv=["sat", o.show(formula), "--max-worlds", str(bound)]))
            else:
                text = small_model(rng, 6, atoms, poset=True, min_worlds=2)
                path = _write(directory, f"{kind}-{tag}.model", text)
                if kind == "pipeline":
                    sigma = [o.reach(random_formula(rng, atoms, 1), random_formula(rng, atoms, 1)),
                             random_formula(rng, atoms, 2)]
                    formulas_file = _write(directory, f"sigma-{tag}.txt",
                                           "".join(o.show(f) + "\n" for f in sigma))
                    jobs.append(Job(kind, check_pipeline(text),
                                    argv=["pipeline", path, "--formulas", formulas_file]))
                elif kind == "nerve":
                    jobs.append(Job(kind, check_nerve(text), argv=["nerve", path]))
                else:
                    jobs.append(Job(kind, check_realize(text), argv=["realize", path]))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"maze": maze_pass, "big-posets": big_pass, "desk": desk_pass}
