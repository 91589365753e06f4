"""Command-line harness.

Every command prints a line-oriented report of ``key<TAB>value`` pairs on
stdout; timing goes to stderr so identical inputs produce byte-identical
reports.  Exit codes: 0 all checks passed, 1 a check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time
from typing import Sequence

from .formulas import (
    Formula,
    ParseError,
    Reach,
    adequate_closure,
    format_formula,
    parse_formula,
)
from .geometry import (
    GeometryError,
    barycenter,
    cell_label,
    geometric_problems,
    maze_generate,
    parse_complex,
    realize,
    serialize_complex,
    structural_problems,
)
from .kripke import (
    ModelError,
    PosetModel,
    check_updown_path,
    evaluate,
    parse_model,
    serialize_model,
    witness_path,
)
from .soundness import LAW_NAMES, axiom_suite, find_model
from .transforms import cut, cut_filtration_pipeline, filtrate, nerve

DEFAULT_MAZE_QUERY = "red & gamma(red | corridor | white, green)"


class InputError(Exception):
    """Bad file, formula, or argument; reported on stderr with exit 2."""


class RunReport:
    def __init__(self, command: str, args: Sequence[str]) -> None:
        self.lines: list[tuple[str, str]] = [
            ("command", command),
            ("args", " ".join(args)),
        ]
        self.ok = True

    def add(self, key: str, value: object) -> None:
        self.lines.append((key, str(value)))

    def fail(self) -> None:
        self.ok = False

    def render(self) -> str:
        return "".join(f"{key}\t{value}\n" for key, value in self.lines)


def _digest(parts: Sequence[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _parse_formula_arg(text: str) -> Formula:
    try:
        return parse_formula(text)
    except ParseError as exc:
        raise InputError(f"formula {text!r}: {exc}") from exc


def _load_model(path: str):
    text = _read_file(path)
    try:
        return parse_model(text), text
    except ModelError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_complex(path: str, *, auto_complete: bool = True):
    text = _read_file(path)
    try:
        return parse_complex(text, auto_complete=auto_complete), text
    except GeometryError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_formulas_file(path: str) -> list[Formula]:
    formulas = []
    for number, raw in enumerate(_read_file(path).splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            formulas.append(parse_formula(stripped))
        except ParseError as exc:
            raise InputError(f"{path} line {number}: {exc}") from exc
    if not formulas:
        raise InputError(f"{path}: no formulas found")
    return formulas


def _emit_text(report: RunReport, key: str, text: str) -> None:
    for line in text.splitlines():
        report.add(key, line)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_check(ns: argparse.Namespace, args: Sequence[str]) -> RunReport:
    model, text = _load_model(ns.model)
    formula = _parse_formula_arg(ns.formula)
    report = RunReport("check", args)
    report.add("inputs", _digest([text.encode()]))
    report.add("formula", format_formula(formula))
    extension = evaluate(model, formula)
    if ns.world is not None:
        if ns.world not in model.world_set:
            raise InputError(f"unknown world: {ns.world!r}")
        value = ns.world in extension
        report.add("value", "true" if value else "false")
        if not value:
            report.fail()
        witness_worlds = [ns.world] if value else []
    else:
        report.add("extension", " ".join(sorted(extension)))
        witness_worlds = sorted(extension)
    if isinstance(formula, Reach):
        area = evaluate(model, formula.left)
        goal = evaluate(model, formula.right)
        for w in witness_worlds:
            path = witness_path(model, w, area, goal)
            if path is None or not check_updown_path(model, path, area):
                report.add(f"witness:{w}", "MISSING")
                report.fail()
            else:
                report.add(f"witness:{w}", " ".join(path))
    return report


def _cmd_sat(ns: argparse.Namespace, args: Sequence[str]) -> RunReport:
    formula = _parse_formula_arg(ns.formula)
    if ns.max_worlds < 1:
        raise InputError("--max-worlds must be at least 1")
    report = RunReport("sat", args)
    report.add("inputs", _digest([ns.formula.encode()]))
    report.add("formula", format_formula(formula))
    found = find_model(formula, ns.max_worlds)
    if found is None:
        report.add("result", f"UNSAT-UP-TO {ns.max_worlds}")
        report.fail()
        return report
    model, world = found
    report.add("result", "SAT")
    report.add("world", world)
    text = serialize_model(model)
    _emit_text(report, "model", text)
    _write_out(ns.out, text)
    return report


def _preservation_lines(report: RunReport, result) -> None:
    failing = {member for member, _ in result.report.mismatches}
    for member in result.sigma:
        verdict = "fail" if member in failing else "pass"
        report.add(f"preserve:{format_formula(member)}", verdict)
        if verdict == "fail":
            report.fail()
    for member, name, path in result.report.witnesses:
        report.add(
            f"gamma-witness:{format_formula(member)}@{name}", " ".join(path)
        )
    for member, name in result.report.witness_failures:
        report.add(f"gamma-witness:{format_formula(member)}@{name}", "MISSING")
        report.fail()
    report.add("advisory", "true" if result.report.advisory else "false")
    report.add("summary", "all-pass" if result.report.all_pass else "failures")


def _cmd_nerve(ns: argparse.Namespace, args: Sequence[str]) -> RunReport:
    model, text = _load_model(ns.model)
    if not isinstance(model, PosetModel):
        raise InputError("nerve needs a poset model")
    report = RunReport("nerve", args)
    report.add("inputs", _digest([text.encode()]))
    out = serialize_model(nerve(model).model)
    _emit_text(report, "model", out)
    _write_out(ns.out, out)
    return report


def _cmd_cut(ns: argparse.Namespace, args: Sequence[str]) -> RunReport:
    model, text = _load_model(ns.model)
    report = RunReport("cut", args)
    report.add("inputs", _digest([text.encode()]))
    out = serialize_model(cut(model))
    _emit_text(report, "model", out)
    _write_out(ns.out, out)
    return report


def _cmd_filtrate(ns: argparse.Namespace, args: Sequence[str]) -> RunReport:
    model, text = _load_model(ns.model)
    formulas = _load_formulas_file(ns.formulas)
    report = RunReport("filtrate", args)
    report.add("inputs", _digest([text.encode(), _read_file(ns.formulas).encode()]))
    sigma = adequate_closure(formulas)
    filtration = filtrate(model, sigma)
    out = serialize_model(filtration.model)
    _emit_text(report, "model", out)
    _write_out(ns.out, out)
    for member in sigma:
        source_ext = evaluate(model, member)
        class_ext = evaluate(filtration.model, member)
        ok = all(
            (w in source_ext) == (filtration.class_map[w] in class_ext)
            for w in model.worlds
        )
        report.add(f"preserve:{format_formula(member)}", "pass" if ok else "fail")
        if not ok:
            report.fail()
    return report


def _cmd_pipeline(ns: argparse.Namespace, args: Sequence[str]) -> RunReport:
    model, text = _load_model(ns.model)
    formulas = _load_formulas_file(ns.formulas)
    report = RunReport("pipeline", args)
    report.add("inputs", _digest([text.encode(), _read_file(ns.formulas).encode()]))
    result = cut_filtration_pipeline(model, formulas)
    out = serialize_model(result.output)
    _emit_text(report, "model", out)
    _write_out(ns.out, out)
    _preservation_lines(report, result)
    return report


def _cmd_realize(ns: argparse.Namespace, args: Sequence[str]) -> RunReport:
    model, text = _load_model(ns.model)
    if not isinstance(model, PosetModel):
        raise InputError("realization needs a poset model")
    report = RunReport("realize", args)
    report.add("inputs", _digest([text.encode()]))
    out = serialize_complex(realize(model))
    _emit_text(report, "complex", out)
    _write_out(ns.out, out)
    return report


def _cmd_companion(ns: argparse.Namespace, args: Sequence[str]) -> RunReport:
    poly, text = _load_complex(ns.complex)
    report = RunReport("companion", args)
    report.add("inputs", _digest([text.encode()]))
    out = serialize_model(poly.companion())
    _emit_text(report, "model", out)
    _write_out(ns.out, out)
    return report


def _polyline_query(formula: Formula) -> Reach:
    from .formulas import And

    probe = formula
    while isinstance(probe, And):
        if isinstance(probe.right, Reach):
            return probe.right
        probe = probe.left
    if isinstance(probe, Reach):
        return probe
    raise InputError("--polyline needs a reachability conjunct in the query")


def _cmd_maze(ns: argparse.Namespace, args: Sequence[str]) -> RunReport:
    if ns.width < 1 or ns.height < 1:
        raise InputError("maze dimensions must be at least 1")
    if ns.seed is None:
        raise InputError("maze generation requires an explicit --seed")
    densities = None
    if ns.densities:
        densities = {}
        for item in ns.densities.split(","):
            name, _, weight = item.partition("=")
            try:
                densities[name.strip()] = float(weight)
            except ValueError as exc:
                raise InputError(f"bad density {item!r}") from exc
    query = _parse_formula_arg(ns.query)
    maze = maze_generate(ns.width, ns.height, ns.seed, densities)
    report = RunReport("maze", args)
    report.add(
        "inputs",
        _digest([f"{ns.width}x{ns.height}@{ns.seed}:{ns.query}".encode()]),
    )
    report.add("formula", format_formula(query))
    model = maze.companion()
    extension = evaluate(model, query)
    triangles = sorted(w for w in extension if w.count("+") == 2)
    report.add("cells", " ".join(triangles))
    report.add("count", len(triangles))
    text = serialize_complex(maze)
    _write_out(ns.out, text)
    if ns.polyline:
        goal_formula = _polyline_query(query)
        area = evaluate(model, goal_formula.left)
        goal = evaluate(model, goal_formula.right)
        reaching = evaluate(model, goal_formula)
        starts = [w for w in triangles if w in reaching]
        if not starts:
            report.add("polyline", "NONE")
            report.fail()
        else:
            path = witness_path(model, starts[0], area, goal)
            if path is None:
                report.add("polyline", "MISSING")
                report.fail()
            else:
                labels = {cell_label(s): s for s in maze.complex.simplices}
                points = [barycenter(maze.complex, labels[name]) for name in path]
                report.add(
                    "polyline",
                    " ".join(f"{x!r},{y!r}" for x, y in points),
                )
    return report


def _cmd_audit(ns: argparse.Namespace, args: Sequence[str]) -> RunReport:
    text = _read_file(ns.path)
    kind = _sniff(text, ns.path)
    report = RunReport("audit", args)
    report.add("inputs", _digest([text.encode()]))
    report.add("kind", kind)
    if kind == "model":
        if ns.seed is None:
            raise InputError("model audits sample instances; pass --seed")
        try:
            model = parse_model(text)
        except ModelError as exc:
            raise InputError(f"{ns.path}: {exc}") from exc
        suite = axiom_suite(model, seed=ns.seed)
        report.add("poset", "true" if suite.is_poset else "false")
        for law in LAW_NAMES:
            report.add(f"law:{law}", "pass" if suite.law_ok(law) else "fail")
        for violation in suite.violations:
            report.add(
                f"violation:{violation.law}",
                f"{violation.instance} @ {violation.world}",
            )
        if not suite.all_ok:
            report.fail()
    else:
        poly, _ = _load_complex(ns.path, auto_complete=False)
        problems = structural_problems(poly.complex)
        if ns.geometric_audit:
            if poly.complex.ambient_dim > 3:
                raise InputError("geometric audit supports ambient dimension <= 3")
            problems = problems + geometric_problems(poly.complex)
        report.add("structure", "pass" if not problems else "fail")
        for problem in problems:
            report.add("problem", problem)
        if problems:
            report.fail()
    return report


def _sniff(text: str, path: str) -> str:
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        head = stripped.split()[0]
        if head in ("worlds", "order"):
            return "model"
        if head in ("vertex", "simplex"):
            return "complex"
    raise InputError(f"{path}: cannot tell whether this is a model or a complex")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls;
    no action keeps state between parses."""
    parser = argparse.ArgumentParser(
        prog="polyreach",
        description="Reachability logic on finite orders and polyhedra.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="evaluate a formula on a model")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--world")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("sat", help="bounded satisfiability search")
    p.add_argument("formula")
    p.add_argument("--max-worlds", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_sat)

    for verb, handler, needs_formulas in (
        ("nerve", _cmd_nerve, False),
        ("cut", _cmd_cut, False),
        ("filtrate", _cmd_filtrate, True),
        ("pipeline", _cmd_pipeline, True),
        ("realize", _cmd_realize, False),
    ):
        p = sub.add_parser(verb, help=f"{verb} transform")
        p.add_argument("model")
        if needs_formulas:
            p.add_argument("--formulas", required=True)
        p.add_argument("--out")
        p.set_defaults(handler=handler)

    p = sub.add_parser("companion", help="face-poset model of a complex")
    p.add_argument("complex")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_companion)

    p = sub.add_parser("maze", help="generate and query a triangulated maze")
    p.add_argument("width", type=int)
    p.add_argument("height", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--query", default=DEFAULT_MAZE_QUERY)
    p.add_argument("--densities")
    p.add_argument("--out")
    p.add_argument("--polyline", action="store_true")
    p.set_defaults(handler=_cmd_maze)

    p = sub.add_parser("audit", help="soundness or structural audit")
    p.add_argument("path")
    p.add_argument("--seed", type=int)
    p.add_argument("--geometric-audit", action="store_true")
    p.set_defaults(handler=_cmd_audit)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    ns = parser.parse_args(args)
    started = time.perf_counter()
    try:
        report = ns.handler(ns, args)
    except (InputError, ParseError, ModelError, GeometryError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render())
    elapsed = (time.perf_counter() - started) * 1000.0
    print(f"elapsed-ms\t{elapsed:.1f}", file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
