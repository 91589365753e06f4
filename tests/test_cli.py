"""End-to-end checks of the command-line harness.

Each test drives ``main`` with an argv list and inspects the line-oriented
report on stdout, the diagnostics on stderr, and the exit code.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polyreach import cli
from polyreach.cli import DEFAULT_MAZE_QUERY, main
from polyreach.formulas import parse_formula
from polyreach.geometry import parse_complex, realize, serialize_complex
from polyreach.kripke import PosetModel, evaluate, parse_model, serialize_model
from polyreach.transforms import nerve

V_MODEL = "worlds a u v\norder a u\norder v u\nvaluation p u\nvaluation q v\n"
CHAIN = "worlds a b\norder a b\nvaluation p b\n"
CLUSTER = "worlds a b\norder a b\norder b a\nvaluation p a\n"
TRIANGLE = (
    "vertex a 0 0\nvertex b 1 0\nvertex c 0 1\n"
    "simplex a\nsimplex b\nsimplex c\n"
    "simplex a b\nsimplex a c\nsimplex b c\nsimplex a b c\n"
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines_with(out, key):
    prefix = key + "\t"
    return [
        line[len(prefix):]
        for line in out.splitlines()
        if line.startswith(prefix)
    ]


def model_text(out):
    return "".join(value + "\n" for value in lines_with(out, "model"))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_reports_extension_and_witnesses(capsys, tmp_path):
    path = write(tmp_path, "v.model", V_MODEL)
    code, out, _ = run(capsys, ["check", path, "gamma(p, q)"])
    assert code == 0
    assert lines_with(out, "formula") == ["gamma(p, q)"]
    assert lines_with(out, "extension") == ["a u v"]
    assert lines_with(out, "witness:a") == ["a u v"]
    assert lines_with(out, "witness:u") == ["u u v"]
    assert lines_with(out, "witness:v") == ["v u v"]


def test_check_box_on_a_chain(capsys, tmp_path):
    path = write(tmp_path, "chain.model", CHAIN)
    code, out, _ = run(capsys, ["check", path, "[]p"])
    assert code == 0
    assert lines_with(out, "extension") == ["b"]


def test_check_world_truth_drives_the_exit_code(capsys, tmp_path):
    path = write(tmp_path, "chain.model", CHAIN)
    code, out, _ = run(capsys, ["check", path, "[]p", "--world", "b"])
    assert code == 0
    assert lines_with(out, "value") == ["true"]
    code, out, _ = run(capsys, ["check", path, "[]p", "--world", "a"])
    assert code == 1
    assert lines_with(out, "value") == ["false"]


def test_check_unknown_world_is_an_input_error(capsys, tmp_path):
    path = write(tmp_path, "chain.model", CHAIN)
    code, out, err = run(capsys, ["check", path, "p", "--world", "zz"])
    assert code == 2
    assert out == ""
    assert "unknown world" in err


def test_check_bad_formula_is_an_input_error(capsys, tmp_path):
    path = write(tmp_path, "chain.model", CHAIN)
    code, _, err = run(capsys, ["check", path, "p &"])
    assert code == 2
    assert "formula" in err


def test_check_missing_file_is_an_input_error(capsys, tmp_path):
    code, _, err = run(capsys, ["check", str(tmp_path / "nope"), "p"])
    assert code == 2
    assert "cannot read" in err


def test_timing_is_kept_off_stdout(capsys, tmp_path):
    path = write(tmp_path, "chain.model", CHAIN)
    _, out, err = run(capsys, ["check", path, "p"])
    assert "elapsed-ms" not in out
    assert "elapsed-ms" in err


def test_reports_are_deterministic(capsys, tmp_path):
    path = write(tmp_path, "v.model", V_MODEL)
    _, first, _ = run(capsys, ["check", path, "gamma(p, q)"])
    _, second, _ = run(capsys, ["check", path, "gamma(p, q)"])
    assert first == second


def test_inputs_digest_matches_the_file(capsys, tmp_path):
    path = write(tmp_path, "chain.model", CHAIN)
    _, out, _ = run(capsys, ["check", path, "p"])
    digest = hashlib.sha256(CHAIN.encode()).hexdigest()
    assert lines_with(out, "inputs") == [digest]


# ---------------------------------------------------------------------------
# sat
# ---------------------------------------------------------------------------


def test_sat_witness_model_reparses_and_satisfies(capsys):
    code, out, _ = run(
        capsys, ["sat", "gamma(p, q) & ~<>q", "--max-worlds", "3"]
    )
    assert code == 0
    assert lines_with(out, "result") == ["SAT"]
    (world,) = lines_with(out, "world")
    model = parse_model(model_text(out))
    formula = parse_formula("gamma(p, q) & ~<>q")
    assert world in evaluate(model, formula)


def test_sat_reports_unsat_up_to_the_bound(capsys):
    code, out, _ = run(capsys, ["sat", "p & ~p"])
    assert code == 1
    assert lines_with(out, "result") == ["UNSAT-UP-TO 4"]


def test_sat_rejects_a_silly_bound(capsys):
    code, _, err = run(capsys, ["sat", "p", "--max-worlds", "0"])
    assert code == 2
    assert "max-worlds" in err


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def test_nerve_emits_the_chain_complex_model(capsys, tmp_path):
    path = write(tmp_path, "chain.model", CHAIN)
    code, out, _ = run(capsys, ["nerve", path])
    assert code == 0
    assert model_text(out) == (
        "worlds a a+b b\norder a a+b\norder b a+b\nvaluation p a+b b\n"
    )


def test_nerve_rejects_a_preorder(capsys, tmp_path):
    path = write(tmp_path, "cluster.model", CLUSTER)
    code, _, err = run(capsys, ["nerve", path])
    assert code == 2
    assert "poset" in err


def test_cut_flattens_a_cluster(capsys, tmp_path):
    path = write(tmp_path, "cluster.model", CLUSTER)
    code, out, _ = run(capsys, ["cut", path])
    assert code == 0
    model = parse_model(model_text(out))
    assert isinstance(model, PosetModel)
    assert not any(a != b for a, b in model.order)


def test_filtrate_reports_per_member_preservation(capsys, tmp_path):
    path = write(tmp_path, "v.model", V_MODEL)
    formulas = write(tmp_path, "gammas.txt", "# focus\ngamma(p, q)\n")
    code, out, _ = run(capsys, ["filtrate", path, "--formulas", formulas])
    assert code == 0
    verdicts = [
        line.split("\t")[1]
        for line in out.splitlines()
        if line.startswith("preserve:")
    ]
    assert len(verdicts) == 14
    assert set(verdicts) == {"pass"}


def test_pipeline_report_is_frozen_on_the_v_poset(capsys, tmp_path):
    path = write(tmp_path, "v.model", V_MODEL)
    formulas = write(tmp_path, "gammas.txt", "gamma(p, q)\n")
    code, out, _ = run(capsys, ["pipeline", path, "--formulas", formulas])
    assert code == 0
    assert model_text(out) == V_MODEL
    assert lines_with(out, "gamma-witness:gamma(p, q)@a") == ["a u v"]
    assert lines_with(out, "gamma-witness:gamma(p, q)@u") == ["u u v"]
    assert lines_with(out, "gamma-witness:gamma(p, q)@v") == ["v u v"]
    assert lines_with(out, "advisory") == ["false"]
    assert lines_with(out, "summary") == ["all-pass"]


def test_pipeline_on_a_preorder_is_advisory(capsys, tmp_path):
    path = write(tmp_path, "cluster.model", CLUSTER)
    formulas = write(tmp_path, "gammas.txt", "p\n")
    code, out, _ = run(capsys, ["pipeline", path, "--formulas", formulas])
    assert code == 0
    assert lines_with(out, "advisory") == ["true"]


def test_pipeline_out_file_reparses(capsys, tmp_path):
    path = write(tmp_path, "v.model", V_MODEL)
    formulas = write(tmp_path, "gammas.txt", "gamma(p, q)\n")
    out_path = tmp_path / "out.model"
    code, _, _ = run(
        capsys,
        ["pipeline", path, "--formulas", formulas, "--out", str(out_path)],
    )
    assert code == 0
    assert isinstance(parse_model(out_path.read_text()), PosetModel)


def test_empty_formulas_file_is_an_input_error(capsys, tmp_path):
    path = write(tmp_path, "v.model", V_MODEL)
    formulas = write(tmp_path, "gammas.txt", "# nothing here\n")
    code, _, err = run(capsys, ["filtrate", path, "--formulas", formulas])
    assert code == 2
    assert "no formulas" in err


def test_realize_emits_a_segment_complex(capsys, tmp_path):
    path = write(tmp_path, "chain.model", CHAIN)
    code, out, _ = run(capsys, ["realize", path])
    assert code == 0
    text = "".join(value + "\n" for value in lines_with(out, "complex"))
    parsed = parse_complex(text)
    chain = parse_model(CHAIN)
    assert isinstance(chain, PosetModel)
    assert serialize_complex(parsed) == serialize_complex(realize(chain))


def test_companion_agrees_with_the_nerve(capsys, tmp_path):
    chain = parse_model(CHAIN)
    assert isinstance(chain, PosetModel)
    path = write(tmp_path, "seg.cx", serialize_complex(realize(chain)))
    code, out, _ = run(capsys, ["companion", path])
    assert code == 0
    assert model_text(out) == serialize_model(nerve(chain).model)


# ---------------------------------------------------------------------------
# maze
# ---------------------------------------------------------------------------


def test_maze_requires_a_seed(capsys):
    code, _, err = run(capsys, ["maze", "2", "2"])
    assert code == 2
    assert "--seed" in err


def test_maze_rejects_bad_dimensions(capsys):
    code, _, err = run(capsys, ["maze", "0", "3", "--seed", "1"])
    assert code == 2
    assert "at least 1" in err


def test_maze_rejects_a_bad_density(capsys):
    code, _, err = run(
        capsys, ["maze", "1", "1", "--seed", "1", "--densities", "white=x"]
    )
    assert code == 2
    assert "density" in err


def test_maze_rejects_a_negative_density(capsys):
    code, _, err = run(
        capsys, ["maze", "4", "4", "--seed", "1", "--densities", "red=-1,green=2"]
    )
    assert code == 2
    assert err.startswith("error:") and "red" in err


def test_maze_rejects_a_nan_density(capsys):
    code, _, err = run(
        capsys, ["maze", "4", "4", "--seed", "1", "--densities", "red=nan,green=1"]
    )
    assert code == 2
    assert err.startswith("error:") and "red" in err


def test_maze_all_white_query_lists_both_triangles(capsys):
    code, out, _ = run(
        capsys,
        ["maze", "1", "1", "--seed", "5", "--densities", "white=1",
         "--query", "white"],
    )
    assert code == 0
    assert lines_with(out, "count") == ["2"]
    assert lines_with(out, "cells") == ["v0_0+v0_1+v1_1 v0_0+v1_0+v1_1"]


def test_maze_polyline_walks_cell_barycenters(capsys):
    code, out, _ = run(
        capsys,
        ["maze", "1", "1", "--seed", "5", "--densities", "white=1",
         "--query", "white & gamma(white, white)", "--polyline"],
    )
    assert code == 0
    (polyline,) = lines_with(out, "polyline")
    points = polyline.split()
    assert len(points) == 3
    for point in points:
        x, y = point.split(",")
        float(x), float(y)


def test_maze_runs_are_deterministic(capsys):
    _, first, _ = run(capsys, ["maze", "2", "2", "--seed", "7"])
    _, second, _ = run(capsys, ["maze", "2", "2", "--seed", "7"])
    assert first == second


def test_maze_echoes_the_default_query(capsys):
    code, out, _ = run(capsys, ["maze", "1", "1", "--seed", "3"])
    assert code == 0
    echoed = lines_with(out, "formula") == [
        "red & gamma(~(~~(~red & ~corridor) & ~white), green)"
    ]
    assert echoed
    parsed = parse_formula(DEFAULT_MAZE_QUERY)
    assert parse_formula(lines_with(out, "formula")[0]) == parsed


def test_maze_out_file_reparses(capsys, tmp_path):
    out_path = tmp_path / "maze.cx"
    code, _, _ = run(
        capsys, ["maze", "2", "2", "--seed", "7", "--out", str(out_path)]
    )
    assert code == 0
    parsed = parse_complex(out_path.read_text())
    assert len([s for s in parsed.complex.simplices if len(s) == 3]) == 8


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_poset_passes_every_law(capsys, tmp_path):
    path = write(tmp_path, "v.model", V_MODEL)
    code, out, _ = run(capsys, ["audit", path, "--seed", "3"])
    assert code == 0
    assert lines_with(out, "kind") == ["model"]
    assert lines_with(out, "poset") == ["true"]
    laws = [line for line in out.splitlines() if line.startswith("law:")]
    assert len(laws) == 6
    assert all(line.endswith("\tpass") for line in laws)


def test_audit_cluster_fails_the_grz_law_only(capsys, tmp_path):
    path = write(tmp_path, "cluster.model", CLUSTER)
    code, out, _ = run(capsys, ["audit", path, "--seed", "3"])
    assert code == 1
    assert lines_with(out, "poset") == ["false"]
    assert lines_with(out, "law:grz") == ["fail"]
    others = [
        line
        for line in out.splitlines()
        if line.startswith("law:") and not line.startswith("law:grz")
    ]
    assert all(line.endswith("\tpass") for line in others)
    violations = [
        line for line in out.splitlines() if line.startswith("violation:grz")
    ]
    assert violations
    assert all("@" in line for line in violations)


def test_audit_model_requires_a_seed(capsys, tmp_path):
    path = write(tmp_path, "v.model", V_MODEL)
    code, _, err = run(capsys, ["audit", path])
    assert code == 2
    assert "--seed" in err


def test_audit_accepts_a_clean_complex(capsys, tmp_path):
    path = write(tmp_path, "full.cx", TRIANGLE)
    code, out, _ = run(capsys, ["audit", path])
    assert code == 0
    assert lines_with(out, "kind") == ["complex"]
    assert lines_with(out, "structure") == ["pass"]


def test_audit_names_missing_faces(capsys, tmp_path):
    path = write(
        tmp_path,
        "missing.cx",
        "vertex a 0 0\nvertex b 1 0\nvertex c 0 1\nsimplex a b c\n",
    )
    code, out, _ = run(capsys, ["audit", path])
    assert code == 1
    assert lines_with(out, "structure") == ["fail"]
    problems = lines_with(out, "problem")
    assert "missing face a+b of a+b+c" in problems


def test_audit_rejects_a_nan_coordinate(capsys, tmp_path):
    path = write(tmp_path, "nan.cx", TRIANGLE.replace("vertex b 1 0", "vertex b nan 0"))
    code, out, err = run(capsys, ["audit", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "non-finite" in err


def test_audit_geometric_flags_overlaps(capsys, tmp_path):
    path = write(
        tmp_path,
        "overlap.cx",
        "vertex a 0 0\nvertex b 2 0\nvertex c 0 2\n"
        "vertex d 0.5 0.5\nvertex e 3 0.5\nvertex f 0.5 3\n"
        "simplex a\nsimplex b\nsimplex c\n"
        "simplex d\nsimplex e\nsimplex f\n"
        "simplex a b\nsimplex a c\nsimplex b c\n"
        "simplex d e\nsimplex d f\nsimplex e f\n"
        "simplex a b c\nsimplex d e f\n",
    )
    code, out, _ = run(capsys, ["audit", path, "--geometric-audit"])
    assert code == 1
    problems = lines_with(out, "problem")
    assert any("cross" in p for p in problems)
    assert "vertex d lies inside a+b+c" in problems


def test_audit_geometric_dimension_limit(capsys, tmp_path):
    path = write(
        tmp_path,
        "quad.cx",
        "vertex a 0 0 0 0\nvertex b 1 0 0 0\n"
        "simplex a\nsimplex b\nsimplex a b\n",
    )
    code, _, err = run(capsys, ["audit", path, "--geometric-audit"])
    assert code == 2
    assert "dimension" in err


def test_audit_cannot_sniff_noise(capsys, tmp_path):
    path = write(tmp_path, "noise.txt", "hello world\n")
    code, _, err = run(capsys, ["audit", path])
    assert code == 2
    assert "cannot tell" in err


# ---------------------------------------------------------------------------
# argparse plumbing
# ---------------------------------------------------------------------------


def test_unknown_verb_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _outcomes(capsys, calls):
    """Exit code, stdout and stderr of each call, timing line dropped."""
    results = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        err = "".join(
            line for line in captured.err.splitlines(keepends=True)
            if not line.startswith("elapsed-ms\t")
        )
        results.append((code, captured.out, err))
    return results


def test_reused_parser_matches_fresh_parsers(capsys, monkeypatch, tmp_path):
    path = write(tmp_path, "chain.model", CHAIN)
    calls = [
        ["check", path, "p", "--world", "b"],
        ["check", path, "p"],
        ["sat", "p & ~p", "--max-worlds", "2"],
        ["sat", "p"],
        ["check", path],
        ["cut", path],
        ["maze", "2", "2", "--seed", "3", "--polyline"],
        ["maze", "2", "2", "--seed", "3"],
        ["sat", "p", "--max-worlds", "x"],
        ["nerve", path],
    ]
    assert cli.build_parser() is cli.build_parser()
    reused = _outcomes(capsys, calls)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert _outcomes(capsys, calls) == reused
    assert [code for code, _, _ in reused] == [0, 0, 1, 0, 2, 0, 1, 0, 2, 0]


# ---------------------------------------------------------------------------
# error boundary: package errors and deep nesting exit 2, never a traceback
# ---------------------------------------------------------------------------


def test_companion_on_colliding_cell_names_is_an_input_error(capsys, tmp_path):
    path = write(
        tmp_path,
        "plus.cx",
        "vertex a 0 0\nvertex b 1 0\nvertex a+b 2 0\nsimplex a b\nsimplex a+b\n",
    )
    code, out, err = run(capsys, ["companion", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "a+b" in err


def test_check_on_a_deeply_nested_formula_is_an_input_error(capsys, tmp_path):
    path = write(tmp_path, "chain.model", CHAIN)
    code, out, err = run(capsys, ["check", path, "(" * 3000 + "p" + ")" * 3000])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_sat_on_a_deeply_nested_formula_is_an_input_error(capsys):
    code, out, err = run(capsys, ["sat", "~" * 3000 + "p"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# start-up: numpy is loaded only by the verbs that build a complex
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_fresh(tmp_path, script):
    """Runs a script in a fresh interpreter that imports only from src."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_check_and_sat_never_load_numpy(tmp_path):
    write(tmp_path, "chain.model", CHAIN)
    _run_fresh(tmp_path, (
        "import sys, polyreach.cli as cli\n"
        "assert 'numpy' not in sys.modules\n"
        "assert cli.main(['check', 'chain.model', 'gamma(p, p)']) == 0\n"
        "assert cli.main(['sat', 'p & <>q', '--max-worlds', '2']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    ))


def test_realize_loads_numpy_on_first_use(tmp_path):
    write(tmp_path, "chain.model", CHAIN)
    _run_fresh(tmp_path, (
        "import sys, polyreach.cli as cli\n"
        "assert 'numpy' not in sys.modules\n"
        "assert cli.main(['realize', 'chain.model']) == 0\n"
        "assert 'numpy' in sys.modules\n"
    ))
