"""Command-line interface: exit codes, file output, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import normmin
from normmin import dumps, load_path
from normmin.cli import main

FT_LINF_PROBLEM = {
    "anchors": [[0.0, 0.0], [2.0, 0.0]],
    "ground": {"kind": "max"},
    "generator": {"kind": "p", "p": 1.0},
}
FT_LINF_CERT = {"solution": [1.0, 0.0], "duals": [[1.0, 0.0], [-1.0, 0.0]]}
CHEB_L2_PROBLEM = {
    "anchors": [[0.0, 0.0], [2.0, 0.0]],
    "ground": {"kind": "euclidean"},
    "generator": {"kind": "p", "p": "inf"},
}


def run_cli(argv, tmp_path, **files):
    """Write the given JSON payloads to files, substitute their paths, run main."""
    argv = list(argv)
    for name, payload in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(dumps(payload), encoding="utf-8")
        argv = [str(path) if a == f"@{name}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_solve_writes_result_json(tmp_path):
    outfile = tmp_path / "result.json"
    code, _, _ = run_cli(
        ["solve", "@prob", "-o", str(outfile)], tmp_path, prob=FT_LINF_PROBLEM
    )
    assert code == 0
    result = load_path(outfile)
    assert abs(result["value"] - 2.0) <= 1e-6
    assert len(result["point"]) == 2


def test_solve_tabulated_uses_pattern_search(tmp_path):
    prob = dict(FT_LINF_PROBLEM)
    prob["generator"] = {
        "kind": "tabulated",
        "arity": 2,
        "source": {"kind": "p", "p": 1.0},
    }
    code, out, _ = run_cli(["solve", "@prob"], tmp_path, prob=prob)
    assert code == 0
    assert abs(json.loads(out)["value"] - 2.0) <= 1e-4


def test_solve_sum_ground_twelve_anchors_exits_0(tmp_path):
    # This instance once aborted the solve with DivergenceError.
    anchors = np.random.default_rng(12).normal(size=(12, 3)) * 2
    prob = {
        "anchors": anchors.tolist(),
        "ground": {"kind": "sum"},
        "generator": {"kind": "p", "p": 1.0},
    }
    code, out, err = run_cli(["solve", "@prob"], tmp_path, prob=prob)
    assert code == 0
    assert err == ""
    # Sum ground with the sum generator: the objective is sum_i |u - v_i|_1.
    at_centroid = float(np.abs(anchors - anchors.mean(axis=0)).sum())
    value = json.loads(out)["value"]
    assert np.isfinite(value) and value <= at_centroid


def test_certify_pass_and_fail(tmp_path):
    code, out, _ = run_cli(
        ["certify", "@prob", "@cert"], tmp_path, prob=FT_LINF_PROBLEM, cert=FT_LINF_CERT
    )
    assert code == 0
    assert json.loads(out)["verdict"] is True

    bad = {"solution": [1.0, 0.0], "duals": [[0.4, 0.0], [-1.0, 0.0]]}
    code2, out2, _ = run_cli(
        ["certify", "@prob", "@cert"], tmp_path, prob=FT_LINF_PROBLEM, cert=bad
    )
    assert code2 == 3
    assert json.loads(out2)["verdict"] is False


def test_certify_theorem_mismatch_is_an_input_error(tmp_path):
    code, _, err = run_cli(
        ["certify", "@prob", "@cert", "--theorem", "chebyshev"],
        tmp_path,
        prob=FT_LINF_PROBLEM,
        cert=FT_LINF_CERT,
    )
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("point", [["a", 1], {"x": 1}], ids=["string-entry", "mapping"])
def test_recover_rejects_a_malformed_point(tmp_path, point):
    code, _, err = run_cli(["recover", "@prob", "@pt"], tmp_path, prob=CHEB_L2_PROBLEM, pt={"point": point})
    assert code == 1
    assert err.startswith("error: field ") and err.count("\n") == 1, err


def test_recover_valid_and_infeasible(tmp_path):
    code, out, _ = run_cli(
        ["recover", "@prob", "@pt"],
        tmp_path,
        prob=CHEB_L2_PROBLEM,
        pt={"point": [1.0, 0.0]},
    )
    assert code == 0
    duals = np.asarray(json.loads(out)["duals"])
    assert np.allclose(duals, [[0.5, 0.0], [-0.5, 0.0]], atol=1e-9)

    code2, out2, _ = run_cli(
        ["recover", "@prob", "@pt"],
        tmp_path,
        prob=FT_LINF_PROBLEM,
        pt={"point": [5.0, 5.0]},
    )
    assert code2 == 3
    assert json.loads(out2)["infeasible"] is True


def test_describe_reports_kind_and_one_based_blocks(tmp_path):
    code, out, _ = run_cli(
        ["describe", "@prob", "@cert"], tmp_path, prob=FT_LINF_PROBLEM, cert=FT_LINF_CERT
    )
    assert code == 0
    desc = json.loads(out)
    assert desc["kind"] == "ft_intersection"
    assert desc["skipped_blocks"] == []

    three = {
        "anchors": [[0.0, 0.0], [1.0, 0.0], [4.0, 0.0]],
        "ground": {"kind": "euclidean"},
        "generator": {"kind": "p", "p": "inf"},
    }
    code2, out2, _ = run_cli(
        ["describe", "@prob", "@pt"],
        tmp_path,
        prob=three,
        pt={
            "solution": [2.0, 0.0],
            "duals": [[0.5, 0.0], [0.0, 0.0], [-0.5, 0.0]],
        },
    )
    assert code2 == 0
    assert json.loads(out2)["skipped_blocks"] == [2]


def test_describe_rejects_invalid_certificate(tmp_path):
    bad = {"solution": [1.0, 0.0], "duals": [[0.7, 0.0], [-0.7, 0.0]]}
    code, _, err = run_cli(
        ["describe", "@prob", "@cert"], tmp_path, prob=FT_LINF_PROBLEM, cert=bad
    )
    assert code == 3
    assert "error" in err


def test_sample_csv_and_svg(tmp_path):
    svg_path = tmp_path / "region.svg"
    code, out, _ = run_cli(
        [
            "sample",
            "@prob",
            "@cert",
            "--box",
            "-3,3,-3,3",
            "--grid",
            "61",
            "--svg",
            str(svg_path),
        ],
        tmp_path,
        prob=FT_LINF_PROBLEM,
        cert=FT_LINF_CERT,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,y,member"
    assert len(lines) > 1
    assert svg_path.read_text(encoding="utf-8").startswith("<svg")


def test_sample_svg_needs_two_dims(tmp_path):
    prob3 = {
        "anchors": [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
        "ground": {"kind": "max"},
        "generator": {"kind": "p", "p": 1.0},
    }
    cert3 = {
        "solution": [1.0, 0.0, 0.0],
        "duals": [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
    }
    code, _, err = run_cli(
        [
            "sample",
            "@prob",
            "@cert",
            "--box",
            "-3,3,-3,3,-3,3",
            "--grid",
            "11",
            "--svg",
            str(tmp_path / "x.svg"),
        ],
        tmp_path,
        prob=prob3,
        cert=cert3,
    )
    assert code == 1
    assert "--svg" in err


def test_sample_missing_box_flag(tmp_path):
    code, _, err = run_cli(
        ["sample", "@prob", "@cert"], tmp_path, prob=FT_LINF_PROBLEM, cert=FT_LINF_CERT
    )
    assert code == 1
    assert "error" in err


def test_validate_psi_passes_builtin(tmp_path):
    code, out, _ = run_cli(
        ["validate-psi", "@gen"], tmp_path, gen={"kind": "p", "p": 2.0}
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_validate_psi_on_a_tabulated_formula_prints_the_formula_report(tmp_path):
    # Both run at arity 3 on the same samples, so the reports agree byte for byte.
    _, builtin, _ = run_cli(["validate-psi", "@gen"], tmp_path, gen={"kind": "p", "p": 2.0})
    code, out, _ = run_cli(
        ["validate-psi", "@gen"],
        tmp_path,
        gen={"kind": "tabulated", "arity": 3, "source": {"kind": "p", "p": 2.0}},
    )
    assert code == 0
    assert out == builtin


def test_validate_psi_rejects_a_negative_seed(tmp_path):
    code, out, err = run_cli(
        ["validate-psi", "@gen", "--seed", "-1"], tmp_path, gen={"kind": "p", "p": 2.0}
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: InvalidInputError: seed must be non-negative")


def test_tol_must_be_positive(tmp_path):
    code, _, err = run_cli(
        ["certify", "@prob", "@cert", "--tol", "0"],
        tmp_path,
        prob=FT_LINF_PROBLEM,
        cert=FT_LINF_CERT,
    )
    assert code == 1
    assert "--tol" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "@prob", "@cert", "--tol", "nan"],
        ["certify", "@prob", "@cert", "--tol", "inf"],
        ["recover", "@prob", "@pt", "--tol", "nan"],
    ],
)
def test_tol_must_be_finite(tmp_path, argv):
    code, out, err = run_cli(
        argv,
        tmp_path,
        prob=FT_LINF_PROBLEM,
        cert=FT_LINF_CERT,
        pt={"point": [1.0, 0.0]},
    )
    assert code == 1
    assert out == ""
    assert "--tol" in err


@pytest.mark.parametrize("box", ["nan,3,-3,3", "-3,inf,-3,3", "-3,3,-inf,3"])
def test_sample_rejects_non_finite_box(tmp_path, box):
    code, out, err = run_cli(
        ["sample", "@prob", "@cert", "--box", box],
        tmp_path,
        prob=FT_LINF_PROBLEM,
        cert=FT_LINF_CERT,
    )
    assert code == 1
    assert out == ""
    assert "--box" in err


def test_unknown_subcommand(tmp_path):
    code, _, err = run_cli(["frobnicate"], tmp_path)
    assert code == 1
    assert "error" in err


def test_duplicate_anchors_rejected(tmp_path):
    dup = dict(FT_LINF_PROBLEM, anchors=[[0.0, 0.0], [0.0, 0.0]])
    code, _, err = run_cli(["solve", "@prob"], tmp_path, prob=dup)
    assert code == 1
    assert "distinct" in err


def test_reproduce_single_example(tmp_path):
    outdir = tmp_path / "cases"
    code, out, _ = run_cli(
        [
            "reproduce-examples",
            "--only",
            "ft-linf-pair",
            "--grid",
            "81",
            "-o",
            str(outdir),
        ],
        tmp_path,
    )
    assert code == 0
    assert "PASS ft-linf-pair" in out
    summary = load_path(outdir / "summary.json")
    assert summary["all_passed"] is True
    assert (outdir / "ft-linf-pair" / "region.csv").exists()
    assert (outdir / "ft-linf-pair" / "region.svg").exists()


def test_entry_point_subprocess_determinism(tmp_path):
    prob_path = tmp_path / "prob.json"
    prob_path.write_text(dumps(FT_LINF_PROBLEM), encoding="utf-8")

    def run_once():
        return subprocess.run(
            [sys.executable, "-m", "normmin.cli", "solve", str(prob_path)],
            capture_output=True,
            text=True,
            timeout=120,
        )

    first, second = run_once(), run_once()
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_sum_and_max_generator_commands_import_no_scipy_optimize(tmp_path):
    # Recovery on the sum and max grounds reads the blocks off the alignment
    # faces under every power generator, so neither command should load
    # scipy's LP solver.
    prob_path = tmp_path / "prob.json"
    prob_path.write_text(dumps(FT_LINF_PROBLEM), encoding="utf-8")
    power_path = tmp_path / "power-prob.json"
    power_path.write_text(dumps(dict(FT_LINF_PROBLEM, ground={"kind": "sum"}, generator={"kind": "p", "p": 2.0})), encoding="utf-8")
    point_path = tmp_path / "point.json"
    point_path.write_text(dumps({"point": [1.0, 0.5]}), encoding="utf-8")
    middle_path = tmp_path / "middle.json"
    middle_path.write_text(dumps({"point": [1.0, 0.0]}), encoding="utf-8")
    script = (
        "import sys\n"
        "from normmin.cli import main\n"
        f"codes = [main(['recover', {str(prob_path)!r}, {str(point_path)!r}, '-o', 'recover.json']),\n"
        f"         main(['recover', {str(power_path)!r}, {str(middle_path)!r}, '-o', 'power.json']),\n"
        "         main(['reproduce-examples', '--only', 'ft-l1-pair', '--grid', '81', '-o', 'cases']),\n"
        "         main(['reproduce-examples', '--only', 'pft-linf-pair', '--grid', '81', '-o', 'cases'])]\n"
        "print(codes, 'scipy.optimize' in sys.modules)\n"
    )
    src = str(Path(normmin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"
    assert load_path(tmp_path / "recover.json")["duals"] == [[1.0, 0.0], [-1.0, 0.0]]
    half = np.sqrt(0.5)
    assert np.allclose(load_path(tmp_path / "power.json")["duals"], [[half, 0.0], [-half, 0.0]], rtol=0.0, atol=1e-15)
