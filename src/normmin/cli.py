"""Command-line front end.

Subcommands: solve, certify, recover, describe, sample, validate-psi,
reproduce-examples.  Inputs are JSON files (see `serialization`); outputs go
to --out or stdout and are byte-deterministic given identical inputs and
flags.

Exit codes: 0 success / verdict true; 1 malformed input or unusable flag
combination; 2 solve ended without convergence (best iterate still
written); 3 a check failed (certificate rejected, recovery infeasible,
generator axioms violated); 4 an example reproduction mismatched.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import serialization as ser
from .certificates import (
    CHEBYSHEV,
    FERMAT_TORRICELLI,
    GENERAL,
    P_FERMAT,
    Infeasible,
    check_certificate,
    recover_certificate,
)
from .errors import (
    InputFormatError,
    MembershipViolationError,
    NormMinError,
)
from .examples import find_cases, run_case
from .psi_generators import validate_psi
from .solution_sets import describe_solution_set, sample_solution_region
from .solvers import solve

_THEOREM_FLAGS = {
    "auto": "auto",
    "general": GENERAL,
    "ft": FERMAT_TORRICELLI,
    "chebyshev": CHEBYSHEV,
    "pft": P_FERMAT,
}


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so flag errors map to exit code 1.

    Also treats comma-separated numbers with a leading minus (as in
    ``--box -3,3,-3,3``) as values rather than as option names.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+(\.\d*)?([,e][-+,.\d]*)?$"
        )

    def error(self, message):
        raise InputFormatError("arguments", message)


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_instance(path):
    return ser.instance_from_json(ser.load_path(path), field=str(path))


def _load_certificate(path):
    return ser.certificate_from_json(ser.load_path(path), field=str(path))


def _tol(args, fallback: float) -> float:
    if args.tol is None:
        return fallback
    if not 0.0 < args.tol < math.inf:
        raise InputFormatError("--tol", "must be finite and positive")
    return args.tol


def cmd_solve(args) -> int:
    res = solve(_load_instance(args.problem))
    _write(ser.dumps(res.to_dict()), args.out)
    return 0 if res.converged else 2


def cmd_certify(args) -> int:
    prob = _load_instance(args.problem)
    cert = _load_certificate(args.certificate)
    report = check_certificate(
        prob, cert, tol=_tol(args, 1e-9), theorem=_THEOREM_FLAGS[args.theorem]
    )
    _write(ser.dumps(report.to_dict()), args.out)
    return 0 if report.verdict else 3


def cmd_recover(args) -> int:
    prob = _load_instance(args.problem)
    obj = ser.load_path(args.point_file)
    raw = obj.get("point", obj.get("solution")) if isinstance(obj, dict) else None
    if raw is None:
        raise InputFormatError(str(args.point_file), "expected a 'point' entry")
    point = ser._as_vector_field(raw, f"{args.point_file}.point")
    result = recover_certificate(prob, point, tol=_tol(args, 1e-7))
    if isinstance(result, Infeasible):
        _write(
            ser.dumps(
                {
                    "infeasible": True,
                    "theorem": result.theorem,
                    "reason": result.reason,
                    "residual": result.residual,
                }
            ),
            args.out,
        )
        return 3
    _write(ser.dumps(ser.certificate_to_json(result)), args.out)
    return 0


def _describe(prob, cert, tol):
    try:
        return describe_solution_set(prob, cert, tol=tol), 0
    except MembershipViolationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return None, 3


def cmd_describe(args) -> int:
    prob = _load_instance(args.problem)
    cert = _load_certificate(args.certificate)
    desc, code = _describe(prob, cert, _tol(args, 1e-7))
    if desc is None:
        return code
    _write(
        ser.dumps(
            {
                "kind": desc.kind,
                "skipped_blocks": [i + 1 for i in desc.skipped_blocks],
                "note": desc.note,
                "tol": desc.construction_tol,
            }
        ),
        args.out,
    )
    return 0


def cmd_sample(args) -> int:
    prob = _load_instance(args.problem)
    cert = _load_certificate(args.certificate)
    if args.svg and prob.dim != 2:
        raise InputFormatError("--svg", "needs a planar (2-coordinate) instance")
    box = ser.parse_box(args.box, prob.dim)
    tol = _tol(args, 1e-7)
    desc, code = _describe(prob, cert, tol)
    if desc is None:
        return code
    pts = sample_solution_region(desc, box, args.grid, tol=tol)
    _write(ser.region_csv(pts, prob.dim), args.out)
    if args.svg:
        Path(args.svg).write_text(
            ser.region_svg(pts, prob.anchors, box, args.grid), encoding="utf-8"
        )
    return 0


def cmd_validate_psi(args) -> int:
    gen = ser.generator_from_json(ser.load_path(args.generator), field=str(args.generator))
    report = validate_psi(gen, tol=_tol(args, 1e-7), seed=args.seed)
    _write(ser.dumps(report.to_dict()), args.out)
    return 0 if report.passed else 3


def cmd_reproduce(args) -> int:
    cases = find_cases(args.only)
    outdir = Path(args.out) if args.out else Path("examples-out")
    outdir.mkdir(parents=True, exist_ok=True)
    tol = _tol(args, 1e-7)
    summary = []
    failing = []
    for case in cases:
        result = run_case(case, grid=args.grid, tol=tol)
        casedir = outdir / case.case_id
        casedir.mkdir(parents=True, exist_ok=True)
        prob = case.instance()
        instance_obj = {"id": case.case_id, "comment": case.comment}
        instance_obj.update(ser.instance_to_json(prob))
        ser.dump_path(instance_obj, casedir / "instance.json")
        ser.dump_path(result.solve_result.to_dict(), casedir / "solve.json")
        ser.dump_path(
            ser.certificate_to_json(case.certificate()), casedir / "certificate.json"
        )
        if not isinstance(result.recovered, Infeasible):
            ser.dump_path(
                ser.certificate_to_json(result.recovered),
                casedir / "certificate-recovered.json",
            )
        for name, report in result.reports.items():
            ser.dump_path(report.to_dict(), casedir / f"report-{name}.json")
        (casedir / "region.csv").write_text(
            ser.region_csv(result.region, prob.dim), encoding="utf-8"
        )
        if prob.dim == 2:
            (casedir / "region.svg").write_text(
                ser.region_svg(
                    result.region,
                    prob.anchors,
                    np.asarray(case.region_box, dtype=float),
                    args.grid,
                ),
                encoding="utf-8",
            )
        status = "PASS" if result.passed else "FAIL"
        print(
            f"{status} {case.case_id} value={result.value:.12g} "
            f"region={result.region.shape[0]}/{result.lattice_total}"
        )
        for failure in result.failures:
            print(f"  - {failure}")
        summary.append(
            {
                "id": case.case_id,
                "passed": result.passed,
                "value": result.value,
                "region_points": int(result.region.shape[0]),
                "failures": list(result.failures),
            }
        )
        if not result.passed:
            failing.append(case.case_id)
    ser.dump_path({"cases": summary, "all_passed": not failing}, outdir / "summary.json")
    if failing:
        sys.stderr.write("failed examples: " + ", ".join(failing) + "\n")
        return 4
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="normmin", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, grid_default=None):
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("-o", "--out", default=None)
        if grid_default is not None:
            p.add_argument("--grid", type=int, default=grid_default)

    p = sub.add_parser("solve", help="minimize an instance")
    p.add_argument("problem")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="check an optimality certificate")
    p.add_argument("problem")
    p.add_argument("certificate")
    p.add_argument("--theorem", choices=sorted(_THEOREM_FLAGS), default="auto")
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("recover", help="reconstruct dual blocks at a point")
    p.add_argument("problem")
    p.add_argument("point_file")
    common(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("describe", help="classify the solution-set description")
    p.add_argument("problem")
    p.add_argument("certificate")
    common(p)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("sample", help="sample the solution region on a lattice")
    p.add_argument("problem")
    p.add_argument("certificate")
    p.add_argument("--box", required=True)
    p.add_argument("--svg", default=None)
    common(p, grid_default=241)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("validate-psi", help="sampled generator axiom checks")
    p.add_argument("generator")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_validate_psi)

    p = sub.add_parser("reproduce-examples", help="run every bundled example")
    p.add_argument("--only", default=None)
    common(p, grid_default=241)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputFormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except NormMinError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
