"""Tests of the benchmark's reference code.

Run from the repository root:

    python3 -m pytest -q bench/test_reference.py

The reference never imports normmin; these tests do, only to read the values
and certificates stated for the bundled examples, which were derived by hand
from the paper's examples.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
from normmin.examples import all_cases  # noqa: E402

CASES = all_cases()


def _ground_exponent(case) -> float:
    kind = case.ground.kind
    return case.ground.p if kind == "p" else ref.GROUND_EXPONENT[kind]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.case_id)
def test_bundled_value_and_certificate(case):
    e, p = _ground_exponent(case), case.generator.p
    anchors = np.asarray(case.anchors, dtype=float)
    u = np.asarray(case.solution, dtype=float)
    duals = np.asarray(case.duals, dtype=float)
    assert ref.objective(anchors, e, p, u) == pytest.approx(case.value, rel=1e-12)
    assert np.abs(duals.sum(axis=0)).max() <= 1e-15
    assert ref.dual_power_aggregate(ref.dual_ground_norm(duals, e), p) == pytest.approx(1.0, rel=1e-12)
    assert abs(ref.duality_gap(anchors, e, p, u, duals)) <= 1e-12
    # No point beats the certified value.
    rng = np.random.default_rng(0)
    pts = u + rng.normal(size=(2000, u.size))
    assert ref.objective(anchors, e, p, pts).min() >= case.value - 1e-12


@pytest.mark.parametrize("case_id", sorted(ref.PLANAR_CASES))
def test_planar_table_matches_bundled_cases(case_id):
    case = next(c for c in CASES if c.case_id == case_id)
    e, p, value, duals, region = ref.PLANAR_CASES[case_id]
    assert (e, p) == (_ground_exponent(case), case.generator.p)
    assert value == pytest.approx(case.value, rel=1e-15)
    np.testing.assert_allclose(duals, case.duals, rtol=1e-15)
    np.testing.assert_array_equal(ref.PLANAR_PAIR, case.anchors)
    np.testing.assert_array_equal(ref.PLANAR_BOX, case.region_box)
    np.testing.assert_array_equal(ref.PLANAR_SOLUTION, case.solution)
    lat = ref.lattice(ref.PLANAR_BOX, 241)
    np.testing.assert_array_equal(region(lat), case.region_contains(lat))


@pytest.mark.parametrize("case_id", sorted(ref.PLANAR_CASES))
def test_planar_regions_are_the_optimal_lattice_points(case_id):
    e, p, value, _, region = ref.PLANAR_CASES[case_id]
    lat = ref.lattice(ref.PLANAR_BOX, 241)
    optimal = ref.objective(ref.PLANAR_PAIR, e, p, lat) <= value + 1e-12
    np.testing.assert_array_equal(region(lat), optimal)


@pytest.mark.parametrize("e", [1.0, 2.0, 3.0, math.inf])
def test_lp_norm_matches_numpy(e):
    x = np.random.default_rng(1).normal(size=(50, 4))
    np.testing.assert_allclose(ref.lp_norm(x, e), np.linalg.norm(x, ord=e, axis=-1), rtol=1e-13)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_power_conjugate_is_the_simplex_supremum(p):
    rng = np.random.default_rng(2)
    s = rng.dirichlet(np.ones(3))
    grid = 120
    i, j = np.meshgrid(np.arange(grid + 1), np.arange(grid + 1), indexing="ij")
    keep = i + j <= grid
    t = np.stack([i[keep], j[keep], grid - i[keep] - j[keep]], axis=1) / grid
    ratios = (t @ s) / ref.power_generator(t, p)
    exact = ref.power_conjugate(s, p)
    assert ratios.max() <= exact * (1.0 + 1e-12)
    assert ratios.max() >= exact * (1.0 - 3.0 / grid)


@pytest.mark.parametrize("e", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("d", [2, 3])
def test_planted_instance_is_certified(e, p, d):
    rng = np.random.default_rng(3)
    anchors, u, duals, f = ref.planted_instance(rng, e, p, d, pairs=2)
    assert ref.objective(anchors, e, p, u) == pytest.approx(f, rel=1e-14)
    assert np.abs(duals.sum(axis=0)).max() <= 1e-15
    assert ref.dual_power_aggregate(ref.dual_ground_norm(duals, e), p) == pytest.approx(1.0, rel=1e-14)
    assert abs(ref.duality_gap(anchors, e, p, u, duals)) <= 1e-12 * max(1.0, f)
    pts = u + rng.normal(size=(5000, d))
    assert ref.objective(anchors, e, p, pts).min() >= f - 1e-12


def test_duality_gap_bounds_suboptimality():
    rng = np.random.default_rng(4)
    anchors, u, duals, f = ref.planted_instance(rng, 2.0, 2.0, 2, pairs=2)
    away = u + np.array([0.3, -0.2])
    gap = ref.duality_gap(anchors, 2.0, 2.0, away, duals)
    assert gap >= ref.objective(anchors, 2.0, 2.0, away) - f - 1e-12
    # Infeasible blocks are repaired, never trusted: the gap stays an upper bound.
    assert ref.duality_gap(anchors, 2.0, 2.0, away, 3.0 * duals + 0.1) >= ref.objective(
        anchors, 2.0, 2.0, away
    ) - f - 1e-12
