"""JSON round-trips, float formatting, box parsing, CSV/SVG region output."""

import json
import math

import numpy as np
import pytest

from normmin import (
    Certificate,
    GroundNorm,
    InputFormatError,
    ProblemInstance,
    ProductNorm,
    PsiGenerator,
    certificate_from_json,
    certificate_to_json,
    dump_path,
    dumps,
    generator_from_json,
    generator_to_json,
    ground_norm_from_json,
    ground_norm_to_json,
    instance_from_json,
    instance_to_json,
    load_path,
    parse_box,
    psi_eval,
    psi_eval_many,
    region_csv,
    region_svg,
    validate_psi,
)
from normmin import psi_generators


def test_floats_carry_seventeen_significant_digits():
    text = dumps({"v": 0.1})
    assert "0.10000000000000001" in text
    assert json.loads(text)["v"] == 0.1


def test_dumps_is_deterministic_and_newline_terminated():
    obj = {"b": [1.0, 2.5], "a": {"x": True, "y": None}}
    one = dumps(obj)
    assert one == dumps(obj)
    assert one.endswith("\n")
    assert json.loads(one) == {"b": [1.0, 2.5], "a": {"x": True, "y": None}}


def test_non_finite_floats_rejected():
    with pytest.raises(InputFormatError):
        dumps({"v": math.inf})
    with pytest.raises(InputFormatError):
        dumps({"v": math.nan})


def test_ground_norm_round_trip():
    for nrm in (GroundNorm.sum(), GroundNorm.max(), GroundNorm.euclidean(), GroundNorm.power(3.0)):
        back = ground_norm_from_json(ground_norm_to_json(nrm))
        assert back.kind == nrm.kind
        if nrm.kind == "p":
            assert back.p == nrm.p


def test_generator_round_trip_and_infinity_spelling():
    gen = PsiGenerator.power(math.inf)
    obj = generator_to_json(gen)
    assert obj == {"kind": "p", "p": "inf"}
    assert generator_from_json(obj).p == math.inf
    assert generator_from_json({"kind": "p", "p": "Infinity"}).p == math.inf
    back = generator_from_json({"kind": "p", "p": 1.5})
    assert back.p == 1.5


def test_tabulated_generator_round_trip_via_source_formula():
    loaded = generator_from_json(
        {"kind": "tabulated", "arity": 2, "source": {"kind": "p", "p": 2.0}}
    )
    assert loaded.kind == "tabulated"
    t = np.array([0.3, 0.7])
    assert psi_eval(loaded, t) == pytest.approx(psi_eval(PsiGenerator.power(2.0), t))
    again = generator_from_json(generator_to_json(loaded))
    assert psi_eval(again, t) == pytest.approx(psi_eval(loaded, t))
    for source in ({"kind": "p", "p": 1.5}, {"kind": "p", "p": "inf"}):
        spec = {"kind": "tabulated", "arity": 3, "source": source}
        assert generator_to_json(generator_from_json(spec)) == spec


@pytest.mark.parametrize("arity", [2, 3, 4, 7])
def test_loaded_tabulated_generator_matches_its_formula_bit_for_bit(arity):
    rows = np.random.default_rng(arity).dirichlet(np.ones(arity), size=5000)
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        source = {"kind": "p", "p": "inf" if p == math.inf else p}
        loaded = generator_from_json({"kind": "tabulated", "arity": arity, "source": source})
        vals = psi_eval_many(loaded, rows)
        assert vals.tobytes() == psi_eval_many(PsiGenerator.power(p), rows).tobytes(), p
        # One row at a time, as an opaque callable is evaluated, gives the same bits.
        assert vals.tobytes() == np.array([loaded.func(row) for row in rows]).tobytes(), p


def test_loaded_tabulated_generator_is_validated_a_batch_at_a_time(monkeypatch):
    loaded = generator_from_json(
        {"kind": "tabulated", "arity": 3, "source": {"kind": "p", "p": 2.0}}
    )
    calls = []
    kernel = psi_generators._power_aggregate

    def counting(x, p):
        calls.append(x.shape)
        return kernel(x, p)

    monkeypatch.setattr(psi_generators, "_power_aggregate", counting)
    assert validate_psi(loaded).passed
    # Evaluated row by row, the 9 203 probe rows would make 9 203 calls.
    assert len(calls) <= 5


def test_tabulated_without_source_refuses_to_serialize():
    raw = PsiGenerator.tabulated(lambda t: float(np.max(t)), arity=2, symmetric=True)
    with pytest.raises(InputFormatError):
        generator_to_json(raw)


def test_instance_round_trip(tmp_path):
    prob = ProblemInstance(
        anchors=np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]]),
        norm=ProductNorm(GroundNorm.power(3.0), PsiGenerator.power(1.5)),
    )
    path = tmp_path / "instance.json"
    dump_path(instance_to_json(prob), path)
    back = instance_from_json(load_path(path))
    assert np.array_equal(back.anchors, prob.anchors)
    assert back.norm.ground.kind == "p" and back.norm.ground.p == 3.0
    assert back.norm.generator.p == 1.5


def test_certificate_round_trip():
    cert = Certificate(
        solution=np.array([1.0, 0.0]),
        duals=np.array([[0.5, 0.0], [-0.5, 0.0]]),
    )
    back = certificate_from_json(certificate_to_json(cert))
    assert np.array_equal(back.solution, cert.solution)
    assert np.array_equal(back.duals, cert.duals)


def test_schema_errors_name_the_field():
    with pytest.raises(InputFormatError) as exc:
        instance_from_json({"ground": {"kind": "max"}, "generator": {"kind": "p", "p": 1.0}})
    assert "anchors" in exc.value.field

    with pytest.raises(InputFormatError) as exc2:
        ground_norm_from_json({"kind": "taxicab"})
    assert exc2.value.field.endswith("kind")

    with pytest.raises(InputFormatError):
        generator_from_json({"kind": "p", "p": "three"})

    with pytest.raises(InputFormatError):
        certificate_from_json({"solution": [0.0], "duals": "nope"})


def test_parse_box():
    box = parse_box("-3,3,-3,3", 2)
    assert np.array_equal(box, np.array([[-3.0, 3.0], [-3.0, 3.0]]))
    with pytest.raises(InputFormatError):
        parse_box("1,2,3", 2)
    with pytest.raises(InputFormatError):
        parse_box("a,b,c,d", 2)
    for text in ("nan,3,-3,3", "-3,3,-3,inf", "-inf,3,-3,3"):
        with pytest.raises(InputFormatError, match="finite"):
            parse_box(text, 2)


def test_region_csv_headers_and_rows():
    pts = np.array([[0.5, 1.0]])
    out = region_csv(pts, 2)
    lines = out.strip().split("\n")
    assert lines[0] == "x,y,member"
    assert lines[1].endswith(",1")
    assert lines[1].startswith("0.5,")

    out3 = region_csv(np.array([[0.0, 0.0, 0.0]]), 3)
    assert out3.split("\n")[0] == "x0,x1,x2,member"


def test_region_svg_shape_markup():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    anchors = np.array([[0.0, 0.0], [2.0, 0.0]])
    box = np.array([[-3.0, 3.0], [-3.0, 3.0]])
    svg = region_svg(pts, anchors, box, grid=61)
    assert svg.startswith("<svg")
    assert svg.count("<rect") == 3  # background plus one square per accepted point
    assert svg.count("<circle") == 2
    assert svg == region_svg(pts, anchors, box, grid=61)
