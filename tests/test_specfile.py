import json
from fractions import Fraction
from pathlib import Path

import pytest

from anisoradon.errors import SchemaError
from anisoradon.specfile import (load_spec, parse_rational, rational_str,
                                 spec_from_dict, spec_to_dict)

SPECS = Path(__file__).resolve().parent.parent / "specs"


def base_doc():
    return {
        "n_prime": 1, "n_dprime": 1,
        "alpha_prime": [1], "alpha_dprime": [1],
        "beta_prime": [1], "beta_dprime": [2],
        "S": [[{"coeff": "1", "x_prime": [0], "x_dprime": [0],
                "y_prime": [2]}]],
        "psi_radius": 0.3,
    }


def test_round_trip_identity():
    for name in ("reference", "dual_quadratic"):
        doc = spec_to_dict(load_spec(SPECS / f"{name}.json"))
        again = spec_to_dict(spec_from_dict(doc))
        assert doc == again


def test_round_trip_normalizes_rationals():
    doc = base_doc()
    doc["S"][0][0]["coeff"] = "2/4"
    spec = spec_from_dict(doc)
    out = spec_to_dict(spec)
    assert out["S"][0][0]["coeff"] == "1/2"


def test_unknown_keys_rejected():
    doc = base_doc()
    doc["extra"] = 1
    with pytest.raises(SchemaError):
        spec_from_dict(doc)


def test_missing_keys_rejected():
    doc = base_doc()
    del doc["beta_prime"]
    with pytest.raises(SchemaError):
        spec_from_dict(doc)


def test_bad_lengths_rejected():
    doc = base_doc()
    doc["alpha_prime"] = [1, 1]
    with pytest.raises(SchemaError):
        spec_from_dict(doc)


def test_bad_term_keys_rejected():
    doc = base_doc()
    doc["S"][0][0] = {"coeff": 1, "x_prime": [0], "x_dprime": [0]}
    with pytest.raises(SchemaError):
        spec_from_dict(doc)


def test_bad_rational_rejected():
    doc = base_doc()
    doc["S"][0][0]["coeff"] = "1/0"
    with pytest.raises(SchemaError):
        spec_from_dict(doc)
    with pytest.raises(SchemaError):
        parse_rational(1.5)


@pytest.mark.parametrize("radius", ["1" + "0" * 400, "Infinity", "1e400",
                                    "NaN", "0", "-1"])
def test_psi_radius_out_of_range_rejected(tmp_path, radius):
    # json reads Infinity and 1e400 as infinity, and a 401-digit integer
    # exactly, past the largest float
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(base_doc()).replace("0.3", radius))
    with pytest.raises(SchemaError, match="psi_radius"):
        load_spec(path)


def test_nonpositive_weight_rejected():
    doc = base_doc()
    doc["alpha_prime"] = [0]
    with pytest.raises(SchemaError):
        spec_from_dict(doc)


def test_rational_strings():
    assert rational_str(Fraction(3)) == "3"
    assert rational_str(Fraction(-7, 2)) == "-7/2"
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational(4) == 4


def test_save_and_load(tmp_path):
    # a spec file written from spec_to_dict loads back to the same spec
    spec = load_spec(SPECS / "reference.json")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_dict(spec)))
    assert load_spec(path) == spec


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_spec(path)
    with pytest.raises(SchemaError):
        load_spec(tmp_path / "missing.json")
