"""JSON (de)serialization of operator specifications.

The document schema (all keys required except psi_radius):

    {
      "n_prime": 1,
      "n_dprime": 1,
      "alpha_prime":  [1],      # strictly positive integers, length n_prime
      "alpha_dprime": [1],      # length n_dprime
      "beta_prime":   [1],      # length n_prime
      "beta_dprime":  [2],      # length n_dprime
      "S": [                    # one polynomial per x''-coordinate
        [ {"coeff": "1",        # integer or exact rational string "p/q"
           "x_prime": [0], "x_dprime": [0], "y_prime": [2]} ]
      ],
      "psi_radius": 0.3         # optional, default 0.3
    }

Unknown keys are rejected; rational coefficients are parsed exactly and
serialized back as canonical strings so round-trips never pass through
floating point.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import SchemaError
from .exponents import DEFAULT_PSI_RADIUS, OperatorSpec
from .polynomials import Monomial, Polynomial
from .scaling import MultiIndex, Weights

_REQUIRED = ("n_prime", "n_dprime", "alpha_prime", "alpha_dprime",
             "beta_prime", "beta_dprime", "S")
_OPTIONAL = ("psi_radius",)
_TERM_KEYS = ("coeff", "x_prime", "x_dprime", "y_prime")


def _int_list(doc, key: str, length: int) -> list[int]:
    val = doc[key]
    if not isinstance(val, list) or len(val) != length \
            or not all(isinstance(v, int) and not isinstance(v, bool)
                       for v in val):
        raise SchemaError(f"{key} must be a list of {length} integers")
    if any(v < 1 for v in val):
        raise SchemaError(f"{key} entries must be >= 1")
    return val


def parse_rational(value) -> Fraction:
    """Exact rational from an int or a 'p/q' (or 'p') string."""
    if isinstance(value, bool):
        raise SchemaError(f"invalid rational {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"invalid rational string {value!r}") from exc
    raise SchemaError(f"invalid rational {value!r} (use int or 'p/q' string)")


def rational_str(q: Fraction) -> str:
    return str(q if isinstance(q, Fraction) else Fraction(q))


def _exp_list(term, key: str, length: int) -> tuple[int, ...]:
    val = term[key]
    if not isinstance(val, list) or len(val) != length \
            or not all(isinstance(v, int) and not isinstance(v, bool)
                       and v >= 0 for v in val):
        raise SchemaError(
            f"term key {key} must be a list of {length} nonnegative integers")
    return tuple(val)


def spec_from_dict(doc: dict) -> OperatorSpec:
    if not isinstance(doc, dict):
        raise SchemaError("spec document must be a JSON object")
    unknown = set(doc) - set(_REQUIRED) - set(_OPTIONAL)
    if unknown:
        raise SchemaError(f"unknown keys in spec document: {sorted(unknown)}")
    missing = [k for k in _REQUIRED if k not in doc]
    if missing:
        raise SchemaError(f"missing keys in spec document: {missing}")
    n_p, n_d = doc["n_prime"], doc["n_dprime"]
    for name, val in (("n_prime", n_p), ("n_dprime", n_d)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise SchemaError(f"{name} must be a positive integer")
    try:
        weights = Weights(MultiIndex(_int_list(doc, "alpha_prime", n_p)),
                          MultiIndex(_int_list(doc, "alpha_dprime", n_d)),
                          MultiIndex(_int_list(doc, "beta_prime", n_p)))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    beta_dd = MultiIndex(_int_list(doc, "beta_dprime", n_d))

    s_doc = doc["S"]
    if not isinstance(s_doc, list) or len(s_doc) != n_d:
        raise SchemaError(f"S must be a list of {n_d} polynomials")
    polys = []
    for l, terms in enumerate(s_doc):
        if not isinstance(terms, list):
            raise SchemaError(f"S[{l}] must be a list of term objects")
        monos = []
        for t, term in enumerate(terms):
            if not isinstance(term, dict) or set(term) != set(_TERM_KEYS):
                raise SchemaError(
                    f"S[{l}][{t}] must be an object with keys {_TERM_KEYS}")
            monos.append(Monomial(parse_rational(term["coeff"]),
                                  _exp_list(term, "x_prime", n_p),
                                  _exp_list(term, "x_dprime", n_d),
                                  _exp_list(term, "y_prime", n_p)))
        polys.append(Polynomial.from_monomials(n_p, n_d, monos))

    psi_radius = doc.get("psi_radius", DEFAULT_PSI_RADIUS)
    if isinstance(psi_radius, bool) or not isinstance(psi_radius, (int, float)) \
            or not 0 < psi_radius <= sys.float_info.max:
        raise SchemaError("psi_radius must be a positive finite number")
    try:
        return OperatorSpec(weights=weights, beta_dprime=beta_dd,
                            s=tuple(polys), psi_radius=float(psi_radius))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def poly_to_terms(poly: Polynomial) -> list[dict]:
    return [{"coeff": rational_str(m.coeff),
             "x_prime": list(m.exp_x),
             "x_dprime": list(m.exp_xx),
             "y_prime": list(m.exp_y)}
            for m in poly.monomials()]


def spec_to_dict(spec: OperatorSpec) -> dict:
    return {
        "n_prime": spec.n_prime,
        "n_dprime": spec.n_dprime,
        "alpha_prime": list(spec.weights.alpha_prime),
        "alpha_dprime": list(spec.weights.alpha_dprime),
        "beta_prime": list(spec.weights.beta_prime),
        "beta_dprime": list(spec.beta_dprime),
        "S": [poly_to_terms(p) for p in spec.s],
        "psi_radius": spec.psi_radius,
    }


def load_spec(path: str | Path) -> OperatorSpec:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SchemaError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"spec file {path} is not valid JSON: {exc}") from exc
    return spec_from_dict(doc)
