"""Built-in catalog of worked braided vector spaces.

Each entry bundles a set solution, a parameter family for the braiding
coefficients with its validity and finiteness constraints, a documented
default parameter point, the expected total dimension at that point, and the
published defining relations.  Parameter overrides re-validate the
constraints; the coefficient table itself is hexagon-validated on build.

Names: z2-shift, z3-shift, z4-shift1, z4-shift2 (cyclic-shift permutation
solutions), x4-sigma (a non-cyclic involutive solution on four points), and
w1 .. w8 (the eight 72-dimensional rack-type braidings on four points; these
underlying solutions are non-involutive).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .exact import CycloElement
from .nichols import CoefficientSystem, validate_coefficients
from .orbits import psi
from .ybe import SetSolution, cached_report


class UnknownName(KeyError):
    """No catalog entry under that name."""


class ConstraintViolation(ValueError):
    """A parameter override breaks the entry's validity constraints."""


def parse_scalar(text: str) -> CycloElement:
    """Parse "zetaN", "zetaN^k", "-zetaN^k" (N >= 1) or a rational like "-1",
    "2/3"; ValueError quoting the text as given otherwise."""
    given = text
    text = text.strip()
    sign = 1
    if text.startswith("-") and "zeta" in text:
        sign = -1
        text = text[1:]
    match = re.fullmatch(r"zeta(\d+)(?:\^(-?\d+))?", text)
    if match and int(match.group(1)) >= 1:
        order = int(match.group(1))
        power = int(match.group(2)) if match.group(2) else 1
        value = CycloElement.zeta(order) ** power
        return value * sign if sign < 0 else value
    try:
        return CycloElement.from_rational(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse scalar {given!r}") from exc


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    notes: str
    solution: SetSolution
    params: dict
    system: CoefficientSystem
    involutive: bool
    point_ok: bool  # the documented finiteness constraints hold at params
    expected_total: int | None
    expected_note: str
    relations: tuple  # ((label, ((coeff, word), ...)), ...)


# ---------------------------------------------------------------------------
# entry specifications


def _one(order: int = 1) -> CycloElement:
    return CycloElement.one(order)


_MINUS1 = CycloElement.zeta(2)
_ZETA3 = CycloElement.zeta(3)


def _q_order(q: CycloElement) -> int | None:
    n = q.multiplicative_order()
    return n if n is not None and n >= 2 else None


def _psi_relations(P, s) -> list:
    """One relation Psi_n(i) per generator when q has finite order n >= 2."""
    n = _q_order(P["q"])
    one = P["q"] ** 0
    words = [psi(n, i, s) for i in range(s.size)] if n else []
    return [(_word_label(word), ((one, word),)) for word in words]


def _nm_expected(m: int):
    """The expected total n^m of an m-point entry with q of order n."""

    def expected(P):
        n = _q_order(P["q"])
        if n is None:
            return None, f"q has infinite order: polynomial growth of degree {m - 1}"
        return n ** m, f"n^m with n={n}, m={m}"

    return expected


class _Spec:
    """One catalog family: solution + parametrized coefficient table."""

    def __init__(
        self,
        name,
        notes,
        defaults,
        solution_builder,
        table_builder,
        family_constraints,
        point_constraints,
        relations_builder,
        expected_builder,
    ):
        self.name = name
        self.notes = notes
        self.defaults = defaults
        self.solution_builder = solution_builder
        self.table_builder = table_builder
        self.family_constraints = family_constraints
        self.point_constraints = point_constraints
        self.relations_builder = relations_builder
        self.expected_builder = expected_builder


def _coerce_params(spec: _Spec, overrides) -> dict:
    params = dict(spec.defaults)
    if overrides:
        for key, value in overrides.items():
            if key not in params:
                raise ConstraintViolation(
                    f"{spec.name} has no parameter {key!r}; known: {sorted(params)}"
                )
            if not isinstance(value, CycloElement):
                value = parse_scalar(str(value))
            params[key] = value
    order = reduce(math.lcm, (v.order for v in params.values()), 1)
    return {k: v.to_order(order) for k, v in params.items()}


def build_entry(name: str, overrides=None) -> CatalogEntry:
    """Instantiate a catalog entry, re-validating all constraints."""
    spec = _spec_for(name)
    params = _coerce_params(spec, overrides)
    for desc, check in spec.family_constraints:
        if not check(params):
            raise ConstraintViolation(f"{spec.name}: constraint violated: {desc}")
    solution = spec.solution_builder()
    table = spec.table_builder(params)
    system = validate_coefficients(solution, table)
    involutive = cached_report(solution).is_involutive
    point_ok = all(check(params) for _, check in spec.point_constraints)
    expected_total, expected_note = (
        spec.expected_builder(params) if point_ok else (None, "off the documented point")
    )
    relations = tuple(spec.relations_builder(params, solution)) if point_ok else ()
    return CatalogEntry(
        name=spec.name,
        notes=spec.notes,
        solution=solution,
        params=params,
        system=system,
        involutive=involutive,
        point_ok=point_ok,
        expected_total=expected_total,
        expected_note=expected_note,
        relations=relations,
    )


# -- cyclic shift entries


def _z2_table(P):
    a, e, q = P["a"], P["e"], P["q"]
    return [[a, q], [q, e]]


def _z2_relations(P, s):
    a, e, q = P["a"], P["e"], P["q"]
    one = q ** 0
    return [
        ("w0^2 - a w1^2", ((one, (0, 0)), (-a, (1, 1)))),
        ("w1^2 - e w0^2", ((one, (1, 1)), (-e, (0, 0)))),
    ] + _psi_relations(P, s)


def _z3_table(P):
    a, d, e, f, q = P["a"], P["d"], P["e"], P["f"], P["q"]
    return [
        [a, q, d],
        [e, f, q],
        [q, d * f / a, d * f / e],
    ]


def _z3_relations(P, s):
    a, d, e, q = P["a"], P["d"], P["e"], P["q"]
    one = q ** 0
    return [
        ("w0^2 - a w2 w1", ((one, (0, 0)), (-a, (2, 1)))),
        ("w0 w2 - d w1^2", ((one, (0, 2)), (-d, (1, 1)))),
        ("w1 w0 - e w2^2", ((one, (1, 0)), (-e, (2, 2)))),
    ] + _psi_relations(P, s)


def _z4s1_table(P):
    q = P["q"]
    x1, x2, x3, x4, x5, x6 = (P[f"x{i}"] for i in range(1, 7))
    return [
        [x1, q, x2, x3],
        [x4, x5, q, x6],
        [x2 * x4 / x3, x2 * x4 * x5 / (x1 * x6), x2 * x5 / x6, q],
        [q, x2 * x5 / x1, x2 * x3 * x5 / (x1 * x6), x3 * x5 / x4],
    ]


def _z4s1_relations(P, s):
    q = P["q"]
    x1, x2, x3, x4, x6 = P["x1"], P["x2"], P["x3"], P["x4"], P["x6"]
    one = q ** 0
    return [
        ("w0^2 - x1 w3 w1", ((one, (0, 0)), (-x1, (3, 1)))),
        ("w0 w2 - x2 w1^2", ((one, (0, 2)), (-x2, (1, 1)))),
        ("w0 w3 - x3 w2 w1", ((one, (0, 3)), (-x3, (2, 1)))),
        ("w1 w0 - x4 w3 w2", ((one, (1, 0)), (-x4, (3, 2)))),
        ("w1 w3 - x6 w2^2", ((one, (1, 3)), (-x6, (2, 2)))),
        ("w2 w0 - (x2 x4 / x3) w3^2", ((one, (2, 0)), (-(P["x2"] * x4 / x3), (3, 3)))),
    ] + _psi_relations(P, s)


def _z4s2_table(P):
    q1, q2 = P["q1"], P["q2"]
    x1, x2, x3, x4, x5, x6, x7, x9 = (
        P["x1"], P["x2"], P["x3"], P["x4"], P["x5"], P["x6"], P["x7"], P["x9"],
    )
    return [
        [x1, x2, q1, x3],
        [x4, x5, x6, q2],
        [q1, x7, x1 * x7 * x9 / (x2 * x3), x9],
        [x3 * x6 / x7, q2, x4 * x9 / x2, x3 * x5 * x9 / (x2 * x7)],
    ]


def _z4s2_relations(P):
    q1, q2 = P["q1"], P["q2"]
    x1, x2, x3, x4, x5, x7 = P["x1"], P["x2"], P["x3"], P["x4"], P["x5"], P["x7"]
    one = q1 ** 0
    rels = [
        ("w0^2 - x1 w2^2", ((one, (0, 0)), (-x1, (2, 2)))),
        ("w0 w1 - x2 w3 w2", ((one, (0, 1)), (-x2, (3, 2)))),
        ("w0 w3 - x3 w1 w2", ((one, (0, 3)), (-x3, (1, 2)))),
        ("w1 w0 - x4 w2 w3", ((one, (1, 0)), (-x4, (2, 3)))),
        ("w2 w1 - x7 w3 w0", ((one, (2, 1)), (-x7, (3, 0)))),
        ("w1^2 - x5 w3^2", ((one, (1, 1)), (-x5, (3, 3)))),
    ]
    n1, n2 = _q_order(q1), _q_order(q2)
    if n1:
        for start in (0, 2):
            word = tuple((start + 2 * t) % 4 for t in range(n1))
            rels.append((_word_label(word), ((one, word),)))
    if n2:
        for start in (1, 3):
            word = tuple((start + 2 * t) % 4 for t in range(n2))
            rels.append((_word_label(word), ((one, word),)))
    return rels


def _z4s2_expected(P):
    n1, n2 = _q_order(P["q1"]), _q_order(P["q2"])
    if n1 is None or n2 is None:
        return None, "a part's q has infinite order"
    return n1 ** 2 * n2 ** 2, f"n1^2 n2^2 with n1={n1}, n2={n2}"


# -- the non-cyclic involutive solution on four points

_X4_SIGMA = ((0, 1, 3, 2), (2, 3, 1, 0), (3, 2, 0, 1), (1, 0, 2, 3))
_X4_TAU = ((0, 3, 2, 1), (3, 0, 1, 2), (1, 2, 3, 0), (2, 1, 0, 3))


def _x4_solution() -> SetSolution:
    return SetSolution.from_maps(_X4_SIGMA, _X4_TAU)


def _x4_table(P):
    q = P["q"]
    x2, x3, x4, x5, x6, x8 = (
        P["x2"], P["x3"], P["x4"], P["x5"], P["x6"], P["x8"],
    )
    return [
        [q, x2, x3, x4],
        [x5, x6, q, x8],
        [x5 * x5 * x8 / (x4 * x6), q, x3 * x5 * x8 / (x2 * x4), x3 * x8 / x2],
        [x3 * x5 * x8 / (x2 * x6), x5 * x8 / x2, x2 * x4 * x6 / (x5 * x5), q],
    ]


def _x4_relations(P, s):
    q = P["q"]
    x2, x3, x4, x5, x6 = P["x2"], P["x3"], P["x4"], P["x5"], P["x6"]
    one = q ** 0
    return [
        ("w0 w1 - x2 w1 w3", ((one, (0, 1)), (-x2, (1, 3)))),
        ("w0 w2 - x3 w3 w1", ((one, (0, 2)), (-x3, (3, 1)))),
        ("w0 w3 - x4 w2^2", ((one, (0, 3)), (-x4, (2, 2)))),
        ("w1 w0 - x5 w2 w3", ((one, (1, 0)), (-x5, (2, 3)))),
        ("w1^2 - x6 w3 w0", ((one, (1, 1)), (-x6, (3, 0)))),
        (
            "w2 w0 - (x5^2/(x2 x4 x6)) w3 w2",
            ((one, (2, 0)), (-(x5 * x5 / (x2 * x4 * x6)), (3, 2))),
        ),
    ] + _psi_relations(P, s)


# -- the eight 72-dimensional rack-type braidings
#
# Tables are transcribed with the printed 1-based indices:
# (i, j, coefficient, (target_left, target_right)) encodes
# c(w_i (x) w_j) = coefficient * w_target_left (x) w_target_right.


def _w1_rows(P):
    q, x2, x3, x7, x8 = P["q"], P["x2"], P["x3"], P["x7"], P["x8"]
    return [
        (1, 1, q, (1, 1)),
        (1, 2, x2, (3, 1)),
        (1, 3, x3, (4, 1)),
        (1, 4, q ** 3 / (x2 * x3), (2, 1)),
        (2, 1, q ** 3 / (x7 * x8), (4, 2)),
        (2, 2, q, (2, 2)),
        (2, 3, x7, (1, 2)),
        (2, 4, x8, (3, 2)),
        (3, 1, q ** 5 / (x2 * x3 * x7 * x8), (2, 3)),
        (3, 2, q * x2 / x8, (4, 3)),
        (3, 3, q, (3, 3)),
        (3, 4, q * x7 / x3, (1, 3)),
        (4, 1, q ** 4 / (x3 * x7 * x8), (3, 4)),
        (4, 2, x2 * x7 / q, (1, 4)),
        (4, 3, q ** 4 / (x2 * x3 * x8), (2, 4)),
        (4, 4, q, (4, 4)),
    ]


def _w1_relations(P):
    q, x2, x3, x7, x8 = P["q"], P["x2"], P["x3"], P["x7"], P["x8"]
    one = q ** 0
    return [
        ("w0^2", ((one, (0, 0)),)),
        ("w1^2", ((one, (1, 1)),)),
        ("w2^2", ((one, (2, 2)),)),
        ("w3^2", ((one, (3, 3)),)),
        (
            "w0 w3 + (x2 x3)^-1 w1 w0 + (x2 x7)^-1 w3 w1",
            ((one, (0, 3)), ((x2 * x3).inverse(), (1, 0)), ((x2 * x7).inverse(), (3, 1))),
        ),
        (
            "w0 w2 - x3 w3 w0 + (x3/x7) w2 w3",
            ((one, (0, 2)), (-x3, (3, 0)), (x3 / x7, (2, 3))),
        ),
        (
            "w0 w1 - x2 w2 w0 - x7^-1 w1 w2",
            ((one, (0, 1)), (-x2, (2, 0)), (-(x7.inverse()), (1, 2))),
        ),
        (
            "w1 w3 - x8 w2 w1 - x2 w3 w2",
            ((one, (1, 3)), (-x8, (2, 1)), (-x2, (3, 2))),
        ),
        (
            "(w2 w1 w0)^2 + (w1 w0 w2)^2 + (w0 w2 w1)^2",
            (
                (one, (2, 1, 0, 2, 1, 0)),
                (one, (1, 0, 2, 1, 0, 2)),
                (one, (0, 2, 1, 0, 2, 1)),
            ),
        ),
    ]


def _w2_rows(P):
    q = P["q"]
    x2, x3, x4, x5, x7, x9 = P["x2"], P["x3"], P["x4"], P["x5"], P["x7"], P["x9"]
    return [
        (1, 1, q, (1, 1)),
        (1, 2, x2, (3, 4)),
        (1, 3, x3, (4, 2)),
        (1, 4, x4, (2, 3)),
        (2, 1, x5, (1, 2)),
        (2, 2, x2 * x4 * x7 / (x3 * x5), (3, 3)),
        (2, 3, x7, (4, 1)),
        (2, 4, q, (2, 4)),
        (3, 1, x9, (1, 3)),
        (3, 2, q, (3, 2)),
        (3, 3, x3 * x7 / q, (4, 4)),
        (3, 4, q * x4 * x7 / (x2 * x9), (2, 1)),
        (4, 1, x5 * x9 / q, (1, 4)),
        (4, 2, q * x4 * x7 / (x3 * x5), (3, 1)),
        (4, 3, q, (4, 3)),
        (4, 4, x4 * x4 * x7 / (x2 * x9), (2, 2)),
    ]


def _w2_relations(P):
    q = P["q"]
    x2, x3, x4, x5, x7, x9 = P["x2"], P["x3"], P["x4"], P["x5"], P["x7"], P["x9"]
    one = q ** 0
    return [
        ("w0^2", ((one, (0, 0)),)),
        ("w1 w3", ((one, (1, 3)),)),
        ("w2 w1", ((one, (2, 1)),)),
        ("w3 w2", ((one, (3, 2)),)),
        (
            "w0 w1 - x2 w2 w3 - x5^-1 w1 w0",
            ((one, (0, 1)), (-x2, (2, 3)), (-(x5.inverse()), (1, 0))),
        ),
        (
            "w0 w2 - x3 w3 w1 - x9^-1 w2 w0",
            ((one, (0, 2)), (-x3, (3, 1)), (-(x9.inverse()), (2, 0))),
        ),
        (
            "w0 w3 - x4 w1 w2 + x4 x7 w3 w0",
            ((one, (0, 3)), (-x4, (1, 2)), (x4 * x7, (3, 0))),
        ),
        (
            "w2^2 + x3 x7 w3^2 - x3 (x2 x9)^-1 w1^2",
            ((one, (2, 2)), (x3 * x7, (3, 3)), (-(x3 / (x2 * x9)), (1, 1))),
        ),
        (
            "x4 w2w0w1w0w1w2 + (x3 x4/x2)[(w1w1w0)^2 + (w0w1w1)^2] + w0w2w0w1w0w3",
            (
                (x4, (2, 0, 1, 0, 1, 2)),
                (x3 * x4 / x2, (1, 1, 0, 1, 1, 0)),
                (x3 * x4 / x2, (0, 1, 1, 0, 1, 1)),
                (one, (0, 2, 0, 1, 0, 3)),
            ),
        ),
    ]


def _w3_rows(P):
    q = P["q"]
    x3, x4, x6, x7 = P["x3"], P["x4"], P["x6"], P["x7"]
    return [
        (1, 1, q, (1, 1)),
        (1, 2, q ** 3 / (x3 * x4), (4, 1)),
        (1, 3, x3, (2, 1)),
        (1, 4, x4, (3, 1)),
        (2, 1, x7 ** 3 / (q * x6), (4, 4)),
        (2, 2, x6, (1, 4)),
        (2, 3, x7, (3, 4)),
        (2, 4, q, (2, 4)),
        (3, 1, x3 * x7 / x6, (2, 2)),
        (3, 2, q, (3, 2)),
        (3, 3, q ** 2 * x3 * x6 / (x4 * x7 ** 2), (1, 2)),
        (3, 4, x3 ** 2 * x4 * x7 / q ** 3, (4, 2)),
        (4, 1, q * x4 * x7 / (x3 * x6), (3, 3)),
        (4, 2, x3 * x4 ** 2 * x7 / q ** 3, (2, 3)),
        (4, 3, q, (4, 3)),
        (4, 4, q * x4 * x6 / x7 ** 2, (1, 3)),
    ]


def _w3_relations(P):
    q = P["q"]
    x3, x4, x6, x7 = P["x3"], P["x4"], P["x6"], P["x7"]
    one = q ** 0
    return [
        ("w0^2", ((one, (0, 0)),)),
        ("w1 w3", ((one, (1, 3)),)),
        ("w2 w1", ((one, (2, 1)),)),
        ("w3 w2", ((one, (3, 2)),)),
        (
            "w3 w0 - x7^-1 w0 w1 - x3^-2 x6^-1 w2^2",
            ((one, (3, 0)), (-(x7.inverse()), (0, 1)), (-((x3 * x3 * x6).inverse()), (2, 2))),
        ),
        (
            "w0 w2 - x3 w1 w0 - x3 x7^3 x6^-1 w3^2",
            ((one, (0, 2)), (-x3, (1, 0)), (-(x3 * x7 ** 3 / x6), (3, 3))),
        ),
        (
            "w0 w3 - x4 w2 w0 - x6^-1 w1^2",
            ((one, (0, 3)), (-x4, (2, 0)), (-(x6.inverse()), (1, 1))),
        ),
        (
            "w1 w2 - x7 w2 w3 + x3 x7 w3 w1",
            ((one, (1, 2)), (-x7, (2, 3)), (x3 * x7, (3, 1))),
        ),
        (
            "x3^6 w1^6 + w2^6 - x3^6 x4 x6 w0 w1^4 w2 + x3^9 x4^3 x6^3 (w1 w0)^3",
            (
                (x3 ** 6, (1, 1, 1, 1, 1, 1)),
                (one, (2, 2, 2, 2, 2, 2)),
                (-(x3 ** 6 * x4 * x6), (0, 1, 1, 1, 1, 2)),
                (x3 ** 9 * x4 ** 3 * x6 ** 3, (1, 0, 1, 0, 1, 0)),
            ),
        ),
    ]


def _w4_rows(P):
    q = P["q"]
    x3, x4, x5, x6 = P["x3"], P["x4"], P["x5"], P["x6"]
    return [
        (1, 1, q, (1, 1)),
        (1, 2, x3 ** 2 * x4 * x5 * x6 ** 2 / q ** 5, (4, 4)),
        (1, 3, x3, (2, 2)),
        (1, 4, x4, (3, 3)),
        (2, 1, x5, (1, 4)),
        (2, 2, x6, (4, 1)),
        (2, 3, q, (2, 3)),
        (2, 4, q ** 3 / (x3 * x6), (3, 2)),
        (3, 1, q ** 4 * x5 / (x3 * x4 * x6 ** 2), (1, 2)),
        (3, 2, x3 ** 2 * x4 * x6 ** 3 / (q ** 4 * x5), (4, 3)),
        (3, 3, q ** 7 * x5 / (x3 ** 2 * x4 ** 2 * x6 ** 3), (2, 1)),
        (3, 4, q, (3, 4)),
        (4, 1, q ** 7 * x5 ** 2 / (x3 ** 3 * x4 * x6 ** 4), (1, 3)),
        (4, 2, q, (4, 2)),
        (4, 3, x3 * x6 / x5, (2, 4)),
        (4, 4, q ** 8 / (x3 ** 3 * x4 * x6 ** 3), (3, 1)),
    ]


def _w4_relations(P):
    q = P["q"]
    x3, x4, x5, x6 = P["x3"], P["x4"], P["x5"], P["x6"]
    one = q ** 0
    return [
        ("w0^2", ((one, (0, 0)),)),
        ("w1 w2", ((one, (1, 2)),)),
        ("w2 w3", ((one, (2, 3)),)),
        ("w3 w1", ((one, (3, 1)),)),
        (
            "w0 w1 + x5^3 x6^-1 w3^2 - x3 x4 x6^2 x5^-1 w2 w0",
            ((one, (0, 1)), (x5 ** 3 / x6, (3, 3)), (-(x3 * x4 * x6 ** 2 / x5), (2, 0))),
        ),
        (
            "w0 w2 - x3 w1^2 + x3 x6 w3 w0",
            ((one, (0, 2)), (-x3, (1, 1)), (x3 * x6, (3, 0))),
        ),
        (
            "w1 w0 - x5 w0 w3 + x4 x5 w2^2",
            ((one, (1, 0)), (-x5, (0, 3)), (x4 * x5, (2, 2))),
        ),
        (
            "w2 w1 + x3 x6 w1 w3 - x5 w3 w2",
            ((one, (2, 1)), (x3 * x6, (1, 3)), (-x5, (3, 2))),
        ),
        (
            "w1^6 + x3^-3 (w2 w0)^3 - x6^3 x5^-3 (w0 w1)^3 + x6 w0 w1^4 w3 - x6^3 x5^-3 (w1 w0)^3",
            (
                (one, (1, 1, 1, 1, 1, 1)),
                ((x3 ** 3).inverse(), (2, 0, 2, 0, 2, 0)),
                (-(x6 ** 3 / x5 ** 3), (0, 1, 0, 1, 0, 1)),
                (x6, (0, 1, 1, 1, 1, 3)),
                (-(x6 ** 3 / x5 ** 3), (1, 0, 1, 0, 1, 0)),
            ),
        ),
    ]


def _w5_rows(P):
    q = P["q"]
    x2, x3, x4, x5, x6, x8 = P["x2"], P["x3"], P["x4"], P["x5"], P["x6"], P["x8"]
    return [
        (1, 1, q, (1, 1)),
        (1, 2, x3 * x4 / q, (2, 1)),
        (1, 3, x3, (3, 1)),
        (1, 4, x4, (4, 1)),
        (2, 1, x5, (4, 3)),
        (2, 2, x5 * x8 / q, (3, 3)),
        (2, 3, q, (2, 3)),
        (2, 4, x8, (1, 3)),
        (3, 1, q * x5 * x6 / (x4 * x8), (2, 4)),
        (3, 2, q ** 2 * x3 / (x2 * x5), (1, 4)),
        (3, 3, q ** 2 * x3 * x6 / (x2 * x4 * x8), (4, 4)),
        (3, 4, q, (3, 4)),
        (4, 1, q * x2 / x6, (3, 2)),
        (4, 2, q, (4, 2)),
        (4, 3, x6, (1, 2)),
        (4, 4, x2, (2, 2)),
    ]


def _w5_relations(P):
    q = P["q"]
    x2, x3, x4, x5, x8 = P["x2"], P["x3"], P["x4"], P["x5"], P["x8"]
    one = q ** 0
    x6 = P["x6"]
    return [
        ("w0^2", ((one, (0, 0)),)),
        ("w1 w2", ((one, (1, 2)),)),
        ("w2 w3", ((one, (2, 3)),)),
        ("w3 w1", ((one, (3, 1)),)),
        (
            "w1 w0 + x5 x6 w0 w1 - x5 w3 w2",
            ((one, (1, 0)), (x5 * x6, (0, 1)), (-x5, (3, 2))),
        ),
        (
            "w1 w3 - x8 w0 w2 + x3 x8 w2 w0",
            ((one, (1, 3)), (-x8, (0, 2)), (x3 * x8, (2, 0))),
        ),
        (
            "w0 w3 - x4 w3 w0 - x2 x5 x3^-1 w2 w1",
            ((one, (0, 3)), (-x4, (3, 0)), (-(x2 * x5 / x3), (2, 1))),
        ),
        (
            "w3^2 - x2 w1^2 - x2 x5 x8 w2^2",
            ((one, (3, 3)), (-x2, (1, 1)), (-(x2 * x5 * x8), (2, 2))),
        ),
        (
            "(w0w1w1)^2 - x5 x8 x3^-1 w0w2w1^2w0w2 + (w1w1w0)^2 + x5 w2w1^2w0w1w3",
            (
                (one, (0, 1, 1, 0, 1, 1)),
                (-(x5 * x8 / x3), (0, 2, 1, 1, 0, 2)),
                (one, (1, 1, 0, 1, 1, 0)),
                (x5, (2, 1, 1, 0, 1, 3)),
            ),
        ),
    ]


def _w6_rows(P):
    q = P["q"]
    x1, x2, x3, x5 = P["x1"], P["x2"], P["x3"], P["x5"]
    return [
        (1, 1, q, (1, 1)),
        (1, 2, q ** 3 / (x2 * x3), (2, 4)),
        (1, 3, x1, (3, 2)),
        (1, 4, x5, (4, 3)),
        (2, 1, q * x5 / x1, (1, 3)),
        (2, 2, q, (2, 2)),
        (2, 3, q ** 2 * x5 / (x1 * x2), (3, 4)),
        (2, 4, x3 * x5 / x1, (4, 1)),
        (3, 1, x3 * x5 / x2, (1, 4)),
        (3, 2, x3, (2, 1)),
        (3, 3, q, (3, 3)),
        (3, 4, x1 * x3 / q, (4, 2)),
        (4, 1, x1 * x2 * x3 / q ** 2, (1, 2)),
        (4, 2, x2, (2, 3)),
        (4, 3, q * x2 / x5, (3, 1)),
        (4, 4, q, (4, 4)),
    ]


def _w6_relations(P):
    q = P["q"]
    x1, x2, x3, x5 = P["x1"], P["x2"], P["x3"], P["x5"]
    one = q ** 0
    return [
        ("w0^2", ((one, (0, 0)),)),
        ("w1^2", ((one, (1, 1)),)),
        ("w2^2", ((one, (2, 2)),)),
        ("w3^2", ((one, (3, 3)),)),
        (
            "w3 w0 - x1 x2 x3 w0 w1 - x1 w1 w3",
            ((one, (3, 0)), (-(x1 * x2 * x3), (0, 1)), (-x1, (1, 3))),
        ),
        (
            "w0 w2 - x1 w2 w1 + x1 x3 w1 w0",
            ((one, (0, 2)), (-x1, (2, 1)), (x1 * x3, (1, 0))),
        ),
        (
            "w2 w3 - x1 x2 x3 w1 w2 + x1 x3 w3 w1",
            ((one, (2, 3)), (-(x1 * x2 * x3), (1, 2)), (x1 * x3, (3, 1))),
        ),
        (
            "w0 w3 - x5 w3 w2 - x2 w2 w0",
            ((one, (0, 3)), (-x5, (3, 2)), (-x2, (2, 0))),
        ),
        (
            "(w1 w0 w3)^2 + (w0 w3 w1)^2 + (w3 w1 w0)^2",
            (
                (one, (1, 0, 3, 1, 0, 3)),
                (one, (0, 3, 1, 0, 3, 1)),
                (one, (3, 1, 0, 3, 1, 0)),
            ),
        ),
    ]


def _w7_rows(P):
    q = P["q"]
    x1, x2, x3, x7 = P["x1"], P["x2"], P["x3"], P["x7"]
    return [
        (1, 1, x1, (3, 2)),
        (1, 2, q, (1, 2)),
        (1, 3, x3, (2, 2)),
        (1, 4, x1 * x3 * x7 ** 2 / q ** 3, (4, 2)),
        (2, 1, q, (2, 1)),
        (2, 2, x1 * x7 ** 2 / (x2 * x3), (4, 1)),
        (2, 3, x7, (3, 1)),
        (2, 4, x2 * x3 * x7 / (q * x1), (1, 1)),
        (3, 1, x1 ** 3 * x7 ** 5 / (q ** 5 * x2 ** 2), (4, 4)),
        (3, 2, x1 * x7 ** 2 / (q * x2), (2, 4)),
        (3, 3, q * x7 / x2, (1, 4)),
        (3, 4, q, (3, 4)),
        (4, 1, x2 * x3 * x7 / q ** 2, (1, 3)),
        (4, 2, x2, (3, 3)),
        (4, 3, q, (4, 3)),
        (4, 4, q ** 3 * x2 ** 2 * x3 / (x1 ** 2 * x7 ** 3), (2, 3)),
    ]


def _w7_relations(P):
    q = P["q"]
    x1, x2, x3, x7 = P["x1"], P["x2"], P["x3"], P["x7"]
    one = q ** 0
    return [
        (
            "w3 w1 - x7 w0 w3 - x2 w2^2",
            ((one, (3, 1)), (-x7, (0, 3)), (-x2, (2, 2))),
        ),
        (
            "w0^2 - x1 w2 w1 + x1 (x2 x3 x7)^-1 w1 w3",
            ((one, (0, 0)), (-x1, (2, 1)), (x1 / (x2 * x3 * x7), (1, 3))),
        ),
        ("w0 w1", ((one, (0, 1)),)),
        ("w1 w0", ((one, (1, 0)),)),
        ("w2 w3", ((one, (2, 3)),)),
        ("w3 w2", ((one, (3, 2)),)),
        (
            "w0 w2 - x3 w1^2 - (x2 x3 x7)^-1 w3 w0",
            ((one, (0, 2)), (-x3, (1, 1)), (-((x2 * x3 * x7).inverse()), (3, 0))),
        ),
        (
            "w1 w2 - x7 w2 w0 + x2^-2 x3^-3 x7^-3 w3^2",
            (
                (one, (1, 2)),
                (-x7, (2, 0)),
                ((x2 ** 2 * x3 ** 3 * x7 ** 3).inverse(), (3, 3)),
            ),
        ),
        (
            "(w0^2 w2)^2 + (w0w2w0)^2 + x1 x2^-1 w1^2w2w0^2w3 + x1 w1w2w0^2w2^2 + (w2w0^2)^2",
            (
                (one, (0, 0, 2, 0, 0, 2)),
                (one, (0, 2, 0, 0, 2, 0)),
                (x1 / x2, (1, 1, 2, 0, 0, 3)),
                (x1, (1, 2, 0, 0, 2, 2)),
                (one, (2, 0, 0, 2, 0, 0)),
            ),
        ),
    ]


def _w8_rows(P):
    q = P["q"]
    x1, x3, x4, x7 = P["x1"], P["x3"], P["x4"], P["x7"]
    return [
        (1, 1, x1, (2, 3)),
        (1, 2, q, (1, 2)),
        (1, 3, x3, (4, 4)),
        (1, 4, x4, (3, 1)),
        (2, 1, q, (2, 1)),
        (2, 2, x3 ** 3 * x4 ** 3 / (q * x1 ** 2 * x7 ** 2), (1, 4)),
        (2, 3, x7, (4, 2)),
        (2, 4, x3 ** 2 * x4 ** 4 / (q ** 3 * x1 * x7), (3, 3)),
        (3, 1, q ** 2 * x1 ** 2 * x7 ** 3 / (x3 ** 3 * x4 ** 3), (2, 2)),
        (3, 2, x3 * x4 ** 2 / (q * x1), (1, 3)),
        (3, 3, q ** 3 * x7 / (x3 * x4 ** 2), (4, 1)),
        (3, 4, q, (3, 4)),
        (4, 1, q * x1 * x7 / (x3 * x4), (2, 4)),
        (4, 2, q * x4 / x1, (1, 1)),
        (4, 3, q, (4, 3)),
        (4, 4, q ** 2 * x1 * x7 / (x3 ** 2 * x4), (3, 2)),
    ]


def _w8_relations(P):
    q = P["q"]
    x1, x3, x7 = P["x1"], P["x3"], P["x7"]
    one = q ** 0
    return [
        ("w0 w1", ((one, (0, 1)),)),
        ("w1 w0", ((one, (1, 0)),)),
        ("w2 w3", ((one, (2, 3)),)),
        ("w3 w2", ((one, (3, 2)),)),
        (
            "w0^2 - x1 w1 w2 + x1 x7 w3 w1",
            ((one, (0, 0)), (-x1, (1, 2)), (x1 * x7, (3, 1))),
        ),
        (
            "w0 w2 - x3 w3^2 + x1 x7^2 x3^-1 w2 w1",
            ((one, (0, 2)), (-x3, (3, 3)), (x1 * x7 ** 2 / x3, (2, 1))),
        ),
        (
            "w0 w3 - x7^-1 w2 w0 + x1^2 x7^5 x3^-3 w1^2",
            ((one, (0, 3)), (-(x7.inverse()), (2, 0)), (x1 ** 2 * x7 ** 5 / x3 ** 3, (1, 1))),
        ),
        (
            "w1 w3 + x3^2 (x1 x7^5)^-1 w2^2 + x3 (x1 x7^2)^-1 w3 w0",
            (
                (one, (1, 3)),
                (x3 ** 2 / (x1 * x7 ** 5), (2, 2)),
                (x3 / (x1 * x7 ** 2), (3, 0)),
            ),
        ),
        (
            "w0w2w1^2w3w0 + w1^2w3w0w0w2 + w3w0w0w2w1^2",
            (
                (one, (0, 2, 1, 1, 3, 0)),
                (one, (1, 1, 3, 0, 0, 2)),
                (one, (3, 0, 0, 2, 1, 1)),
            ),
        ),
    ]


def _rows_to_solution(rows) -> SetSolution:
    m = 4
    table = [[None] * m for _ in range(m)]
    for i, j, _, (a, b) in rows:
        table[i - 1][j - 1] = (a - 1, b - 1)
    return SetSolution(table)


def _rows_to_coeffs(rows):
    m = 4
    R = [[None] * m for _ in range(m)]
    for i, j, coeff, _ in rows:
        R[i - 1][j - 1] = coeff
    return R


def _word_label(word) -> str:
    return " ".join(f"w{letter}" for letter in word)


# ---------------------------------------------------------------------------
# the registry


def _is_one(x: CycloElement) -> bool:
    return x == x ** 0


def _specs() -> dict:
    one = _one()
    minus1 = _MINUS1
    zeta3 = _ZETA3
    specs = {}

    specs["z2-shift"] = _Spec(
        name="z2-shift",
        notes="cyclic shift on two points, r(i,j) = (j-1, i+1)",
        defaults={"a": one, "e": one, "q": minus1},
        solution_builder=lambda: SetSolution.cyclic_shift(2),
        table_builder=_z2_table,
        family_constraints=[],
        point_constraints=[("a e = 1", lambda P: _is_one(P["a"] * P["e"]))],
        relations_builder=_z2_relations,
        expected_builder=_nm_expected(2),
    )
    specs["z3-shift"] = _Spec(
        name="z3-shift",
        notes="cyclic shift on three points, r(i,j) = (j-1, i+1)",
        defaults={"a": one, "d": one, "e": one, "f": one, "q": zeta3},
        solution_builder=lambda: SetSolution.cyclic_shift(3),
        table_builder=_z3_table,
        family_constraints=[],
        point_constraints=[("d f = 1", lambda P: _is_one(P["d"] * P["f"]))],
        relations_builder=_z3_relations,
        expected_builder=_nm_expected(3),
    )
    specs["z4-shift1"] = _Spec(
        name="z4-shift1",
        notes="cyclic shift on four points, r(i,j) = (j-1, i+1)",
        defaults={"q": minus1, **{f"x{i}": one for i in range(1, 7)}},
        solution_builder=lambda: SetSolution.cyclic_shift(4, 1),
        table_builder=_z4s1_table,
        family_constraints=[],
        point_constraints=[
            ("x2 x5 = 1", lambda P: _is_one(P["x2"] * P["x5"])),
            (
                "x1 x6 = x2 x3 x4 x5",
                lambda P: P["x1"] * P["x6"] == P["x2"] * P["x3"] * P["x4"] * P["x5"],
            ),
        ],
        relations_builder=_z4s1_relations,
        expected_builder=_nm_expected(4),
    )
    specs["z4-shift2"] = _Spec(
        name="z4-shift2",
        notes="shift by two on four points, r(i,j) = (j-2, i+2); decomposes as {0,2} | {1,3}",
        defaults={
            "q1": minus1,
            "q2": zeta3,
            **{f"x{i}": one for i in (1, 2, 3, 4, 5, 6, 7, 9)},
        },
        solution_builder=lambda: SetSolution.cyclic_shift(4, 2),
        table_builder=_z4s2_table,
        family_constraints=[],
        point_constraints=[
            (
                "x1^2 x7 x9 = x2 x3",
                lambda P: P["x1"] ** 2 * P["x7"] * P["x9"] == P["x2"] * P["x3"],
            ),
            ("x4 x9 = 1", lambda P: _is_one(P["x4"] * P["x9"])),
            ("x3 x6 = 1", lambda P: _is_one(P["x3"] * P["x6"])),
            (
                "x2 x7 = x3 x5^2 x9",
                lambda P: P["x2"] * P["x7"] == P["x3"] * P["x5"] ** 2 * P["x9"],
            ),
        ],
        relations_builder=lambda P, s: _z4s2_relations(P),
        expected_builder=_z4s2_expected,
    )
    specs["x4-sigma"] = _Spec(
        name="x4-sigma",
        notes="involutive non-cyclic solution on four points with diagonal (1 2)",
        defaults={"q": minus1, **{f"x{i}": one for i in (2, 3, 4, 5, 6, 8)}},
        solution_builder=_x4_solution,
        table_builder=_x4_table,
        family_constraints=[
            (
                "(x2 x4 x6)^2 = (x5^2 x8)^2",
                lambda P: (P["x2"] * P["x4"] * P["x6"]) ** 2
                == (P["x5"] ** 2 * P["x8"]) ** 2,
            )
        ],
        point_constraints=[
            ("x2 x8 = 1", lambda P: _is_one(P["x2"] * P["x8"])),
            (
                "x2 = x3 x5 x8",
                lambda P: P["x2"] == P["x3"] * P["x5"] * P["x8"],
            ),
        ],
        relations_builder=_x4_relations,
        expected_builder=_nm_expected(4),
    )

    w_specs = [
        (
            "w1",
            "rack-type braiding, 72-dimensional",
            {"q": minus1, "x2": one, "x3": one, "x7": one, "x8": one},
            _w1_rows,
            [("(x3 x8)^2 = q^4", lambda P: (P["x3"] * P["x8"]) ** 2 == P["q"] ** 4)],
            [
                ("q = -1", lambda P: P["q"] == -1),
                ("x3 x8 = 1", lambda P: _is_one(P["x3"] * P["x8"])),
            ],
            _w1_relations,
        ),
        (
            "w2",
            "rack-type braiding, 72-dimensional",
            {"q": minus1, "x2": one, "x3": one, "x4": one, "x5": one, "x7": one, "x9": one},
            _w2_rows,
            [
                ("x9^2 = q^2", lambda P: P["x9"] ** 2 == P["q"] ** 2),
                ("x5^2 = q^2", lambda P: P["x5"] ** 2 == P["q"] ** 2),
                ("(x4 x7)^2 = q^4", lambda P: (P["x4"] * P["x7"]) ** 2 == P["q"] ** 4),
            ],
            [
                ("q = -1", lambda P: P["q"] == -1),
                (
                    "x4 x5 x7 x9 = 1",
                    lambda P: _is_one(P["x4"] * P["x5"] * P["x7"] * P["x9"]),
                ),
            ],
            _w2_relations,
        ),
        (
            "w3",
            "rack-type braiding, 72-dimensional",
            {"q": minus1, "x3": one, "x4": one, "x6": one, "x7": minus1},
            _w3_rows,
            [
                (
                    "(x3 x4 x7)^2 = q^6",
                    lambda P: (P["x3"] * P["x4"] * P["x7"]) ** 2 == P["q"] ** 6,
                )
            ],
            [
                ("q = -1", lambda P: P["q"] == -1),
                ("x3 x4 x7 = -1", lambda P: P["x3"] * P["x4"] * P["x7"] == -1),
            ],
            _w3_relations,
        ),
        (
            "w4",
            "rack-type braiding, 72-dimensional",
            {"q": minus1, "x3": one, "x4": one, "x5": one, "x6": one},
            _w4_rows,
            [
                (
                    "q^8 x5^4 = x3^4 x4^2 x6^6",
                    lambda P: P["q"] ** 8 * P["x5"] ** 4
                    == P["x3"] ** 4 * P["x4"] ** 2 * P["x6"] ** 6,
                )
            ],
            [
                ("q = -1", lambda P: P["q"] == -1),
                (
                    "x3^2 x4 x6^3 = x5^2",
                    lambda P: P["x3"] ** 2 * P["x4"] * P["x6"] ** 3 == P["x5"] ** 2,
                ),
            ],
            _w4_relations,
        ),
        (
            "w5",
            "rack-type braiding, 72-dimensional",
            {"q": minus1, "x2": one, "x3": one, "x4": one, "x5": one, "x6": one, "x8": one},
            _w5_rows,
            [
                ("x4^2 = q^2", lambda P: P["x4"] ** 2 == P["q"] ** 2),
                ("x3^2 = q^2", lambda P: P["x3"] ** 2 == P["q"] ** 2),
                ("(x5 x6)^2 = q^4", lambda P: (P["x5"] * P["x6"]) ** 2 == P["q"] ** 4),
            ],
            [
                ("q = -1", lambda P: P["q"] == -1),
                (
                    "x3 x4 x5 x6 = 1",
                    lambda P: _is_one(P["x3"] * P["x4"] * P["x5"] * P["x6"]),
                ),
            ],
            _w5_relations,
        ),
        (
            "w6",
            "rack-type braiding, 72-dimensional",
            {"q": minus1, "x1": one, "x2": one, "x3": one, "x5": one},
            _w6_rows,
            [("(x3 x5)^2 = q^4", lambda P: (P["x3"] * P["x5"]) ** 2 == P["q"] ** 4)],
            [
                ("q = -1", lambda P: P["q"] == -1),
                ("x3 x5 = 1", lambda P: _is_one(P["x3"] * P["x5"])),
            ],
            _w6_relations,
        ),
        (
            "w7",
            "rack-type braiding, 72-dimensional",
            {"q": minus1, "x1": one, "x2": one, "x3": one, "x7": minus1},
            _w7_rows,
            [
                (
                    "(x1 x3 x7^3)^2 = q^10",
                    lambda P: (P["x1"] * P["x3"] * P["x7"] ** 3) ** 2 == P["q"] ** 10,
                )
            ],
            [
                ("q = -1", lambda P: P["q"] == -1),
                (
                    "x1 x3 x7^3 = -1",
                    lambda P: P["x1"] * P["x3"] * P["x7"] ** 3 == -1,
                ),
            ],
            _w7_relations,
        ),
        (
            "w8",
            "rack-type braiding, 72-dimensional",
            {"q": minus1, "x1": one, "x3": one, "x4": one, "x7": one},
            _w8_rows,
            [("q^4 = (x4 x7)^2", lambda P: P["q"] ** 4 == (P["x4"] * P["x7"]) ** 2)],
            [
                ("q = -1", lambda P: P["q"] == -1),
                ("x4 x7 = 1", lambda P: _is_one(P["x4"] * P["x7"])),
            ],
            _w8_relations,
        ),
    ]
    for name, notes, defaults, rows_fn, family, point, rel_fn in w_specs:
        specs[name] = _Spec(
            name=name,
            notes=notes,
            defaults=defaults,
            solution_builder=(lambda fn=rows_fn, d=defaults: _rows_to_solution(
                fn({k: v.to_order(_common(d)) for k, v in d.items()})
            )),
            table_builder=(lambda P, fn=rows_fn: _rows_to_coeffs(fn(P))),
            family_constraints=family,
            point_constraints=point,
            relations_builder=lambda P, s, fn=rel_fn: fn(P),
            expected_builder=lambda P: (72, "published total at the documented point"),
        )
    return specs


def _common(defaults) -> int:
    return reduce(math.lcm, (v.order for v in defaults.values()), 1)


_ALIASES = {"w1-grana": "w1", "w6-grana": "w6"}


def _spec_for(name: str) -> _Spec:
    canonical = _ALIASES.get(name, name)
    specs = _registry()
    if canonical not in specs:
        raise UnknownName(f"unknown catalog name {name!r}; try one of {catalog_names()}")
    return specs[canonical]


_REGISTRY_CACHE: dict | None = None


def _registry() -> dict:
    global _REGISTRY_CACHE
    if _REGISTRY_CACHE is None:
        _REGISTRY_CACHE = _specs()
    return _REGISTRY_CACHE


def catalog_names() -> list[str]:
    return list(_registry().keys())
