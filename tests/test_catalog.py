import hashlib
import json

import pytest

from ybnichols.catalog import (
    ConstraintViolation,
    UnknownName,
    build_entry,
    catalog_names,
    parse_scalar,
)
from ybnichols.exact import CycloElement, cyclotomic_root
from ybnichols.nichols import canonical_coefficients
from ybnichols.ybe import NotInvolutive, decompose, diagonal, verify_solution


def test_names_and_aliases():
    names = catalog_names()
    assert names[:5] == ["z2-shift", "z3-shift", "z4-shift1", "z4-shift2", "x4-sigma"]
    assert [n for n in names if n.startswith("w")] == [f"w{i}" for i in range(1, 9)]
    assert build_entry("w1-grana").name == "w1"
    with pytest.raises(UnknownName):
        build_entry("nonsense")


def test_every_entry_is_a_valid_solution_with_valid_braiding():
    for name in catalog_names():
        entry = build_entry(name)
        report = verify_solution(entry.solution)
        assert report.is_ybe and report.is_nondegenerate
        assert entry.point_ok
        assert entry.expected_total in (4, 16, 27, 36, 72)


def test_parse_scalar():
    assert parse_scalar("-1") == CycloElement.from_rational(-1)
    assert parse_scalar("2/3") == CycloElement.from_rational(parse_scalar("2/3").coeffs[0])
    assert parse_scalar("zeta3") == cyclotomic_root(3)
    assert parse_scalar("zeta12^4") == cyclotomic_root(12) ** 4
    assert parse_scalar("-zeta4") == -cyclotomic_root(4)
    with pytest.raises(ValueError):
        parse_scalar("eta3")


def test_parameter_overrides_revalidate():
    entry = build_entry("z2-shift", {"q": "zeta4"})
    assert entry.expected_total == 16
    entry = build_entry("z2-shift", {"a": "2", "e": "1/2"})
    assert entry.point_ok and entry.expected_total == 4
    off = build_entry("z2-shift", {"a": "2"})
    assert not off.point_ok and off.expected_total is None and off.relations == ()
    with pytest.raises(ConstraintViolation):
        build_entry("z2-shift", {"nosuch": "1"})
    with pytest.raises(ConstraintViolation):
        build_entry("w1", {"x3": "2"})  # breaks (x3 x8)^2 = q^4


def test_w_entry_constraint_family_respected():
    # the transcribed tables satisfy the hexagon identity on every triple,
    # which would fail loudly on any transcription slip
    for name in ("w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8"):
        entry = build_entry(name)
        assert entry.system.order == 2
        assert not entry.involutive


def test_decomposition_and_diagonal_interaction():
    # the shift-by-two solution decomposes and its diagonal preserves parts
    entry = build_entry("z4-shift2")
    parts = decompose(entry.solution)
    assert parts == ((0, 2), (1, 3))
    D = diagonal(entry.solution)
    for part in parts:
        assert {D(i) for i in part} == set(part)


def test_canonical_coefficients_outcome_per_entry():
    # canonical assignment validates for every involutive entry and is
    # rejected (no diagonal) for the rack-type ones
    minus1 = CycloElement.zeta(2)
    for name in catalog_names():
        entry = build_entry(name)
        if entry.involutive:
            cs = canonical_coefficients(entry.solution, minus1)
            assert cs.size == entry.solution.size
        else:
            with pytest.raises(NotInvolutive):
                canonical_coefficients(entry.solution, minus1)


def test_default_points_match_documented_q():
    assert build_entry("z2-shift").params["q"] == -1
    assert build_entry("z3-shift").params["q"] == cyclotomic_root(3)
    z4s2 = build_entry("z4-shift2")
    assert z4s2.params["q1"].multiplicative_order() == 2
    assert z4s2.params["q2"].multiplicative_order() == 3
    for i in range(1, 9):
        assert build_entry(f"w{i}").params["q"] == -1


def test_w_quadratic_relations_span_the_degree_two_kernel():
    from ybnichols.nichols import degree2_relation_rank, graded_dims

    for i in range(1, 9):
        entry = build_entry(f"w{i}")
        span = degree2_relation_rank(entry.system, entry.relations)
        dims2 = graded_dims(entry.system, cap=2).dims[2]
        assert span == 16 - dims2 == 8


def test_coefficient_json_round_trip():
    from ybnichols.nichols import CoefficientSystem

    entry = build_entry("z4-shift2")
    data = entry.system.to_json()
    assert data["cyclotomic_order"] == 6
    rebuilt = CoefficientSystem.from_json(data)
    assert rebuilt == entry.system


# sha256 prefix and length of each entry's relation list, taken from the
# builders that spelled out the diagonal map D of each solution by hand
RELATION_DIGESTS = {
    ("z2-shift", None): ("c2faf85c62f44738", 4),
    ("z2-shift", "zeta3"): ("2a10246a843cca2e", 4),
    ("z2-shift", "zeta5"): ("151113105d2ae006", 4),
    ("z3-shift", None): ("a508e651c2b4fab0", 6),
    ("z3-shift", "zeta3"): ("a508e651c2b4fab0", 6),
    ("z3-shift", "zeta5"): ("fa6e4e66b45c02d5", 6),
    ("z4-shift1", None): ("70e8d5ef7c105de8", 10),
    ("z4-shift1", "zeta3"): ("4474dc2dcd821b8b", 10),
    ("z4-shift1", "zeta5"): ("4c813f0f4141ec3c", 10),
    ("z4-shift2", None): ("7aee73e0edbbcdba", 10),
    ("x4-sigma", None): ("9442bb4f733b9d1f", 10),
    ("x4-sigma", "zeta3"): ("729d82e52612cb39", 10),
    ("x4-sigma", "zeta5"): ("82004a4f357af6ec", 10),
    ("w1", None): ("4e6a4d7e63daad8c", 9),
    ("w2", None): ("0ba48f5c4ea84b1c", 9),
    ("w3", None): ("4bed48dd8c480170", 9),
    ("w4", None): ("84d8a1b17c9a0c45", 9),
    ("w5", None): ("994afbbdaa90951c", 9),
    ("w6", None): ("eb2c5007780f98db", 9),
    ("w7", None): ("978b0eb6f1308988", 9),
    ("w8", None): ("90a1814ce109f3dc", 9),
}


def _relation_digest(entry):
    data = [
        [label, [[c.to_json(), list(word)] for c, word in terms]]
        for label, terms in entry.relations
    ]
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def test_relation_lists_unchanged():
    # the power words D^{n-1}(i) ... D(i) i now come from orbits.psi with
    # the solution's own diagonal map
    assert {name for name, _ in RELATION_DIGESTS} == set(catalog_names())
    for (name, q), (digest, count) in RELATION_DIGESTS.items():
        entry = build_entry(name, None if q is None else {"q": q})
        assert len(entry.relations) == count, (name, q)
        assert _relation_digest(entry) == digest, (name, q)
