import hashlib
import json
import math
import os
import random
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from ybnichols import nichols
from ybnichols.catalog import build_entry, catalog_names, parse_scalar
from ybnichols.exact import (
    BadPrime,
    CycloElement,
    cyclotomic_root,
    euler_phi,
    primes_for_order,
    q_analogues,
)
from ybnichols.catalog import ConstraintViolation
from ybnichols.linalg import ExactIntRows, ModRows, _max_abs, apply, mul_rows_elementwise, rank
from ybnichols.nichols import (
    _Engine,
    _SeedTable,
    _relation_engine,
    OrbitRows,
    _times_boxes,
    CapExceeded,
    CoefficientSystem,
    HexagonViolation,
    HilbertSeries,
    HypothesesNotMet,
    InhomogeneousElement,
    braiding_ops,
    canonical_coefficients,
    check_relation,
    degree2_relation_rank,
    diagonal_coefficient_check,
    expected_series,
    graded_dims,
    hexagon_failures,
    orbit_count_oracle,
    relation_image,
    symmetrizer_apply,
    symmetrizer_image,
    theorem_hypotheses,
    theorem_relations,
    theorem_suite,
    validate_coefficients,
    word_index,
)
from ybnichols.orbits import BraidOrbits, classify, maximal_blocks
from ybnichols.ybe import NotInvolutive, SetSolution, diagonal

from test_linalg import orbit_length_rows
from test_orbits import partitions

ONE2 = CycloElement.one(2)
MINUS1 = CycloElement.zeta(2)


def z2_system(a=1, e=1, q=None):
    q = q if q is not None else MINUS1
    order = q.order if isinstance(q, CycloElement) else 1
    a = CycloElement.from_rational(a, 1).to_order(order) if not isinstance(a, CycloElement) else a
    e = CycloElement.from_rational(e, 1).to_order(order) if not isinstance(e, CycloElement) else e
    q = q.to_order(order)
    return validate_coefficients(SetSolution.cyclic_shift(2), [[a, q], [q, e]])


def test_validate_accepts_published_table():
    cs = z2_system()
    assert cs.order == 2
    assert cs.entry(0, 1) == MINUS1


def test_all_ones_table_is_valid_for_any_solution():
    for s in (SetSolution.flip(3), SetSolution.cyclic_shift(4, 2), build_entry("w3").solution):
        one = CycloElement.one(1)
        m = s.size
        validate_coefficients(s, [[one] * m for _ in range(m)])


def test_asymmetric_off_diagonal_is_rejected_with_witness():
    one = ONE2
    with pytest.raises(HexagonViolation) as info:
        validate_coefficients(SetSolution.cyclic_shift(2), [[one, MINUS1], [one, one]])
    witnesses = info.value.witnesses
    assert witnesses
    # every reported triple really does fail
    bad = hexagon_failures(SetSolution.cyclic_shift(2), [[one, MINUS1], [one, one]])
    assert {w[0] for w in witnesses} == {w[0] for w in bad}


def test_zero_entries_rejected():
    with pytest.raises(ValueError):
        validate_coefficients(
            SetSolution.cyclic_shift(2), [[CycloElement.zero(2), ONE2], [ONE2, ONE2]]
        )


def _translate_identity_holds(cs):
    # the fixed-pair coefficient identity R[D(j)][j] = R[D(t)][t] along every
    # tau-translate t = tau_k(j), over the report's diagonal values
    s, values = cs.solution, diagonal_coefficient_check(cs).values
    m = s.size
    return all(values[j] == values[s.tau(k, j)] for j in range(m) for k in range(m))


def test_diagonal_coefficient_identity_on_catalog():
    from ybnichols.catalog import catalog_names

    for name in catalog_names():
        entry = build_entry(name)
        if not entry.involutive:
            continue
        assert _translate_identity_holds(entry.system), name
    # all-ones: constant q = 1
    one = CycloElement.one(1)
    cs = validate_coefficients(SetSolution.flip(2), [[one, one], [one, one]])
    report = diagonal_coefficient_check(cs)
    assert _translate_identity_holds(cs) and report.q_constant and report.q == 1


def test_diagonal_coefficient_non_constant_on_flip():
    # flip: every tau is the identity, so the translate identity is vacuous
    # even with distinct diagonal values
    one = CycloElement.one(1)
    two = CycloElement.from_rational(2)
    three = CycloElement.from_rational(3)
    cs = validate_coefficients(SetSolution.flip(2), [[two, one], [one, three]])
    report = diagonal_coefficient_check(cs)
    assert _translate_identity_holds(cs) and not report.q_constant
    assert report.values == (two, three) and report.q is None


def test_canonical_coefficients_examples():
    cs = canonical_coefficients(SetSolution.cyclic_shift(2), MINUS1)
    assert cs == z2_system()
    z3 = cyclotomic_root(3)
    cs3 = canonical_coefficients(SetSolution.cyclic_shift(3), z3)
    entry = build_entry("z3-shift")
    assert cs3 == entry.system
    # flip gives a diagonal braiding with total 2^m at q = -1
    csf = canonical_coefficients(SetSolution.flip(3), MINUS1)
    assert expected_series(csf) == HilbertSeries((1, 3, 3, 1), 0)
    assert graded_dims(csf).total == 8


def test_braiding_ops_examples():
    one = CycloElement.one(1)
    flip = validate_coefficients(SetSolution.flip(2), [[one] * 2 for _ in range(2)])
    ops = braiding_ops(flip, 2)
    # plain transposition operator on the middle basis vectors
    assert ops[0].target == (0, 2, 1, 3)
    assert all(s == one for s in ops[0].scalar)

    entry = build_entry("z2-shift")
    c1 = braiding_ops(entry.system, 2)[0]
    # c(w1 (x) w1) = e w0 (x) w0
    zero = CycloElement.zero(2)
    image = apply(c1, [zero, zero, zero, CycloElement.one(2)])
    assert image[0] == entry.params["e"] and not any(image[1:])


def test_braid_relation_for_operators():
    for name in ("z3-shift", "x4-sigma", "w1"):
        entry = build_entry(name)
        for k in (3, 4):
            ops = braiding_ops(entry.system, k)
            for i in range(len(ops) - 1):
                lhs = ops[i].compose(ops[i + 1]).compose(ops[i])
                rhs = ops[i + 1].compose(ops[i]).compose(ops[i + 1])
                assert lhs == rhs
            for i in range(len(ops)):
                for j in range(i + 2, len(ops)):
                    assert ops[i].compose(ops[j]) == ops[j].compose(ops[i])


def test_symmetrizer_image_examples():
    entry = build_entry("z2-shift")
    assert symmetrizer_image(entry.system, 1).rank == 2
    assert symmetrizer_image(entry.system, 2).rank == 1
    assert symmetrizer_image(entry.system, 3).rank == 0
    with pytest.raises(CapExceeded):
        symmetrizer_image(entry.system, 3, exact_cap=4)


def test_symmetrizer_full_matrix_cross_check():
    # rank from the orbit-blocked degree chain equals the rank of the full
    # operator matrix
    for name in ("z2-shift", "w1", "x4-sigma"):
        cs = build_entry(name).system
        for k in (2, 3):
            m = cs.size
            L = m ** k
            zero = CycloElement.zero(cs.order)
            one = CycloElement.one(cs.order)
            columns = []
            for b in range(L):
                e = [zero] * L
                e[b] = one
                columns.append(symmetrizer_apply(cs, e, k))
            assert rank(columns) == symmetrizer_image(cs, k).rank


def test_graded_dims_published_profiles():
    assert graded_dims(z2_system()).dims == (1, 2, 1, 0)
    z3q = cyclotomic_root(3)
    assert graded_dims(canonical_coefficients(SetSolution.cyclic_shift(2), z3q)).dims == (
        1, 2, 3, 2, 1, 0,
    )
    entry = build_entry("z3-shift")
    g = graded_dims(entry.system)
    assert g.total == 27 and g.terminated == "zero"


def test_graded_dims_record_contract():
    g = graded_dims(z2_system())
    assert g.dims[0] == 1 and g.dims[1] == 2
    assert [r.degree for r in g.provenance] == list(range(len(g.dims)))
    js = g.to_json()
    assert js["dims"] == [1, 2, 1, 0] and js["total"] == 4


def test_graded_dims_cap_truncates_without_total():
    cs = z2_system(q=CycloElement.from_rational(2))
    g = graded_dims(cs, cap=5, mode="exact")
    assert g.total is None and g.terminated == "cap"
    assert g.dims == (1, 2, 3, 4, 5, 6)


def test_graded_dims_refuses_a_cap_below_one():
    # every answer holds degrees 0 and 1, so a cap below 1 cannot be kept
    cs = z2_system()
    for cap in (0, -5):
        with pytest.raises(ValueError, match="cap"):
            graded_dims(cs, cap=cap)
    g = graded_dims(cs, cap=1)
    assert g.dims == (1, 2) and g.terminated == "cap" and g.total is None


def test_graded_dims_dimension_limit_guard(monkeypatch):
    monkeypatch.setattr(nichols, "_DIMENSION_LIMIT", 2 ** 6)
    cs = z2_system(q=CycloElement.from_rational(2))
    g = graded_dims(cs, cap=30, mode="exact", exact_cap=2 ** 12)
    assert g.terminated == "cap" and g.total is None
    assert len(g.dims) == 7  # degrees 0..6; 2^7 exceeds the limit


def test_relation_checks_stop_at_the_dimension_limit(monkeypatch):
    # a relation check walks every degree up to its own, so one of more than
    # 2^22 words is refused before any word array is built
    cs = build_entry("z2-shift").system
    element = [(1, (0,) * 23)]
    tracemalloc.start()
    try:
        for check in (check_relation, relation_image):
            with pytest.raises(CapExceeded):
                check(cs, element)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    # the limit itself still runs
    monkeypatch.setattr(nichols, "_DIMENSION_LIMIT", 2 ** 6)
    image = relation_image(cs, [(1, (0,) * 6)])
    assert len(image) == 2 ** 6 and check_relation(cs, [(1, (0,) * 6)]) == (not any(image))
    with pytest.raises(CapExceeded):
        check_relation(cs, [(1, (0,) * 7)])


def test_check_relation_examples():
    entry = build_entry("z3-shift")
    one = CycloElement.one(entry.system.order)
    d = entry.params["d"]
    assert check_relation(entry.system, [(one, (0, 2)), (-d, (1, 1))])
    assert check_relation(entry.system, [])  # the zero element
    # a bare basis word of degree 2 is not a relation here
    assert not check_relation(entry.system, [(one, (0, 1))])
    # deliberately corrupted coefficient: nonzero image
    image = relation_image(entry.system, [(one, (0, 2)), (-(d + d), (1, 1))])
    assert any(image)
    with pytest.raises(InhomogeneousElement):
        check_relation(entry.system, [(one, (0, 1)), (one, (0, 1, 2))])


def test_relation_letters_outside_the_alphabet_are_rejected():
    # a negative letter used to wrap, 5 to read as the word (1, 2), and 1.5
    # to be truncated; every relation entry now names the bad letter
    cs = build_entry("z3-shift").system
    for word in ((0, -1), (0, 5), (0, 1.5)):
        calls = [
            lambda: word_index(word, 3),
            lambda: check_relation(cs, [(1, word)]),
            lambda: relation_image(cs, [(1, word)]),
            lambda: degree2_relation_rank(cs, [("bad", [(1, word)])]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"letter .* 0\.\.2 \(m = 3\)"):
                call()


def test_relation_schema_terms_vanish():
    for name in ("z2-shift", "z3-shift", "z4-shift1", "x4-sigma"):
        entry = build_entry(name)
        for label, terms in theorem_relations(entry.system):
            assert check_relation(entry.system, terms), (name, label)


def test_relation_checks_reuse_the_last_engine(monkeypatch):
    # one engine serves every relation of a system; only the last one is kept
    built = []
    init = _Engine.__init__

    def counting(self, cs):
        built.append(cs)
        init(self, cs)

    monkeypatch.setattr(_Engine, "__init__", counting)
    _relation_engine.cache_clear()
    entries = {name: build_entry(name) for name in ("z3-shift", "z2-shift")}
    order = ("z3-shift", "z2-shift", "z3-shift")
    for name in order:
        for _, terms in entries[name].relations:
            assert check_relation(entries[name].system, terms)
    assert built == [entries[name].system for name in order]
    assert _relation_engine.cache_info().currsize == 1


def test_relation_with_a_huge_common_order_is_refused():
    # on z2-shift (order 2), zeta7 and zeta11 raise the order to 154 with
    # phi = 60, which is checked; zeta7 and zeta13 raise it to 182 with
    # phi = 72, which is refused before any table is coerced
    cs = build_entry("z2-shift").system
    element = [(cyclotomic_root(7), (0, 0)), (cyclotomic_root(11), (1, 1))]
    assert not check_relation(cs, element)
    element = [(cyclotomic_root(7), (0, 0)), (cyclotomic_root(13), (1, 1))]
    with pytest.raises(ValueError, match="cyclotomic order 182 is too large"):
        check_relation(cs, element)


def test_degree2_relation_completeness():
    for name in ("z2-shift", "z3-shift", "z4-shift1", "x4-sigma"):
        entry = build_entry(name)
        m = entry.solution.size
        dims2 = graded_dims(entry.system, cap=2).dims[2]
        span = degree2_relation_rank(entry.system, theorem_relations(entry.system))
        assert span == m * m - dims2, name


def _dense_degree2_rank(cs, relations):
    """The span of the degree-2 relations as dense CycloElement vectors over
    the m^2 words, ranked in the reference RowSpace."""
    m = cs.size
    vectors = []
    for _, terms in relations:
        if any(len(word) != 2 for _, word in terms):
            continue
        vec = [CycloElement.zero(cs.order)] * (m * m)
        for coeff, word in terms:
            if not isinstance(coeff, CycloElement):
                coeff = CycloElement.from_rational(Fraction(coeff))
            vec[word_index(word, m)] += coeff.to_order(cs.order)
        vectors.append(vec)
    return rank(vectors)


def test_degree2_relation_rank_matches_dense_reference():
    # integer rows in ExactIntRows against dense vectors in RowSpace, on the
    # published relations of every entry that builds at each q, with the
    # schema relations where the hypotheses give them
    cases = 0
    for name in catalog_names():
        for q in (None, "zeta3", "-1", "2"):
            try:
                entry = build_entry(name, None if q is None else {"q": q})
            except (ConstraintViolation, HexagonViolation):
                continue
            cs, relations = entry.system, list(entry.relations)
            try:
                relations += theorem_relations(cs)
            except (HypothesesNotMet, NotInvolutive):
                pass
            assert degree2_relation_rank(cs, relations) == _dense_degree2_rank(cs, relations)
            cases += 1
    assert cases >= 34, cases
    # int, Fraction and beyond-int64 coefficients, a repeated word, words of
    # degree 3 (skipped) and the empty relation, on z3-shift (order 3)
    cs = build_entry("z3-shift").system
    z3 = cyclotomic_root(3)
    relations = [
        ("int", [(2, (0, 1)), (-3, (1, 2))]),
        ("fraction", [(Fraction(-2, 3), (0, 1)), (1, (1, 2))]),
        ("cancels", [(1, (2, 2)), (Fraction(-1), (2, 2))]),
        ("cyclo", [(z3, (1, 0)), (Fraction(1, 2), (2, 1)), (z3 * z3, (1, 0))]),
        ("huge", [(2 ** 70, (0, 2)), (1, (2, 0))]),
        ("huge multiple", [(1, (0, 2)), (Fraction(1, 2 ** 70), (2, 0))]),
        ("degree 3", [(1, (0, 1, 2))]),
        ("mixed", [(1, (0, 0)), (1, (0, 0, 0))]),
        ("empty", []),
    ]
    assert degree2_relation_rank(cs, relations) == _dense_degree2_rank(cs, relations) == 3
    assert degree2_relation_rank(cs, []) == 0
    # a coefficient whose order does not embed in the system's
    for root, system in ((cyclotomic_root(4), cs), (z3, z2_system())):
        with pytest.raises(ValueError, match="cannot embed"):
            degree2_relation_rank(system, [("bad", [(root, (0, 1))])])


def test_oracle_examples():
    assert orbit_count_oracle(z2_system(), 2) == 1
    assert orbit_count_oracle(build_entry("z2-shift", {"q": "zeta3"}).system, 2) == 3
    for name, m in (("z2-shift", 2), ("z3-shift", 3), ("z4-shift1", 4)):
        assert orbit_count_oracle(build_entry(name, {"q": "zeta5"}).system, 1) == m
    entry = build_entry("z3-shift")
    assert orbit_count_oracle(entry.system, 2) == 6
    # q of infinite order: k + 1 on two letters
    cs2 = z2_system(q=CycloElement.from_rational(2))
    assert [orbit_count_oracle(cs2, k) for k in range(5)] == [1, 2, 3, 4, 5]
    # a table off the pairing has no series
    with pytest.raises(HypothesesNotMet):
        orbit_count_oracle(z2_system(a=2, e=1), 2)


def test_expansion_matches_partition_sum():
    # the coefficient of t^k in (1 + t + ... + t^(n-1))^m counts the
    # multisets of size k over m letters with every multiplicity below n:
    # the partitions of k into at most m parts below n, with their
    # arrangements over the m letters
    for m in range(1, 7):
        for n in range(1, 7):
            for k in range(m * (n - 1) + 2):
                reference = sum(p.perm_count(m) for p in partitions(k, m, n - 1))
                series = HilbertSeries(tuple(_times_boxes([1], n, m)), 0)
                assert series.coefficient(k) == reference, (m, n, k)


def test_expected_profile_matches_exact_dims():
    # z4-shift2 splits into two parts of two letters, each with its own q:
    # the series is the product of one expansion per part
    for overrides, profile in (
        (None, (1, 4, 8, 10, 8, 4, 1)),  # q1 = -1, q2 = zeta3
        ({"q1": "zeta4", "q2": "-1"}, (1, 4, 8, 12, 14, 12, 8, 4, 1)),
    ):
        cs = build_entry("z4-shift2", overrides).system
        assert expected_series(cs) == HilbertSeries(profile, 0)
        assert expected_series(cs).total == sum(profile)
        assert graded_dims(cs, cap=16, mode="exact").dims == profile + (0,)
        assert expected_series(build_entry("z4-shift2", overrides).system) is expected_series(cs)
    # constant q: one part, (1 + ... + t^(n-1))^m
    assert expected_series(build_entry("z3-shift").system) == HilbertSeries((1, 3, 6, 7, 6, 3, 1), 0)
    # q of infinite order: one factor 1 / (1 - t) per letter, no total
    growth = expected_series(build_entry("z3-shift", {"q": "2"}).system)
    assert growth == HilbertSeries((1,), 3) and growth.total is None
    assert [growth.coefficient(k) for k in range(-1, 5)] == [0, 1, 3, 6, 10, 15]
    # a table off the pairing has none
    assert expected_series(z2_system(a=2, e=1)) is None


def _series_points():
    # every involutive catalog entry at q = default, zeta3, -1, 2, zeta4 and 3
    # (z4-shift2, with a q per part, at its default), and z4-shift2 where a
    # part has q of infinite order or q = 1
    for name in catalog_names():
        entry = build_entry(name)
        if not entry.involutive:
            continue
        yield name, None, entry.system
        if "q" in entry.params:
            for q in ("zeta3", "-1", "2", "zeta4", "3"):
                yield name, q, build_entry(name, {"q": q}).system
    for q1, q2 in (("-1", "2"), ("2", "zeta3"), ("1", "-1")):
        yield "z4-shift2", (q1, q2), build_entry("z4-shift2", {"q1": q1, "q2": q2}).system


def test_expected_series_matches_exact_dims():
    # the series against exact graded_dims through degree 9, or to the
    # first zero, on finite, growth and mixed points alike
    points = list(_series_points())
    assert len(points) == 28
    kinds = Counter()
    for name, q, cs in points:
        series = expected_series(cs)
        g = graded_dims(cs, cap=9, mode="exact", exact_cap=cs.size ** 9)
        assert g.dims == tuple(series.coefficient(k) for k in range(len(g.dims))), (name, q)
        assert g.total == series.total or g.terminated == "cap", (name, q)
        kinds[series.pole == 0, len(series.numerator) == 1] += 1
    # finite, growth (numerator 1) and mixed series all occur
    assert kinds[True, False] and kinds[False, True] and kinds[False, False]


def test_oracle_agrees_with_ranks():
    for name, q in (("z2-shift", None), ("z3-shift", None), ("z2-shift", cyclotomic_root(4))):
        entry = build_entry(name) if q is None else build_entry(name, {"q": q})
        g = graded_dims(entry.system, cap=16)
        for k in range(len(g.dims)):
            assert g.dims[k] == orbit_count_oracle(entry.system, k)


def test_theorem_suite_finite():
    report = theorem_suite(build_entry("z3-shift", {"q": "-1"}).system)
    assert report.passed
    assert report.expected_total == 8
    assert set(report.checks) == {"total", "profile", "relations_vanish"}


def test_theorem_suite_growth():
    # a part with q of infinite order (or q = 1) puts a pole in the series:
    # the profile check alone, through degree 16 or the word limit (z4-shift2
    # stops after degree 11), with modular degrees kept on the series
    for name, overrides, dims in (
        ("z2-shift", {"q": "2"}, tuple(range(1, 18))),
        ("z4-shift2", {"q1": "-1", "q2": "2"}, (1,) + tuple(4 * k for k in range(1, 12))),
        ("z4-shift2", {"q1": "2", "q2": "zeta3"}, (1, 4, 10, 18) + tuple(9 * k for k in range(3, 11))),
        ("z4-shift2", {"q1": "1", "q2": "-1"}, (1,) + tuple(4 * k for k in range(1, 12))),
    ):
        report = theorem_suite(build_entry(name, overrides).system)
        assert report.passed and report.checks == {"profile": True}, (name, overrides)
        assert report.graded.dims == dims and report.expected_total is None
        assert any(r.mode == "modular" for r in report.graded.provenance)


def test_theorem_suite_product():
    report = theorem_suite(build_entry("z4-shift2").system)
    assert report.passed
    assert report.expected_total == 36
    assert report.checks == {"total": True, "profile": True}


def test_theorem_hypotheses_flags():
    hyp = theorem_hypotheses(z2_system())
    assert hyp.q_constant and hyp.q == MINUS1 and hyp.pairing_holds
    two = CycloElement.from_rational(2)
    hyp = theorem_hypotheses(z2_system(q=two))
    assert hyp.q_constant and hyp.q == two and hyp.pairing_holds
    # the relation schema needs a constant q of finite order >= 2
    for q in (two, CycloElement.one(1)):
        with pytest.raises(HypothesesNotMet):
            theorem_relations(z2_system(q=q))
    assert len(theorem_relations(z2_system())) == 4
    bad = z2_system(a=2, e=1)  # pairing a*e != 1
    assert not theorem_hypotheses(bad).pairing_holds
    with pytest.raises(HypothesesNotMet):
        theorem_suite(bad)


def test_theorem_hypotheses_computed_once_per_system():
    # equal systems built apart hash alike (the hash is taken at
    # construction) and share one cached set of hypotheses
    cs, again = z2_system(), z2_system()
    assert cs is not again and cs == again and hash(cs) == hash(again)
    assert hash(cs) == hash((cs.solution, cs.order, cs.R))
    assert theorem_hypotheses(cs) is theorem_hypotheses(again)
    assert theorem_hypotheses(z2_system(a=2, e=1)) != theorem_hypotheses(cs)


def test_escalation_on_forced_small_exact_cap():
    # z3 at zeta3 with a tiny exact cap: modular degrees appear, and the
    # vanishing degree forces exact confirmation
    entry = build_entry("z3-shift")
    g = graded_dims(entry.system, cap=16, exact_cap=9)
    assert g.total == 27
    modes = {r.degree: r.mode for r in g.provenance}
    assert modes[2] == "exact"
    assert any(r.mode.startswith("modular") for r in g.provenance)
    last = g.provenance[-1]
    assert last.dim == 0 and last.mode == "modular+exact" and last.escalated
    assert last.agreed is True and len(last.primes) == 2


def test_modular_degrees_need_two_distinct_primes():
    # at q = 2 the dims are k + 1, but 2 has order 3 mod 7, so mod 7 alone
    # reads the profile 1, 2, 3, 2, 1 of a root of unity: one prime, or one
    # prime twice, cannot disagree with itself and is refused
    cs = build_entry("z2-shift", {"q": "2"}).system
    for primes in ((7,), (7, 7), (7, 13, 7), ()):
        with pytest.raises(BadPrime, match="two distinct primes"):
            graded_dims(cs, cap=4, exact_cap=2, primes=primes)
    with pytest.raises(ValueError, match="unknown mode"):
        graded_dims(cs, cap=4, mode="modular")
    # 7 and 13 agree at degree 2 and disagree at degree 3, which escalates
    # and rewrites degree 2
    g = graded_dims(cs, cap=4, exact_cap=2, primes=(7, 13))
    assert g.dims == (1, 2, 3, 4, 5) and g.terminated == "cap"
    assert [r.mode for r in g.provenance[2:]] == ["modular+exact", "modular+exact", "exact"]
    assert [r.agreed for r in g.provenance[2:4]] == [True, False]
    assert g.provenance[3].modular_dims == (2, 4)


def test_mod_primes_override():
    entry = build_entry("z2-shift")
    primes = tuple(primes_for_order(2, count=2, lower=10 ** 6))
    g = graded_dims(entry.system, cap=16, exact_cap=2, primes=primes)
    assert g.total == 4
    assert g.provenance[-1].primes == primes


def test_engine_matches_generic_chain_on_random_systems():
    # degree-by-degree: vectorized chain rank == reference rank of the same
    # staircase images computed with generic field arithmetic
    entry = build_entry("x4-sigma")
    cs = entry.system
    for k in (2, 3):
        assert symmetrizer_image(cs, k).rank == graded_dims(cs, cap=k).dims[k]


def test_braid_orbits_are_invariant_blocks():
    for name in ("z3-shift", "x4-sigma", "w1", "z4-shift2"):
        cs = build_entry(name).system
        engine = _Engine(cs)
        m = cs.size
        for k in range(1, 7):
            orbits = engine.orbits(k)
            assert int(np.diff(orbits.starts).sum()) == m ** k
            assert sorted(orbits.order.tolist()) == list(range(m ** k))
            words = np.arange(m ** k)
            assert (orbits.order[orbits.starts[orbits.label] + orbits.pos] == words).all()
            for i in range(1, k):
                perm, _ = engine._c_arrays(k, i)
                assert (orbits.label[perm] == orbits.label).all(), (name, k, i)


def test_braid_orbit_counts():
    w1 = _Engine(build_entry("w1").system)
    assert [w1.orbits(k).count for k in range(4, 9)] == [12] * 5
    # involutive: the S_k-orbits, one per multiset of letters
    x4 = _Engine(build_entry("x4-sigma").system)
    assert [x4.orbits(k).count for k in range(1, 9)] == [
        math.comb(k + 3, 3) for k in range(1, 9)
    ]


def test_staircase_positions_match_derived_pos():
    # the walk reads each term's positions from the degree below; they must
    # be the derived pos of degree k at the walked words, for every term of
    # every staircase
    terms = 0
    for name in catalog_names():
        engine = _Engine(build_entry(name).system)
        for k in range(2, 7):
            here = engine.orbits(k)
            words = np.arange(engine.m ** k, dtype=np.int64)
            for (cur, _), at in engine._located(k, engine._images(k, words)):
                assert np.array_equal(at, here.pos[cur]), (name, k)
                terms += 1
    assert terms == len(catalog_names()) * sum(range(2, 7))


def _recording_engines(monkeypatch):
    """The engines built from now on, in order."""
    engines = []
    init = _Engine.__init__

    def recording(self, cs):
        init(self, cs)
        engines.append(self)

    monkeypatch.setattr(_Engine, "__init__", recording)
    return engines


def test_top_degree_builds_no_word_arrays(monkeypatch):
    # w1 vanishes at degree 10: its steps read the word arrays of degree 9,
    # and degree 10 keeps only its orbit graph
    engines = _recording_engines(monkeypatch)
    g = graded_dims(build_entry("w1").system, cap=16)
    assert g.terminated == "zero" and len(g.dims) == 11
    (engine,) = engines
    assert not {"label", "order", "pos"} & set(vars(engine.orbits(10)))
    assert {"label", "pos"} <= set(vars(engine.orbits(9)))


def test_graded_dims_w1_peak_memory():
    # about 43 MiB while degree 10 built its label, order and pos over all
    # 4^10 words; about 13 MiB with the arrays of degree 9 only
    cs = build_entry("w1").system
    graded_dims(cs, cap=16)
    tracemalloc.start()
    try:
        assert graded_dims(cs, cap=16).total == 72
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20, peak / 2 ** 20


def test_c_arrays_match_reference_braiding_ops():
    rng = np.random.default_rng(7)
    for name in catalog_names():
        cs = build_entry(name).system
        engine = _Engine(cs)
        m = cs.size
        for k in range(2, 6):
            subset = rng.integers(0, m ** k, size=3 * m ** k // 2)  # with repeats
            for i, op in enumerate(braiding_ops(cs, k), start=1):
                target = np.array(op.target)
                for idx in (None, subset):
                    words = np.arange(m ** k) if idx is None else idx
                    perm, sidx = engine._c_arrays(k, i, idx)
                    assert (perm == target[words]).all(), (name, k, i)
                    scalars = [cs.entry(s // m, s % m) for s in sidx.tolist()]
                    assert scalars == [op.scalar[w] for w in words.tolist()], (name, k, i)


def _reference_labels(solution, k):
    """The orbit id of every degree-k word, from the words alone.

    Every word starts labelled by itself; the smaller label wins across every
    c_i word edge, in both directions, and a word takes the label of its
    label, until nothing changes.  Each word then carries the smallest word
    of its orbit, and orbit ids follow the smallest words.
    """
    m = solution.size
    words = np.arange(m ** k, dtype=np.int64)
    first = np.array([[solution.r(p, q)[0] for q in range(m)] for p in range(m)])
    second = np.array([[solution.r(p, q)[1] for q in range(m)] for p in range(m)])
    moves = []
    for i in range(1, k):
        high, low = m ** (k - i), m ** (k - i - 1)
        p, q = words // high % m, words // low % m
        moves.append(words + (first[p, q] - p) * high + (second[p, q] - q) * low)
    least = words.copy()
    while True:
        before = least.copy()
        for move in moves:
            np.minimum(least, least[move], out=least)
            least[move] = np.minimum(least[move], least)
        least = least[least]
        if (least == before).all():
            break
    return np.unique(least, return_inverse=True)[1]


def _reference_orbits(solution, k):
    """(label, order, starts, pos) of the B_k-orbits on the degree-k words,
    from the words alone.

    Words are listed orbit after orbit, node-major within each orbit: by the
    orbit of the first k-1 letters, then the last letter, then, within
    that, by the orbit of the first k-2 letters and the letter after them,
    and so on, with every prefix labelled by ``_reference_labels`` of its
    own degree.
    """
    m = solution.size
    words = np.arange(m ** k, dtype=np.int64)
    label = _reference_labels(solution, k)
    keys = [label]
    for j in range(k - 1, 0, -1):
        prefix = _reference_labels(solution, j)[words // m ** (k - j)]
        keys += [prefix, words // m ** (k - j - 1) % m]
    order = np.lexsort(keys[::-1])
    starts = np.concatenate(([0], np.cumsum(np.bincount(label))))
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size) - starts[label[order]]
    return label, order, starts, pos


def _assert_orbits_match_reference(engine, solution, k):
    got = engine.orbits(k)
    mine = (got.label, got.order, got.starts, got.pos)
    for field, ref in zip(mine, _reference_orbits(solution, k)):
        assert np.array_equal(field, ref), k


def test_orbits_match_word_level_reference():
    for name in catalog_names():
        cs = build_entry(name).system
        engine = _Engine(cs)
        for k in range(7):
            _assert_orbits_match_reference(engine, cs.solution, k)


def test_orbits_match_reference_beyond_small_id_types():
    # 286 orbits of x4-sigma at degree 10 (ids past 2^8), and C(43, 4) = 123410
    # orbits of the flip on 40 letters at degree 4 (ids past 2^16); the
    # flip's labels need only the solution
    x4 = build_entry("x4-sigma").system
    engine = _Engine(x4)
    assert engine.orbits(10).count == 286
    _assert_orbits_match_reference(engine, x4.solution, 10)
    flip = SetSolution.flip(40)
    labeller = BraidOrbits(flip)
    assert labeller.orbits(4).count == math.comb(43, 4)
    _assert_orbits_match_reference(labeller, flip, 4)


def _staircase_scalars(engine, k, object_mode):
    words = np.arange(engine.m ** k, dtype=np.int64)
    terms = engine._images(k, words)
    return [
        (cur.tolist(), [int(v) for v in scal.reshape(-1)], den)
        for cur, scal, den, _ in engine._terms_exact(terms, words.size, object_mode)
    ]


def test_staircase_scalars_int64_match_object():
    # large numerators and denominators: the int64 products would wrap
    # without promotion
    q = parse_scalar("1000003/1000001")
    engine = _Engine(build_entry("z2-shift", {"q": q}).system)
    assert _staircase_scalars(engine, 8, False) == _staircase_scalars(engine, 8, True)
    # random tables of large height in every field the catalog needs; any
    # table is a braiding on the flip solution
    rng = random.Random(7)
    for order in (1, 2, 3, 4, 5, 8, 12):
        phi = euler_phi(order)
        table = [
            [
                CycloElement(order, [rng.randint(-(2 ** 20), 2 ** 20) for _ in range(phi)])
                or CycloElement.one(order)
                for _ in range(2)
            ]
            for _ in range(2)
        ]
        engine = _Engine(validate_coefficients(SetSolution.flip(2), table))
        fast = _staircase_scalars(engine, 5, False)
        assert fast == _staircase_scalars(engine, 5, True), order
        assert max(abs(v) for v in fast[-1][1]) >= 2 ** 63, order


def test_large_height_q_promotes_and_keeps_binomial_growth():
    # the staircase sums leave int64 at degree 5 here, so the steps finish in
    # object arithmetic
    q = parse_scalar("1000003/1000001")
    for name, cap in (("z2-shift", 8), ("z3-shift", 5)):
        cs = build_entry(name, {"q": q}).system
        m = cs.size
        g = graded_dims(cs, cap=cap, mode="exact", exact_cap=m ** cap)
        assert g.dims == tuple(math.comb(k + m - 1, m - 1) for k in range(cap + 1))


def _cyclo(c, order=1):
    if not isinstance(c, CycloElement):
        c = CycloElement.from_rational(Fraction(c))
    return c.to_order(math.lcm(order, c.order))


def _reference_image(cs, element):
    """The symmetrizer image through the CycloElement reference layer."""
    terms = [(_cyclo(c), w) for c, w in element]
    k = len(terms[0][1])
    order = reduce(math.lcm, (c.order for c, _ in terms), cs.order)
    work = CoefficientSystem(
        cs.solution, order, [[e.to_order(order) for e in row] for row in cs.R]
    )
    vec = [CycloElement.zero(order)] * (cs.size ** k)
    for c, word in terms:
        idx = word_index(word, cs.size)
        vec[idx] = vec[idx] + c.to_order(order)
    return symmetrizer_apply(work, vec, k)


def _random_coefficient(rng, order):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-3, 3) or 1
    if kind == 1:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 7))
    phi = euler_phi(order)
    return CycloElement(order, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(phi)])


def _random_elements(rng, entry, k):
    """Random degree-k elements with repeated words, and elements of the
    two-sided ideal of the catalog relations (which the symmetrizer kills)."""
    cs = entry.system
    m = cs.size
    orders = (cs.order, math.lcm(cs.order, 4))  # zeta4 above an order-2 system
    out = []
    for _ in range(3):
        order = rng.choice(orders)
        words = [tuple(rng.randrange(m) for _ in range(k)) for _ in range(rng.randint(1, 4))]
        words += rng.choices(words, k=2)
        out.append([(_random_coefficient(rng, order), w) for w in words])
    relations = [terms for _, terms in entry.relations if len(terms[0][1]) <= k]
    for _ in range(3 if relations else 0):
        order = rng.choice(orders)
        element = []
        for _ in range(2):
            terms = rng.choice(relations)
            pad = k - len(terms[0][1])
            a = rng.randint(0, pad)
            prefix = tuple(rng.randrange(m) for _ in range(a))
            suffix = tuple(rng.randrange(m) for _ in range(pad - a))
            scale = _random_coefficient(rng, order)
            element += [
                (_cyclo(scale, order) * _cyclo(c, order), prefix + tuple(w) + suffix)
                for c, w in terms
            ]
        out.append(element)
    return out


def test_relation_path_matches_reference_symmetrizer(monkeypatch):
    # the orbit-blocked relation check against the dense CycloElement
    # reference, on every catalog entry, vanishing and non-vanishing; the
    # corpus walks some (tail, orbit) group of two or more seeded nodes into
    # its one output segment
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    shared = []
    entries = _SeedTable.entries

    def recording(self, part):
        # the number of seeds on each output segment the walk shares
        segments = self.segments[self.bounds[part.start] : self.bounds[part.stop]]
        counts = np.unique(segments, return_counts=True)[1]
        shared.extend(counts[counts > 1].tolist())
        return entries(self, part)

    monkeypatch.setattr(_SeedTable, "entries", recording)
    for name in catalog_names():
        entry = build_entry(name)
        for k in range(5):
            for element in _random_elements(rng, entry, k):
                expected = _reference_image(entry.system, element)
                assert relation_image(entry.system, element) == expected, (name, k)
                vanishes = not any(expected)
                assert check_relation(entry.system, element) == vanishes, (name, k)
                seen[vanishes] += 1
    assert seen[True] >= 50 and seen[False] >= 50, seen
    assert shared, "no relation group seeded two nodes"


def test_relation_path_promotes_large_heights():
    # q^15 leaves int64 at degree 6, so the symmetrizer finishes in object
    # arithmetic
    cs = build_entry("z2-shift", {"q": parse_scalar("1000003")}).system
    rng = random.Random(5)
    words = [tuple(rng.randrange(2) for _ in range(6)) for _ in range(5)]
    element = [(rng.randint(1, 9), w) for w in words]
    idx = np.array(sorted({word_index(w, 2) for w in words}), dtype=np.int64)
    ones = np.zeros((idx.size, 1), dtype=np.int64)
    ones[:, 0] = 1
    _, blocks = _Engine(cs).symmetrize(6, idx, ones)
    assert any(rows.dtype == object for _, rows in blocks)
    expected = _reference_image(cs, element)
    assert max(abs(c.coeffs[0]) for c in expected) >= 2 ** 63
    assert relation_image(cs, element) == expected
    assert not check_relation(cs, element)


def test_check_relation_builds_no_word_arrays_of_its_degree():
    # S_j = T_j (S_{j-1} (x) id) walks T_j on the orbits of degree j and reads
    # the word arrays of degree j-1 only, so a degree-6 check leaves degree 6
    # with its orbit graph; only relation_image names the image's words
    entry = build_entry("w1")
    (element,) = [terms for _, terms in entry.relations if len(terms[0][1]) == 6]
    _relation_engine.cache_clear()
    assert check_relation(entry.system, element)
    top = _relation_engine(entry.system).orbits(6)
    assert not {"label", "order", "pos"} & set(vars(top))
    assert not any(relation_image(entry.system, element))
    assert "order" in vars(top)


def test_escalation_resumes_from_exact_basis(monkeypatch):
    # auto mode on w1 runs degrees 7..10 modular and escalates at 10; the
    # exact chain continues from degree 6 instead of replaying from 2
    stepped = []
    original = _Engine.exact_step

    def counting(self, prev_rows, k):
        stepped.append(k)
        return original(self, prev_rows, k)

    monkeypatch.setattr(_Engine, "exact_step", counting)
    g = graded_dims(build_entry("w1").system)
    assert g.total == 72
    assert sorted(stepped) == list(range(2, 11))


def _node_words(engine, k, blocks):
    """The words of a group's seed blocks, block after block (node (P, y)
    holds P's words below, times m plus y), and the slice of them each
    block's seeds live on."""
    below, m = engine.orbits(k - 1), engine.m
    words = [below.words(node // m) * m + node % m for node, _ in blocks]
    ends = np.cumsum([w.size for w in words]).tolist()
    slices = [slice(end - w.size, end) for end, w in zip(ends, words)]
    return np.concatenate(words), [(sl, rows) for sl, (_, rows) in zip(slices, blocks)]


def _reference_seeds(engine, prev_rows, k):
    """The seed groups (orbit, size, [(node, stacked rows), ...]) of a
    degree-k step, from the orbit graph alone, orbit by orbit in ascending
    id: a row on the degree-(k-1) orbit P seeds every node (P, y), id
    P m + y, in orbit links[P m + y], in ascending node id; on the paper's
    class only an orbit's head node is seeded."""
    m, here = engine.m, engine.orbits(k)
    rows_of = {}
    for row, orbit in zip(prev_rows, prev_rows.orbits):
        rows_of.setdefault(orbit, []).append(row)
    heads = set(here.heads.tolist())
    groups = {}
    for node in range(here.links.size):
        if node // m in rows_of and (node in heads or not engine.rank_one):
            groups.setdefault(int(here.links[node]), []).append((node, np.stack(rows_of[node // m])))
    return [(orbit, int(here.sizes[orbit]), groups[orbit]) for orbit in sorted(groups)]


def _add_dense_span(out, orbit, space, accs):
    """Insert every seed row, over the whole orbit, into the empty row space
    and append the basis it kept to ``out``."""
    for acc in accs:
        for seed in acc:
            space.insert(seed)
    out.extend(space.rows)
    out.orbits += [orbit] * space.rank


def _per_orbit_step(engine, prev_rows, k):
    """exact_step evaluated one orbit and one seed block at a time: each
    orbit keeps its own int64 bound and turns object on its own."""
    ctx = engine.ctx
    here = engine.orbits(k)
    total_den = engine.r_den ** (k - 1)
    out = OrbitRows()
    for orbit, size, blocks in _reference_seeds(engine, prev_rows, k):
        sources, blocks = _node_words(engine, k, blocks)
        object_mode = any(rows.dtype == object for _, rows in blocks)
        seed_max = max(_max_abs(rows) for _, rows in blocks)
        accs = [np.zeros((len(rows), size, ctx.phi), dtype=np.int64) for _, rows in blocks]
        bound = 0
        terms = engine._images(k, sources)
        for cur, scal, den, _ in engine._terms_exact(terms, sources.size, object_mode):
            scale = total_den // den
            if not object_mode:
                bound += seed_max * _max_abs(scal) * ctx.mul_bound * scale
            if object_mode or scal.dtype == object or bound >= 2 ** 62:
                object_mode = True
                blocks = [(sl, rows.astype(object)) for sl, rows in blocks]
                accs = [acc.astype(object) for acc in accs]
                scal = scal.astype(object)
            target = here.pos[cur]
            for (sl, rows), acc in zip(blocks, accs):
                acc[:, target[sl]] += mul_rows_elementwise(rows, scal[sl], ctx) * scale
        _add_dense_span(out, orbit, ExactIntRows(ctx, size), accs)
    return out, len(out)


def _whole_rows(engine, k, rows):
    """The engine's degree-k rows over their whole orbits, as the per-orbit
    references take and give them."""
    return OrbitRows(orbit_length_rows(rows, engine.orbits(k).sizes[rows.orbits]), rows.orbits)


def _assert_same_rows(engine, k, got, expected):
    """The engine's degree-k rows, over their whole orbits, against the
    reference's."""
    assert got.orbits == expected.orbits
    assert len(got) == len(expected)
    for a, b in zip(_whole_rows(engine, k, got), expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tolist() == b.tolist()


def _checked_chain(engine, max_words):
    """Run the exact chain while m^k <= max_words, checking every step
    against the per-orbit reference; yields (k, rows) per step."""
    rows = engine.identity_rows()
    k = 1
    while engine.m ** (k + 1) <= max_words and len(rows):
        k += 1
        expected, _ = _per_orbit_step(engine, _whole_rows(engine, k - 1, rows), k)
        rows, dim = engine.exact_step(rows, k)
        _assert_same_rows(engine, k, rows, expected)
        assert dim == len(expected)
        yield k, rows


def test_batched_exact_step_matches_per_orbit_reference():
    # the batched staircase walk against one pass per orbit and per block,
    # bit for bit: orbits, row values and dtypes
    steps = 0
    for name in catalog_names():
        for q in (None, "zeta3", "-1", "2"):
            try:
                entry = build_entry(name, None if q is None else {"q": q})
            except (ConstraintViolation, HexagonViolation):
                continue
            steps += sum(1 for _ in _checked_chain(_Engine(entry.system), 2 ** 14))
    assert steps >= 150, steps


def test_batched_exact_step_promotes_orbit_by_orbit(monkeypatch):
    # an orbit turns object exactly when its own int64 bound would be
    # crossed, and the int64 orbits batched with it stay int64.  With
    # q = 1000003/1000001 alone, r_den^(k-1) crosses int64 in every orbit of
    # a degree at once, so a = 3 sets the orbits of z2-shift apart; with an
    # integer q the orbits without fixed pairs never grow.
    walks = _recording_walks(monkeypatch)
    mixed = 0
    cases = (
        ("z2-shift", {"q": "1000003/1000001", "a": "3"}, 6),
        ("z3-shift", {"q": "1000003/1000001"}, 6),
        ("z2-shift", {"q": "1000003"}, 8),
        ("z3-shift", {"q": "1000003"}, 7),
    )
    for name, params, cap in cases:
        engine = _Engine(build_entry(name, params).system)
        for _, rows in _checked_chain(engine, engine.m ** cap):
            mixed += {row.dtype == object for row in rows} == {True, False}
    assert mixed >= 4, mixed
    refused = [len(orbits) for _, orbits, _, outs in walks if outs is None]
    assert refused and max(refused) > 1


def _recording_walks(monkeypatch):
    """Record each staircase walk as (degree, orbits it walks into, seeds
    object? per orbit (None when they mix int64 and object rows), outputs
    object? per orbit or None for a refused walk).  The orbits are those of
    the walked words, read from the word labels of their degree."""
    walks = []
    walk = _Engine._staircase_walk

    def recording(self, k, entries, promote):
        out = walk(self, k, entries, promote)
        orbits = np.unique(self.orbits(k).label[entries.words]).tolist()
        seeds = None if entries.mixed else [entries.vals.dtype == object] * len(orbits)
        outs = None if out is None else [out.dtype == object] * len(orbits)
        walks.append((k, orbits, seeds, outs))
        return out

    monkeypatch.setattr(_Engine, "_staircase_walk", recording)
    return walks


def test_growth_degrees_walk_in_few_batches(monkeypatch):
    # a batch closes at 2^14 accumulator entries or the largest orbit's, so
    # the 28 degree steps of the q = 2 growth cases take 33 staircase walks;
    # closing at the largest orbit's alone took 279
    walks = _recording_walks(monkeypatch)
    for name, cap in (("z2-shift", 14), ("z3-shift", 9), ("z4-shift1", 8)):
        cs = build_entry(name, {"q": "2"}).system
        m = cs.size
        g = graded_dims(cs, cap=cap, mode="exact", exact_cap=m ** cap)
        assert g.dims == tuple(math.comb(k + m - 1, m - 1) for k in range(cap + 1))
    assert len(walks) <= 33, len(walks)


def test_bisected_batches_promote_only_their_own_orbits(monkeypatch):
    # q = 1000003: a degree's orbits cross int64 at different degrees, so
    # whole batches are refused and bisected.  An orbit with int64 seeds
    # turns object only when walked alone, and the rows match the per-orbit
    # reference bit for bit
    walks = _recording_walks(monkeypatch)
    engine = _Engine(build_entry("z3-shift", {"q": "1000003"}).system)
    mixed = 0
    for _, rows in _checked_chain(engine, 3 ** 7):
        mixed += {row.dtype == object for row in rows} == {True, False}
    assert mixed >= 2, mixed
    for (k, orbits, seeds, outs), after in zip(walks, walks[1:]):
        if outs is not None and len(orbits) > 1:
            assert outs == seeds, (k, orbits)
        if outs is None:  # bisected: the first half walks next
            assert after[:2] == (k, orbits[: len(orbits) // 2]), (k, orbits, after)
    # a refused batch, bisected, left some of its orbits int64 and promoted
    # others on their own walks
    promoted = {(k, o[0]) for k, o, seeds, outs in walks if seeds == [False] and outs == [True]}
    refused = [{(k, o) for o in orbits} for k, orbits, _, outs in walks if outs is None]
    assert any(0 < len(batch & promoted) < len(batch) for batch in refused)


def test_exact_step_matches_per_orbit_reference_on_sparse_seeds():
    # from degree 7 on, most source words of the seeded orbits of w1 and w6
    # carry no seed entry, and the walk visits only the others; the
    # reference walks every source word
    for name in ("w1", "w6"):
        engine = _Engine(build_entry(name).system)
        assert [k for k, _ in _checked_chain(engine, 4 ** 10)] == list(range(2, 11))


def test_off_class_rows_gather_no_zero(monkeypatch):
    # off the paper's class a kept row stores its nonzero values only, at
    # strictly ascending columns inside its orbit, and the seed table gathers
    # those values alone: on w1 and w6, exactly and at both primes of the
    # order, every value gathered is an entry walked
    counts = [0, 0]  # values gathered, entries walked
    entries = _SeedTable.entries

    def recording(self, part):
        out = entries(self, part)
        counts[0] += int(self.widths[self.bounds[part.start] : self.bounds[part.stop]].sum())
        counts[1] += len(out.vals)
        return out

    monkeypatch.setattr(_SeedTable, "entries", recording)
    for name in ("w1", "w6"):
        engine = _Engine(build_entry(name).system)
        assert not engine.rank_one
        primes = primes_for_order(engine.cs.order, count=2)
        start = engine.identity_rows()
        for p, rows in [(None, start)] + [(p, engine.specialize_rows(start, p)) for p in primes]:
            dims = []
            for k in range(2, 11):
                rows, dim = engine.exact_step(rows, k) if p is None else engine.mod_step(rows, k, p)
                dims.append(dim)
                assert len(rows.columns) == dim
                sizes = engine.orbits(k).sizes[rows.orbits]
                for row, columns, size in zip(rows, rows.columns, sizes):
                    assert columns.size == len(row) and (np.diff(columns) > 0).all()
                    assert 0 <= columns[0] and columns[-1] < size
                    assert (row != 0).reshape(len(row), -1).any(axis=1).all()
            assert dims == [8, 11, 12, 12, 11, 8, 4, 1, 0], (name, p)
    assert counts[0] == counts[1] > 0, counts
    # a support row specialized mod p keeps the columns whose value survives
    phi, p = engine.ctx.phi, primes[0]
    row = np.zeros((3, phi), dtype=np.int64)
    row[:, 0] = [1, p, 2]
    special = engine.specialize_rows(OrbitRows([row], [0], [np.array([0, 3, 5])]), p)
    assert special[0].tolist() == [1, 2] and special.columns[0].tolist() == [0, 5]


def test_exact_walk_visits_only_words_with_an_entry(monkeypatch):
    # exact_step(rows_9, 10) on w1: 6,048 of the 132,096 source words carry
    # a seed entry, and each of the 9 mapped staircase terms sees only those
    engine = _Engine(build_entry("w1").system)
    rows = engine.identity_rows()
    for k in range(2, 10):
        rows, _ = engine.exact_step(rows, k)
    mapped = []
    c_arrays = _Engine._c_arrays

    def counting(self, k, i, idx=None):
        mapped.append(idx.size)
        return c_arrays(self, k, i, idx)

    monkeypatch.setattr(_Engine, "_c_arrays", counting)
    assert engine.exact_step(rows, 10)[1] == 0
    assert 0 < sum(mapped) <= 9 * 6048, sum(mapped)


def test_walks_visit_each_source_word_once(monkeypatch):
    # the rows of one orbit below seed its nodes together: off the paper's
    # class the table 2 keeps up to 6 rows per degree-4 orbit, and each
    # degree-5 walk still visits every source word once
    words = []
    walk = _Engine._staircase_walk

    def recording(self, k, entries, promote):
        words.append(entries.words)
        return walk(self, k, entries, promote)

    monkeypatch.setattr(_Engine, "_staircase_walk", recording)
    cs = validate_coefficients(SetSolution.cyclic_shift(2), [[2, 2], [2, 2]])
    assert graded_dims(cs, cap=5, mode="exact").dims == (1, 2, 4, 8, 16, 32)
    assert all(np.unique(w).size == w.size for w in words)
    assert sum(w.size for w in words) == sum(2 ** k for k in range(2, 6))


def _per_orbit_mod_step(engine, prev_vecs, k, p):
    """mod_step evaluated one orbit and one seed block at a time: one running
    product per source word, and every term reduces the whole accumulator."""
    here = engine.orbits(k)
    rmod = engine.r_mod(p)
    out = OrbitRows()
    for orbit, size, blocks in _reference_seeds(engine, prev_vecs, k):
        sources, blocks = _node_words(engine, k, blocks)
        accs = [np.zeros((len(stacked), size), dtype=np.int64) for _, stacked in blocks]
        cur, scal = sources, np.ones(sources.size, dtype=np.int64)
        for i in range(k, 0, -1):
            if i < k:
                cur, sidx = engine._c_arrays(k, i, cur)
                scal = scal * rmod[sidx] % p
            target = here.pos[cur]
            for (sl, stacked), acc in zip(blocks, accs):
                t = target[sl]
                acc[:, t] = (acc[:, t] + stacked * scal[sl]) % p
        _add_dense_span(out, orbit, ModRows(p, size), accs)
    return out, len(out)


def test_mod_steps_hand_reduced_arrays_to_elimination(monkeypatch):
    # the modular walk reduces its sums once: every output a modular step
    # hands on, to elimination (off the paper's class) or to the lone-row
    # reduction (on it), lies in [0, p), at both primes of the order
    handed = []
    walk = _Engine._mod_walk

    def recording(self, p, k, entries):
        out = walk(self, p, k, entries)
        handed.append(out)
        return out

    monkeypatch.setattr(_Engine, "_mod_walk", recording)
    for name, top in (("w1", 8), ("x4-sigma", 5)):
        engine = _Engine(build_entry(name).system)
        for p in primes_for_order(engine.cs.order, count=2):
            rows = engine.specialize_rows(engine.identity_rows(), p)
            for k in range(2, top + 1):
                handed.clear()
                rows, _ = engine.mod_step(rows, k, p)
                assert handed, (name, p, k)
                assert all(0 <= a.min() and a.max() < p for a in handed), (name, p, k)


def test_batched_mod_step_matches_per_orbit_reference():
    # the entry walk against one pass per orbit and per block at both primes
    # of the order: orbits, row values and dtypes
    steps = 0
    for name in catalog_names():
        for q in (None, "zeta3", "-1", "2"):
            try:
                entry = build_entry(name, None if q is None else {"q": q})
            except (ConstraintViolation, HexagonViolation):
                continue
            engine = _Engine(entry.system)
            for p in primes_for_order(entry.system.order, count=2):
                rows = engine.specialize_rows(engine.identity_rows(), p)
                k = 1
                while engine.m ** (k + 1) <= 2 ** 14 and len(rows):
                    k += 1
                    whole = _whole_rows(engine, k - 1, rows)
                    expected, _ = _per_orbit_mod_step(engine, whole, k, p)
                    rows, dim = engine.mod_step(rows, k, p)
                    _assert_same_rows(engine, k, rows, expected)
                    assert dim == len(expected)
                    steps += 1
    assert steps >= 350, steps


def test_compact_steps_drop_columns_cancelled_in_every_seed(monkeypatch):
    # off the paper's class a walk writes each orbit position some staircase
    # term reaches; on w1, and on w3 at zeta3 (phi = 2), some of them cancel
    # in every seed of their orbit.  Elimination drops those columns, and the
    # rows match the dense per-orbit references bit for bit, exactly and at
    # both primes of the order
    cancelled = Counter()
    arithmetic = [None]
    add_span = OrbitRows.add_span

    def recording(self, orbit, seeds, columns, space):
        assert columns.size == seeds.shape[1] and (np.diff(columns) > 0).all()
        live = (seeds != 0).reshape(len(seeds), seeds.shape[1], -1).any(axis=(0, 2))
        cancelled[arithmetic[0]] += int(np.count_nonzero(~live))
        return add_span(self, orbit, seeds, columns, space)

    monkeypatch.setattr(OrbitRows, "add_span", recording)
    for name, q, top in (("w1", None, 6), ("w3", "zeta3", 5)):
        engine = _Engine(build_entry(name, None if q is None else {"q": q}).system)
        assert not engine.rank_one
        arithmetic[0] = (name, None)
        assert [k for k, _ in _checked_chain(engine, engine.m ** top)] == list(range(2, top + 1))
        for p in primes_for_order(engine.cs.order, count=2):
            arithmetic[0] = (name, p)
            rows = engine.specialize_rows(engine.identity_rows(), p)
            for k in range(2, top + 1):
                expected, _ = _per_orbit_mod_step(engine, _whole_rows(engine, k - 1, rows), k, p)
                rows, dim = engine.mod_step(rows, k, p)
                _assert_same_rows(engine, k, rows, expected)
                assert dim == len(expected)
    assert len(cancelled) == 6 and all(cancelled.values()), cancelled


def test_off_class_degrees_walk_once_per_arithmetic(monkeypatch):
    # graded_dims of the racks w1 and w6 (auto: exact, both primes of the
    # order, then the exact replay from degree 7) walks each off-class degree
    # in one batch per arithmetic into compact outputs: 34 walks writing
    # 1,042,376 entries, where walks of one orbit into whole-orbit segments
    # took 132 and wrote 8,493,056
    walks = Counter()
    written = []
    exact, modular = _Engine._staircase_walk, _Engine._mod_walk

    def recording_exact(self, k, entries, promote):
        out = exact(self, k, entries, promote)
        walks[self.cs, k, None] += 1
        written.append(0 if out is None else len(out))
        return out

    def recording_mod(self, p, k, entries):
        out = modular(self, p, k, entries)
        walks[self.cs, k, p] += 1
        written.append(len(out))
        return out

    monkeypatch.setattr(_Engine, "_staircase_walk", recording_exact)
    monkeypatch.setattr(_Engine, "_mod_walk", recording_mod)
    for name in ("w1", "w6"):
        cs = build_entry(name).system
        graded = graded_dims(cs, primes=primes_for_order(cs.order, count=2))
        assert graded.dims == (1, 4, 8, 11, 12, 12, 11, 8, 4, 1, 0)
        assert any(r.mode == "modular+exact" for r in graded.provenance)
    assert max(walks.values()) <= 2, walks
    assert sum(written) <= 1_100_000, sum(written)


def _small_primes(order, count=2):
    """The first ``count`` primes that are 1 mod ``order``."""
    found, p = [], 1
    while len(found) < count:
        p += order
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            found.append(p)
    return tuple(found)


def _assert_identical_rows(got, expected):
    assert got.orbits == expected.orbits and len(got) == len(expected)
    assert (got.columns is None) == (expected.columns is None)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tolist() == b.tolist()
    for a, b in zip(got.columns or (), expected.columns or ()):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


def test_second_prime_walks_from_the_first_primes_plan(monkeypatch):
    # every catalog entry at its default point, at the two primes of its
    # order and at two small primes, plus two points where the primes'
    # supports part: the second prime's step on the engine that just stepped
    # the first equals its step on a fresh engine, rows, dtypes and columns.
    # It walks from the first prime's plan when its rows have the plan's
    # support, and rebuilds the step otherwise
    built = []
    node_seeds = _Engine._node_seeds

    def recording(self, prev_rows, k):
        built.append(k)
        return node_seeds(self, prev_rows, k)

    monkeypatch.setattr(_Engine, "_node_seeds", recording)
    points = [(build_entry(name).system, None) for name in catalog_names()]
    points += [(build_entry("w3", {"q": "zeta3"}).system, (7, 13)),
               (build_entry("w1", {"q": "-1"}).system, (2, 3))]
    reused = rebuilt = 0
    for cs, given in points:
        for first, second in [given] if given else [primes_for_order(cs.order, count=2),
                                                    _small_primes(cs.order)]:
            engine = _Engine(cs)
            start = engine.identity_rows()
            rows = [engine.specialize_rows(start, p) for p in (first, second)]
            k = 1
            while engine.m ** (k + 1) <= 4 ** 7 and len(rows[0]) and len(rows[1]):
                k += 1
                rows[0], _ = engine.mod_step(rows[0], k, first)
                plan = engine._plan
                assert plan is None or (plan.k == k and not engine.rank_one)
                built.clear()
                got, dim = engine.mod_step(rows[1], k, second)
                if plan is not None:
                    same = plan.fits(rows[1], k)
                    assert built == ([] if same else [k]), (cs, k)
                    reused += same
                    rebuilt += not same
                expected, _ = _Engine(cs).mod_step(rows[1], k, second)
                _assert_identical_rows(got, expected)
                assert dim == len(expected)
                rows[1] = got
    assert (reused, rebuilt) == (84, 4)


def test_walk_plan_fits_its_degree_and_support_only():
    # a plan serves rows of its own degree on the same orbits and columns
    # only; rows of another support, here one value dropped from one row,
    # rebuild the step and step as on a fresh engine
    engine = _Engine(build_entry("w1").system)
    p = primes_for_order(engine.cs.order, count=2)[0]
    rows = engine.specialize_rows(engine.identity_rows(), p)
    for k in range(2, 8):
        rows, _ = engine.mod_step(rows, k, p)
    engine.mod_step(rows, 8, p)
    plan = engine._plan
    assert plan.fits(rows, 8) and not plan.fits(rows, 9)
    values = [row.copy() for row in rows]
    columns = [cols.copy() for cols in rows.columns]
    values[0], columns[0] = values[0][:-1], columns[0][:-1]
    other = OrbitRows(values, rows.orbits, columns)
    assert not plan.fits(other, 8)
    assert rows.orbits != rows.orbits[::-1]
    assert not plan.fits(OrbitRows(rows, rows.orbits[::-1], rows.columns), 8)
    got, _ = engine.mod_step(other, 8, p)
    assert engine._plan is not plan and engine._plan.fits(other, 8)
    _assert_identical_rows(got, _Engine(engine.cs).mod_step(other, 8, p)[0])


def test_modular_degrees_make_one_index_pass(monkeypatch):
    # graded_dims of w1 (auto): degrees 2-6 exact, 7-10 at two primes, then
    # the exact replay of 7-10.  Each modular degree makes one index pass
    # (one walk plan), not one per prime, so the staircase maps 75 word
    # arrays where each prime's own pass mapped 105
    passes = Counter()
    mapped = [0]
    compacted, c_arrays = _SeedTable.compacted, _Engine._c_arrays

    def recording_pass(self, part, entries, positions, pairs):
        passes[int(positions.shape[0])] += 1
        return compacted(self, part, entries, positions, pairs)

    def counting(self, k, i, idx=None):
        mapped[0] += 1
        return c_arrays(self, k, i, idx)

    monkeypatch.setattr(_SeedTable, "compacted", recording_pass)
    monkeypatch.setattr(_Engine, "_c_arrays", counting)
    graded = graded_dims(build_entry("w1").system)
    assert [r.mode for r in graded.provenance[7:]] == ["modular+exact"] * 4
    assert passes == {2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 2, 8: 2, 9: 2, 10: 2}, passes
    assert mapped[0] == 75, mapped


def test_exact_steps_and_relation_checks_hold_no_plan(monkeypatch):
    # a forced-exact run and a relation check never build a walk plan, and
    # an auto run ends holding none: its last degrees are the exact replay
    engines = _recording_engines(monkeypatch)
    cs = build_entry("w1").system
    assert graded_dims(cs, mode="exact").total == 72
    assert graded_dims(cs).total == 72
    _relation_engine.cache_clear()
    assert all(check_relation(cs, terms) for _, terms in build_entry("w1").relations)
    assert len(engines) == 3
    assert all(engine._plan is None for engine in engines)


def test_engine_never_holds_a_plan_of_another_degree(monkeypatch):
    # a modular step leaves at most the plan of its own degree, and a step
    # that builds its seed table has freed every plan before, so the engine
    # never holds two (a plan's gather index lives only in the plan)
    node_seeds, mod_step = _Engine._node_seeds, _Engine.mod_step
    plans, held = [], []

    def building(self, prev_rows, k):
        assert self._plan is None, (k, self._plan.k)
        assert all(index() is None for index in held), k
        return node_seeds(self, prev_rows, k)

    def stepping(self, prev_vecs, k, p):
        out = mod_step(self, prev_vecs, k, p)
        assert self._plan is None or self._plan.k == k
        plans.append(self._plan is not None)
        if self._plan is not None:
            held.append(weakref.ref(self._plan.entries.index))
        return out

    monkeypatch.setattr(_Engine, "_node_seeds", building)
    monkeypatch.setattr(_Engine, "mod_step", stepping)
    for name, q, primes, cap in (("w1", None, None, 16), ("w3", "zeta3", None, 7),
                                 ("w3", "zeta3", (7, 13), 7)):
        cs = build_entry(name, q and {"q": q}).system
        graded_dims(cs, cap=cap, exact_cap=64, primes=primes)
    assert any(plans) and not all(plans), plans


def test_elimination_inserts_no_zero_seed(monkeypatch):
    # off the paper's class many seed images vanish on their orbit (over
    # graded_dims of w1 and w6, 220 of 568 exact and 200 of 384 modular
    # seeds); they change no basis and are not inserted
    inserted = Counter()
    exact_insert, mod_insert = ExactIntRows.insert, ModRows.insert

    def exact(self, arr):
        assert (arr != 0).any()
        inserted[None] += 1
        return exact_insert(self, arr)

    def modular(self, vec):
        assert (vec != 0).any()
        inserted[self.p] += 1
        return mod_insert(self, vec)

    monkeypatch.setattr(ExactIntRows, "insert", exact)
    monkeypatch.setattr(ModRows, "insert", modular)
    for name in ("w1", "w6"):
        assert graded_dims(build_entry(name).system).total == 72
    assert inserted[None] == 348 and sum(inserted.values()) == 348 + 184, inserted


def _full_seed_engine(cs):
    """An engine that seeds every node of every orbit, as off the paper's
    class."""
    engine = _Engine(cs)
    engine.rank_one = False
    return engine


def _involutive_systems(qs):
    for name in catalog_names():
        for q in qs:
            try:
                entry = build_entry(name, None if q is None else {"q": q})
            except (ConstraintViolation, HexagonViolation):
                continue
            if entry.involutive:
                yield entry.system


def _compare_to_full_seeds(cs, max_words):
    """Run the exact chain, and the modular chain at both primes of the
    order, on a rank-one engine beside a full-seed engine while m^k <=
    max_words.  Both keep the same orbits, the full-seed engine keeps at most
    one row per orbit, and the rows agree up to a scalar.  Returns the number
    of steps compared."""
    fast, full = _Engine(cs), _full_seed_engine(cs)
    assert fast.rank_one
    start = fast.identity_rows()
    chains = [(None, start)]
    chains += [(p, fast.specialize_rows(start, p)) for p in primes_for_order(cs.order, count=2)]
    steps = 0
    for p, rows in chains:
        ref, k = rows, 1
        while fast.m ** (k + 1) <= max_words and len(ref):
            k += 1
            here = fast.orbits(k)
            seeds = sum(len(r) for *_, blocks in _reference_seeds(fast, rows, k) for _, r in blocks)
            assert seeds <= here.count
            if p is None:
                rows, dim = fast.exact_step(rows, k)
                ref, ref_dim = full.exact_step(ref, k)
            else:
                rows, dim = fast.mod_step(rows, k, p)
                ref, ref_dim = full.mod_step(ref, k, p)
            assert dim == ref_dim and rows.orbits == ref.orbits, (k, p)
            assert len(set(ref.orbits)) == len(ref.orbits), (k, p)
            pairs = zip(_whole_rows(fast, k, rows), _whole_rows(full, k, ref))
            for (a, b), orbit in zip(pairs, ref.orbits):
                size = int(here.starts[orbit + 1] - here.starts[orbit])
                space = ExactIntRows(fast.ctx, size) if p is None else ModRows(p, size)
                space.insert(a)
                space.insert(b)
                assert space.rank == 1, (k, p, orbit)
            steps += 1
    return steps


def test_rank_one_seed_entries_are_all_nonzero(monkeypatch):
    # by Young's factorization (module docstring) a kept row on the paper's
    # class is nonzero on every word of its orbit, so the shared nonzero
    # filter drops nothing there: every walk takes its head nodes whole, with
    # no gather and no renumbered column, in exact and in modular steps
    walked = []
    entries = _SeedTable.entries

    def recording(self, part):
        out = entries(self, part)
        walked.append(out)
        return out

    monkeypatch.setattr(_SeedTable, "entries", recording)
    steps = 0
    for cs in _involutive_systems((None,)):
        engine = _Engine(cs)
        assert engine.rank_one
        start = engine.identity_rows()
        chains = [(None, start)]
        chains += [(p, engine.specialize_rows(start, p)) for p in primes_for_order(cs.order, count=2)]
        for p, rows in chains:
            k = 1
            while engine.m ** (k + 1) <= 2 ** 12 and len(rows):
                k += 1
                walked.clear()
                rows, _ = engine.exact_step(rows, k) if p is None else engine.mod_step(rows, k, p)
                assert walked, (k, p)
                for out in walked:
                    assert out.src == slice(None) and out.words.size == len(out.vals), (k, p)
                    assert (out.vals.reshape(len(out.vals), -1) != 0).any(axis=1).all(), (k, p)
                steps += 1
    assert steps >= 60, steps


def test_rank_one_seeds_match_full_seeds():
    # on the paper's class (involutive, with the pairing) one seed per orbit
    # spans what every seed spans, in exact and in modular steps
    systems = _involutive_systems((None, "zeta3", "-1", "2"))
    steps = sum(_compare_to_full_seeds(cs, 2 ** 14) for cs in systems)
    assert steps >= 250, steps


@pytest.mark.skipif(
    os.environ.get("YBNICHOLS_ACCEPT_EXTENDED") != "1", reason="extended profile only"
)
def test_rank_one_seeds_match_full_seeds_extended():
    steps = sum(
        _compare_to_full_seeds(cs, 2 ** 16) for cs in _involutive_systems(("zeta4", "3"))
    )
    assert steps >= 190, steps


def _witness_sweep(qs, max_words):
    """Over the involutive catalog entries at the given q, every orbit of
    every degree with m^k <= max_words: does the exact chain keep a row on
    it exactly when the witness coefficient, the product of [l]_{q_a}! over
    the maximal blocks (l, a) of its classify witness, is nonzero?  Here
    q_a = R[D(a)][a].  Returns (orbits checked, orbits with coefficient 0,
    mismatches)."""
    checked = vanishing = mismatches = 0
    for cs in _involutive_systems(qs):
        s, m = cs.solution, cs.size
        D = diagonal(s)
        engine = _Engine(cs)
        rows, k = engine.identity_rows(), 1
        while True:
            here = engine.orbits(k)
            kept = set(rows.orbits)
            least = here.order[here.starts[:-1]]
            letters = least[:, None] // m ** np.arange(k - 1, -1, -1) % m
            for orbit, word in enumerate(map(tuple, letters.tolist())):
                coeff = CycloElement.one(cs.order)
                for length, a in maximal_blocks(classify(word, s).witness, s):
                    coeff = coeff * q_analogues(length, cs.entry(D(a), a))[1]
                checked += 1
                vanishing += not coeff
                mismatches += (orbit in kept) != bool(coeff)
            if m ** (k + 1) > max_words:
                break
            k += 1
            rows, _ = engine.exact_step(rows, k)
    return checked, vanishing, mismatches


def test_witness_coefficient_decides_kept_rows():
    """An orbit keeps a row iff its witness coefficient is nonzero.

    Proof (the ``nichols`` module docstring has it in full): along a block
    Psi_l(b) of the witness w every c_i fixes the word, and the braid
    relation forces one scalar q_b = R[D(b)][b] on it.  Young's
    factorization S_k = sum_theta T_theta (S_{l_1} (x) ... (x) S_{l_r})
    over the minimal coset representatives theta of S_k / S_l, with S_l the
    stabilizer of w (the orbit has k!/prod l_j! words), makes S_k(w) a sum
    of distinct words, each scaled by prod_j [l_j]_{q_j}! times a nonzero
    scalar.  With the pairing S_k(w) spans the orbit's image, so the orbit
    keeps a row iff that product is nonzero.  This checks it on the catalog.
    """
    checked, vanishing, mismatches = _witness_sweep((None, "zeta3", "-1", "2"), 2 ** 12)
    assert mismatches == 0
    assert checked >= 2700 and vanishing >= 1700, (checked, vanishing)


@pytest.mark.skipif(
    os.environ.get("YBNICHOLS_ACCEPT_EXTENDED") != "1", reason="extended profile only"
)
def test_witness_coefficient_decides_kept_rows_extended():
    checked, _, mismatches = _witness_sweep((None, "zeta3", "-1", "2", "zeta4", "3"), 2 ** 14)
    assert mismatches == 0
    assert checked >= 5900, checked


def _chain_dims(engine, top):
    rows, dims, most = engine.identity_rows(), [1, engine.m], {}
    for k in range(2, top + 1):
        rows, dim = engine.exact_step(rows, k)
        dims.append(dim)
        most[k] = max(Counter(rows.orbits).values(), default=0)
    return tuple(dims), most


def test_off_class_tables_keep_every_seed():
    # the constant table 2 is a braiding on any solution and these bases are
    # involutive, but 2 * 2 != 1 breaks the pairing: the symmetrizer is
    # injective, so each degree-4 orbit keeps as many rows as it has words
    # (6 for m = 2), and one seed per orbit would lose them
    for s in (SetSolution.cyclic_shift(2), SetSolution.cyclic_shift(3), SetSolution.flip(2)):
        cs = validate_coefficients(s, [[2] * s.size for _ in range(s.size)])
        engine = _Engine(cs)
        assert engine.hypotheses is not None and not engine.hypotheses.pairing_holds
        assert not engine.rank_one
        dims, most = _chain_dims(engine, 5)
        assert (dims, most) == _chain_dims(_full_seed_engine(cs), 5)
        assert dims == tuple(s.size ** k for k in range(6))
        assert graded_dims(cs, cap=5, mode="exact").dims == dims
        assert most[4] == int(np.diff(engine.orbits(4).starts).max()) == {2: 6, 3: 12}[s.size]
        forced = _Engine(cs)
        forced.rank_one = True
        lost = _chain_dims(forced, 5)[0]
        assert all(a < b for a, b in zip(lost[3:], dims[3:])), lost
    # the rack w1 is not involutive: no hypotheses, every seed
    w1 = build_entry("w1").system
    engine = _Engine(w1)
    assert engine.hypotheses is None and not engine.rank_one
    assert _chain_dims(engine, 7) == _chain_dims(_full_seed_engine(w1), 7)


# sha256 prefix of graded_dims(...).to_json() per catalog entry at its
# default point, taken before modular steps ran on the batched walk
GRADED_DIGESTS = {
    "z2-shift": ("6c4273eebbe92692", "6c4273eebbe92692"),
    "z3-shift": ("5627f1fb30dfffff", "d2573b38785891b5"),
    "z4-shift1": ("95365a9bcca4196e", "21279b7191fd63d6"),
    "z4-shift2": ("f90deb2125c297f9", "c97c5736981b031d"),
    "x4-sigma": ("95365a9bcca4196e", "21279b7191fd63d6"),
    **{f"w{i}": ("f8b4079bfe5b8f72", "86fb12ddebba6826") for i in range(1, 9)},
}


def test_graded_dims_json_unchanged():
    # auto with exact caps 64 and 9 (modular steps, agreement and
    # escalation all show in the provenance)
    assert set(GRADED_DIGESTS) == set(catalog_names())
    for name, digests in GRADED_DIGESTS.items():
        cs = build_entry(name).system
        runs = (
            graded_dims(cs, exact_cap=64),
            graded_dims(cs, exact_cap=9),
        )
        got = tuple(
            hashlib.sha256(json.dumps(g.to_json(), sort_keys=True).encode()).hexdigest()[:16]
            for g in runs
        )
        assert got == digests, name


def test_coefficients_beyond_int64():
    # q = 2^65 does not fit int64: the coefficient table starts object, and
    # both modes still give the growth profile k + 1
    entry = build_entry("z2-shift", {"q": str(2 ** 65)})
    engine = _Engine(entry.system)
    assert engine.r_int.dtype == object and engine.r_int_max == 2 ** 65
    for mode in ("exact", "auto"):
        g = graded_dims(entry.system, cap=6, mode=mode, exact_cap=8)
        assert g.dims == tuple(range(1, 8)), mode
        assert (mode != "exact") == any(r.mode == "modular" for r in g.provenance)
    assert all(check_relation(entry.system, terms) for _, terms in entry.relations)


# ---------------------------------------------------------------------------
# hexagon validation against the per-triple CycloElement loop


def _hexagon_reference(s, R):
    """The hexagon identity triple by triple in CycloElement arithmetic, with
    its own index formulas: the reference for ``hexagon_failures``."""
    m = s.size
    failures = []
    for i in range(m):
        for j in range(m):
            tji = s.tau(j, i)
            sij = s.sigma(i, j)
            for k in range(m):
                lhs = R[i][j] * R[tji][k] * R[sij][s.sigma(tji, k)]
                sjk = s.sigma(j, k)
                rhs = R[j][k] * R[i][sjk] * R[s.tau(sjk, i)][s.tau(k, j)]
                if lhs != rhs:
                    failures.append(((i, j, k), lhs, rhs))
    return failures


def _hexagon_takes_object_path(R) -> bool:
    from ybnichols.linalg import CycloCtx

    flat = [e for row in R for e in row]
    ctx = CycloCtx(flat[0].order)
    nums, _ = ctx.to_int_array(flat)
    return _max_abs(nums) ** 3 * ctx.mul_bound ** 2 >= 2 ** 62


def _random_element(rng, order, height):
    coeffs = [
        Fraction(rng.randint(-height, height), rng.choice((1, 1, 2, 3)))
        for _ in range(euler_phi(order))
    ]
    if not any(coeffs):
        coeffs[0] = Fraction(height)
    return CycloElement(order, coeffs)


def test_hexagon_failures_match_reference_on_catalog_tables():
    from ybnichols import catalog

    rng = random.Random(29)
    checked = failing = 0
    for name in catalog_names():
        spec = catalog._spec_for(name)
        for q in (None, "zeta3", "-1", "2"):
            overrides = {key: q for key in spec.defaults if key.startswith("q")} if q else None
            params = catalog._coerce_params(spec, overrides)
            if not all(check(params) for _, check in spec.family_constraints):
                continue
            table = spec.table_builder(params)
            order = reduce(math.lcm, (e.order for row in table for e in row), 1)
            table = [[e.to_order(order) for e in row] for row in table]
            s = spec.solution_builder()
            # the table itself, then single-entry mutations of it
            tables = [table]
            for _ in range(3):
                mutated = [list(row) for row in table]
                i, j = rng.randrange(s.size), rng.randrange(s.size)
                factor = parse_scalar(rng.choice(("2", "-1", "1/3"))).to_order(order)
                mutated[i][j] = mutated[i][j] * factor
                tables.append(mutated)
            for R in tables:
                expected = _hexagon_reference(s, R)
                assert hexagon_failures(s, R) == expected, (name, q)
                checked += 1
                failing += bool(expected)
    assert checked >= 100 and failing >= 30


def test_hexagon_failures_match_reference_on_random_tables():
    rng = random.Random(31)
    kinds = {"fail": 0, "pass": 0, "object": 0}
    for _ in range(240):
        m = rng.randint(1, 5)
        kind = rng.choice(("flip", "shift", "permutation"))
        if kind == "flip":
            s = SetSolution.flip(m)
        elif kind == "shift":
            s = SetSolution.cyclic_shift(m, rng.randrange(m))
        else:
            s = SetSolution.permutation(rng.sample(range(m), m))
        order = rng.choice((1, 2, 3, 4, 5, 8, 12))
        height = rng.choice((1, 3, 2 ** 21, 2 ** 40))
        # a constant table passes; changed entries usually break it
        c = _random_element(rng, order, height)
        R = [[c] * m for _ in range(m)]
        for _ in range(rng.choice((0, 1, 2))):
            R[rng.randrange(m)][rng.randrange(m)] = _random_element(rng, order, height)
        expected = _hexagon_reference(s, R)
        assert hexagon_failures(s, R) == expected, (kind, m, order, height)
        kinds["fail" if expected else "pass"] += 1
        kinds["object"] += _hexagon_takes_object_path(R)
    assert min(kinds.values()) >= 40, kinds


def test_hexagon_failures_match_reference_beyond_int64():
    # the cube of the largest numerator leaves int64 on these tables, and
    # the witnesses keep every digit
    s = SetSolution.cyclic_shift(3)
    for q in (2 ** 21, 2 ** 31, 2 ** 70):
        big = CycloElement(3, [q, Fraction(1, 7)])
        R = [[big] * 3 for _ in range(3)]
        R[0][1] = CycloElement(3, [1, -q])
        assert _hexagon_takes_object_path(R)
        expected = _hexagon_reference(s, R)
        assert expected and hexagon_failures(s, R) == expected
        with pytest.raises(HexagonViolation) as info:
            validate_coefficients(s, R)
        assert list(info.value.witnesses) == expected


def test_graded_dims_predicts_finite_type_dimensions(monkeypatch):
    # graded_dims reads expected_series itself, also where q varies between
    # the parts (z4-shift2) and where a part has q of infinite order
    # (z4-shift2 at (-1, 2)): a wrong coefficient escalates the first modular
    # degree, and a non-involutive base (w1) has no series
    import ybnichols.nichols as nichols

    right = nichols.expected_series
    for overrides in (None, {"q1": "-1", "q2": "2"}):
        z4 = build_entry("z4-shift2", overrides).system
        plain = graded_dims(z4, cap=5, exact_cap=16)
        assert [r.mode for r in plain.provenance[3:]] == ["modular"] * 3
        numerator, pole = right(z4)
        wrong = list(numerator) + [0] * (4 - len(numerator))
        wrong[3] += 1  # off from degree 3, the first modular degree, on
        monkeypatch.setattr(nichols, "expected_series", lambda cs: HilbertSeries(tuple(wrong), pole))
        g = graded_dims(z4, cap=5, exact_cap=16)
        assert g.dims == plain.dims
        assert [r.mode for r in g.provenance[3:]] == ["modular+exact", "exact", "exact"]
        assert g.provenance[3].agreed and g.provenance[3].modular_dims[0] != 0
        monkeypatch.setattr(nichols, "expected_series", right)
    g = graded_dims(build_entry("w1").system, cap=9)
    assert g.dims[7:] == (8, 4, 1)
    assert [r.mode for r in g.provenance[7:]] == ["modular"] * 3
