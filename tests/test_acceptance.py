"""Acceptance suite.

One test per acceptance criterion; each prints a PASS line with its runtime
against the documented budget.  Criterion 5's six extra 72-dimensional runs
sit behind YBNICHOLS_ACCEPT_EXTENDED=1 (same pass condition, longer profile).
"""

import math
import os
import random
import time
from functools import lru_cache

import numpy as np
import pytest

from ybnichols.catalog import build_entry, catalog_names, parse_scalar
from ybnichols.exact import CycloElement
from ybnichols.linalg import ExactIntRows
from ybnichols.nichols import (
    HexagonViolation,
    _Engine,
    braiding_ops,
    check_relation,
    degree2_relation_rank,
    expected_profile,
    graded_dims,
    hexagon_failures,
    orbit_count_oracle,
    theorem_relations,
    theorem_suite,
    validate_coefficients,
)
from ybnichols.orbits import (
    act_sequence,
    classify,
    is_lambda_element,
    orbit_census,
    orbit_words,
    Partition,
)
from ybnichols.ybe import SetSolution

EXTENDED = os.environ.get("YBNICHOLS_ACCEPT_EXTENDED") == "1"


def _report(criterion: str, t0: float, budget: float) -> None:
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget}s budget"
    print(f"\nACCEPTANCE {criterion}: PASS ({elapsed:.2f}s / budget {budget:.0f}s)")


@lru_cache(maxsize=None)
def _dims_exact(name: str, q: str | None):
    overrides = {"q": parse_scalar(q)} if q else None
    entry = build_entry(name, overrides)
    graded = graded_dims(entry.system, cap=16, mode="exact", exact_cap=4 ** 10)
    return entry, graded


THEOREM_CASES = [
    # (catalog name, q override, m, n)
    ("z2-shift", None, 2, 2),
    ("z2-shift", "zeta3", 2, 3),
    ("z2-shift", "zeta4", 2, 4),
    ("z2-shift", "zeta5", 2, 5),
    ("z3-shift", "-1", 3, 2),
    ("z3-shift", "zeta3", 3, 3),
    ("z4-shift1", None, 4, 2),
    ("x4-sigma", None, 4, 2),
    ("x4-sigma", "zeta3", 4, 3),
]


def test_criterion_1_dimension_formula():
    t0 = time.time()
    for name, q, m, n in THEOREM_CASES:
        case_start = time.time()
        entry, graded = _dims_exact(name, q)
        assert graded.terminated == "zero"
        assert graded.total == n ** m, (name, q, graded.total)
        # the multinomial expansion (1 + t + ... + t^(n-1))^m, degree by degree
        assert graded.dims == expected_profile(entry.system) + (0,), (name, q)
        report = theorem_suite(entry.system)
        assert report.mode == "finite" and report.passed, (name, q, report.checks)
        assert report.expected_total == n ** m
        assert all(rec.mode in ("trivial", "exact") for rec in graded.provenance)
        assert time.time() - case_start < 60, (name, q)
    _report("1 (total dimension n^m, exact)", t0, 60 * len(THEOREM_CASES))


def test_criterion_2_degree_four_census():
    t0 = time.time()
    z3 = SetSolution.cyclic_shift(3)
    census = orbit_census(4, z3)
    table = {p.parts: v for p, v in census.by_partition().items()}
    assert table == {(4,): (3, 1), (3, 1): (6, 4), (2, 2): (3, 6), (2, 1, 1): (3, 12)}
    assert census.orbit_count == 15

    def words(text_list):
        return {tuple(int(c) for c in w) for w in text_list}

    assert orbit_words((0, 1, 2, 0), z3) == words(["0120"])
    assert orbit_words((0, 1, 2, 2), z3) == words(["0122", "0110", "0020", "2120"])
    assert orbit_words((0, 1, 0, 1), z3) == words(
        ["0101", "0221", "1121", "0200", "1100", "1220"]
    )
    assert orbit_words((0, 1, 0, 2), z3) == words(
        ["0210", "1110", "0000", "0222", "1020", "1122",
         "2100", "0021", "0102", "2220", "2121", "0111"]
    )
    _report("2 (degree-4 census with exact member sets)", t0, 1)


def test_criterion_3_lambda_classification():
    t0 = time.time()
    z3 = SetSolution.cyclic_shift(3)
    word = tuple(int(c) for c in "0121212020102")
    result = classify(word, z3)
    assert result.partition == Partition([6, 4, 3])
    assert is_lambda_element(result.witness, z3) == result.partition
    # orbit membership: replay the recorded exchange-rule move sequence
    assert act_sequence(result.moves, word, z3) == result.witness
    _report("3 (classification of the thirteen-letter word)", t0, 1)


def test_criterion_4_orbit_counting():
    t0 = time.time()
    for name in catalog_names():
        entry = build_entry(name)
        if not entry.involutive:
            continue
        s = entry.solution
        m = s.size
        for n in range(2, 7):
            census = orbit_census(n, s)
            assert census.orbit_count == math.comb(n + m - 1, m - 1), (name, n)
            total = 0
            for part, (count, size) in census.by_partition().items():
                assert count == part.perm_count(m), (name, n, part)
                assert size == part.orbit_size(), (name, n, part)
                total += count * size
            assert total == m ** n
    _report("4 (orbit counting identities, m <= 4, n <= 6)", t0, 120)


def _check_72(name: str) -> None:
    entry = build_entry(name)
    graded = graded_dims(entry.system, cap=16)
    assert graded.terminated == "zero", name
    assert graded.total == 72, (name, graded.total)
    modular_records = [r for r in graded.provenance if r.mode.startswith("modular")]
    assert modular_records, "two-prime modular arithmetic was never exercised"
    assert all(r.agreed for r in modular_records)
    assert all(len(r.primes) == 2 for r in modular_records)
    assert any(r.escalated for r in graded.provenance), "escalation path not exercised"
    # the vanishing degree is exact-backed
    assert graded.provenance[-1].dim == 0
    assert graded.provenance[-1].mode in ("exact", "modular+exact")


def test_criterion_5_seventy_two_dimensional():
    t0 = time.time()
    for name in ("w1", "w6"):
        case_start = time.time()
        _check_72(name)
        assert time.time() - case_start < 900, name
    _report("5 (w1 and w6 total 72, modular + escalation)", t0, 1800)


@pytest.mark.skipif(not EXTENDED, reason="extended acceptance profile only")
def test_criterion_5_extended_profile():
    t0 = time.time()
    for name in ("w2", "w3", "w4", "w5", "w7", "w8"):
        _check_72(name)
    _report("5+ (extended 72-dimensional profile)", t0, 5400)


def test_criterion_6_relation_verification():
    t0 = time.time()
    for name in catalog_names():
        entry = build_entry(name)
        assert entry.relations, name
        for label, terms in entry.relations:
            assert check_relation(entry.system, terms), (name, label)
    # degree-2 completeness where the finite-dimension theorem applies
    for name in ("z2-shift", "z3-shift", "z4-shift1", "x4-sigma"):
        entry = build_entry(name)
        m = entry.solution.size
        dims2 = graded_dims(entry.system, cap=2).dims[2]
        span = degree2_relation_rank(entry.system, theorem_relations(entry.system))
        assert span == m * m - dims2, name
    _report("6 (published relations vanish; degree-2 span complete)", t0, 300)


def test_criterion_7_product_formula():
    t0 = time.time()
    entry = build_entry("z4-shift2")
    graded = graded_dims(entry.system, cap=16, mode="exact", exact_cap=4 ** 8)
    assert graded.total == 36
    assert all(rec.mode in ("trivial", "exact") for rec in graded.provenance)
    report = theorem_suite(entry.system, dims_mode="exact", exact_cap=4 ** 8)
    assert report.mode == "product" and report.passed
    _report("7 (product formula 36 = 2^2 * 3^2, exact)", t0, 60)


def test_criterion_8_growth_evidence():
    t0 = time.time()
    for name, cap in (("z2-shift", 8), ("z3-shift", 6)):
        entry = build_entry(name, {"q": parse_scalar("2")})
        m = entry.solution.size
        graded = graded_dims(entry.system, cap=cap, mode="exact", exact_cap=m ** cap)
        expected = tuple(math.comb(k + m - 1, m - 1) for k in range(cap + 1))
        assert graded.dims == expected, name
    _report("8 (binomial growth at q = 2, exact over Q)", t0, 300)


# -- criterion 9 helpers


def _direct_symmetrizer_rank(cs, k: int) -> int:
    """Rank of the full matrix of the degree-k symmetrizer, built as the sum
    over all group elements of their braided operator words (BFS over the
    Cayley graph composes each operator exactly once)."""
    engine = _Engine(cs)
    assert engine.r_den == 1  # root-of-unity tables only
    m = cs.size
    L = m ** k
    ctx = engine.ctx
    c_arrays = {i: engine._c_arrays(k, i) for i in range(1, k)}
    identity = tuple(range(k))
    start_scal = np.zeros((L, ctx.phi), dtype=np.int64)
    start_scal[:, 0] = 1
    matrix = np.zeros((L, L, ctx.phi), dtype=np.int64)
    cols = np.arange(L)
    seen = {identity}
    frontier = [(identity, np.arange(L, dtype=np.int64), start_scal)]
    matrix[np.arange(L), cols] += start_scal
    from ybnichols.linalg import mul_rows_elementwise

    while frontier:
        new_frontier = []
        for line, tperm, tscal in frontier:
            for i in range(1, k):
                new_line = list(line)
                new_line[i - 1], new_line[i] = new_line[i], new_line[i - 1]
                new_line = tuple(new_line)
                if new_line in seen:
                    continue
                seen.add(new_line)
                cperm, csidx = c_arrays[i]
                gathered = engine.r_int[csidx[tperm]]
                nscal = mul_rows_elementwise(tscal, gathered, ctx)
                nperm = cperm[tperm]
                matrix[nperm, cols] += nscal
                new_frontier.append((new_line, nperm, nscal))
        frontier = new_frontier
    assert len(seen) == math.factorial(k)
    rows = ExactIntRows(ctx, L)
    for b in range(L):
        rows.insert(matrix[:, b, :])
    return rows.rank


def _two_reduced_words(theta):
    """Reduced words via first-descent and last-descent pivoting."""

    def bubble(pick_last: bool):
        t = list(theta)
        moves = []
        while True:
            descents = [i for i in range(len(t) - 1) if t[i] > t[i + 1]]
            if not descents:
                return moves
            i = descents[-1] if pick_last else descents[0]
            t[i], t[i + 1] = t[i + 1], t[i]
            moves.append(i + 1)

    return bubble(False), bubble(True)


def test_criterion_9_property_suites():
    t0 = time.time()
    rng = random.Random(20260809)

    # braid relation and distant commutation for every validated system, k <= 5
    for name in catalog_names():
        cs = build_entry(name).system
        for k in (3, 4, 5):
            ops = braiding_ops(cs, k)
            for i in range(len(ops) - 1):
                lhs = ops[i].compose(ops[i + 1]).compose(ops[i])
                rhs = ops[i + 1].compose(ops[i]).compose(ops[i + 1])
                assert lhs == rhs, (name, k, i)
            for i in range(len(ops)):
                for j in range(i + 2, len(ops)):
                    assert ops[i].compose(ops[j]) == ops[j].compose(ops[i])
    braid_done = time.time()

    # recursion-vs-direct symmetrizer rank on every case with m^k <= 256
    direct_cases = [("z2-shift", None, 8), ("z3-shift", None, 5), ("x4-sigma", None, 4),
                    ("w1", None, 4)]
    for name, q, kmax in direct_cases:
        entry, graded = _dims_exact(name, q) if name != "w1" else (
            build_entry(name), graded_dims(build_entry(name).system, cap=4,
                                           mode="exact", exact_cap=4 ** 4),
        )
        cs = entry.system
        m = cs.size
        for k in range(2, kmax + 1):
            if m ** k > 256:
                break
            direct = _direct_symmetrizer_rank(cs, k)
            chain = graded.dims[k] if k < len(graded.dims) else 0
            assert direct == chain, (name, k, direct, chain)
    direct_done = time.time()

    # Matsumoto well-definedness: two different reduced words, equal operators
    import itertools

    cs = build_entry("z3-shift").system
    ops = braiding_ops(cs, 4)
    ident = None
    for theta in itertools.permutations(range(4)):
        w1_word, w2_word = _two_reduced_words(theta)
        assert len(w1_word) == len(w2_word)

        def compose_word(word):
            from ybnichols.linalg import MonomialOperator

            one = CycloElement.one(cs.order)
            op = MonomialOperator.identity(cs.size ** 4, one)
            for j in word:
                op = ops[j - 1].compose(op)
            return op

        assert compose_word(w1_word) == compose_word(w2_word), theta
    matsumoto_done = time.time()

    # fixed-pair coefficient identity on every validated involutive system
    from ybnichols.nichols import diagonal_coefficient_check

    for name in catalog_names():
        entry = build_entry(name)
        if entry.involutive:
            assert diagonal_coefficient_check(entry.system).identity_holds, name

    # the hexagon validator rejects 100 genuinely broken single-entry mutations
    sources = [build_entry(n) for n in catalog_names() if n != "z2-shift"]
    rejected = 0
    attempts = 0
    factors = [parse_scalar(t) for t in ("2", "3", "1/2", "-1", "-2")]
    while rejected < 100:
        attempts += 1
        assert attempts < 2000, "mutation sampler failed to find breaking mutations"
        entry = rng.choice(sources)
        m = entry.solution.size
        i, j = rng.randrange(m), rng.randrange(m)
        factor = rng.choice(factors).to_order(entry.system.order)
        mutated = [list(row) for row in entry.system.R]
        mutated[i][j] = mutated[i][j] * factor
        failures = hexagon_failures(entry.solution, mutated)
        if not failures:
            continue  # a mutation the constraint family happens to allow
        with pytest.raises(HexagonViolation) as info:
            validate_coefficients(entry.solution, mutated)
        witnesses = info.value.witnesses
        assert witnesses
        triple, lhs, rhs = witnesses[0]
        assert lhs != rhs
        rejected += 1

    print(
        f"\n  braid checks {braid_done - t0:.1f}s, recursion-vs-direct "
        f"{direct_done - braid_done:.1f}s, Matsumoto {matsumoto_done - direct_done:.1f}s, "
        f"mutations {time.time() - matsumoto_done:.1f}s ({attempts} samples)"
    )
    _report("9 (property suites, fixed seed)", t0, 600)


def test_criterion_10_oracle_equivalence():
    t0 = time.time()
    for name, q, m, n in THEOREM_CASES:
        entry, graded = _dims_exact(name, q)
        for k in range(len(graded.dims)):
            assert graded.dims[k] == orbit_count_oracle(entry.system, k), (name, q, k)
    _report("10 (rank equals combinatorial oracle, degree by degree)", t0, 120)
