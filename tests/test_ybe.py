import random
import re

import pytest

from ybnichols import catalog as cat
from ybnichols.ybe import (
    NotInvolutive,
    SetSolution,
    TooLarge,
    VerificationReport,
    decompose,
    derived_group_transitive,
    diagonal,
    full_decomposition,
    phi_invariant,
    restrict,
    verify_solution,
)


def test_shift_solution_verifies():
    report = verify_solution(SetSolution.cyclic_shift(3))
    assert report.is_ybe and report.is_nondegenerate and report.is_involutive
    assert report.valid


def test_flip_verifies_for_various_sizes():
    for m in (2, 3, 5):
        report = verify_solution(SetSolution.flip(m))
        assert report.is_ybe and report.is_nondegenerate and report.is_involutive


def test_corrupted_flip_fails_with_witness():
    table = [[(j, i) for j in range(3)] for i in range(3)]
    table[0][0] = (1, 1)
    report = verify_solution(SetSolution(table))
    assert not report.is_ybe
    assert report.ybe_failures  # carries witnessing triples
    triple, lhs, rhs = report.ybe_failures[0]
    assert lhs != rhs


def test_permutation_solutions_always_verify():
    import itertools

    for m in (2, 3):
        for f in itertools.permutations(range(m)):
            report = verify_solution(SetSolution.permutation(f))
            assert report.is_ybe and report.is_nondegenerate and report.is_involutive


def test_permutation_solution_matches_shifts():
    assert SetSolution.permutation([1, 0]) == SetSolution.cyclic_shift(2)
    assert SetSolution.permutation([2, 3, 0, 1]) == SetSolution.cyclic_shift(4, 2)


def test_diagonal_of_shift_and_flip():
    for m in (2, 3, 4):
        D = diagonal(SetSolution.cyclic_shift(m))
        assert [D(i) for i in range(m)] == [(i - 1) % m for i in range(m)]
    D = diagonal(SetSolution.flip(4))
    assert [D(i) for i in range(4)] == [0, 1, 2, 3]


def test_diagonal_of_x4_entry_is_a_transposition():
    from ybnichols.catalog import build_entry

    entry = build_entry("x4-sigma")
    D = diagonal(entry.solution)
    assert [D(i) for i in range(4)] == [0, 2, 1, 3]


def test_diagonal_requires_involutive():
    # rack-type catalog solutions are not involutive
    from ybnichols.catalog import build_entry

    entry = build_entry("w1")
    with pytest.raises(NotInvolutive):
        diagonal(entry.solution)


def test_fixed_pairs_are_exactly_the_diagonal_pairs():
    for s in (SetSolution.cyclic_shift(3), SetSolution.cyclic_shift(4, 2), SetSolution.flip(3)):
        D = diagonal(s)
        fixed = {(i, j) for i in range(s.size) for j in range(s.size) if s.r(i, j) == (i, j)}
        assert fixed == {(D(i), i) for i in range(s.size)}


def test_tau_sigma_diagonal_identity():
    # tau_i^-1 . D = D . sigma_i as permutations, for all i
    for s in (SetSolution.cyclic_shift(3), SetSolution.cyclic_shift(4, 2)):
        D = diagonal(s)
        m = s.size
        for i in range(m):
            tau_inv = [0] * m
            for x in range(m):
                tau_inv[s.tau(i, x)] = x
            for x in range(m):
                assert tau_inv[D(x)] == D(s.sigma(i, x))


def test_decompose_examples():
    assert decompose(SetSolution.cyclic_shift(4, 2)) == ((0, 2), (1, 3))
    assert decompose(SetSolution.cyclic_shift(3)) is None
    assert decompose(SetSolution.flip(2)) == ((0,), (1,))
    with pytest.raises(TooLarge):
        decompose(SetSolution.flip(17))


def test_full_decomposition_and_restriction():
    s = SetSolution.cyclic_shift(4, 2)
    parts = full_decomposition(s)
    assert parts == [(0, 2), (1, 3)]
    sub = restrict(s, (0, 2))
    assert sub == SetSolution.cyclic_shift(2)


def test_indecomposable_implies_transitive_on_catalog():
    from ybnichols.catalog import build_entry, catalog_names

    for name in catalog_names():
        entry = build_entry(name)
        if not entry.involutive:
            continue
        if decompose(entry.solution) is None:
            assert derived_group_transitive(entry.solution)


def test_phi_invariant_examples():
    assert phi_invariant(SetSolution.flip(2)).l_vector == (2, 1)
    assert phi_invariant(SetSolution.cyclic_shift(2)).l_vector == (2, 1)
    phi = phi_invariant(SetSolution.cyclic_shift(3))
    assert sum((n + 1) * c for n, c in enumerate(phi.l_vector)) == 9


def test_phi_weighted_sum_for_catalog():
    from ybnichols.catalog import build_entry, catalog_names

    for name in catalog_names():
        entry = build_entry(name)
        phi = phi_invariant(entry.solution)
        m = entry.solution.size
        assert sum((n + 1) * c for n, c in enumerate(phi.l_vector)) == m * m


def test_json_round_trip_and_errors():
    s = SetSolution.cyclic_shift(3)
    assert SetSolution.from_json(s.to_json()) == s
    assert s.to_json()["r"][0][0] == [2, 1]
    with pytest.raises(ValueError):
        SetSolution.from_json({"size": 2})
    with pytest.raises(ValueError):
        SetSolution.from_json({"size": 2, "r": [[[0, 0]]]})
    with pytest.raises(ValueError):
        SetSolution([[(0, 3), (0, 0)], [(1, 1), (1, 0)]])


@pytest.mark.parametrize(
    "data, named",
    [
        ({"size": 2.7, "r": [[[0, 0], [1, 1]], [[0, 0], [1, 1]]]}, "size"),
        ({"size": True, "r": [[[0, 0]]]}, "size"),
        ({"size": "2", "r": [[[0, 0], [1, 1]], [[0, 0], [1, 1]]]}, "size"),
        ({"size": 2, "r": [[[1, 0], [0, 1.5]], [[1, 0], [0, 1]]]}, "r[0][1]"),
        ({"size": 2, "r": [[[1, 0], [0, 1]], [[True, 0], [0, 1]]]}, "r[1][0]"),
        ({"size": 2, "r": [[[1, 0], [0, 1]], [[1, 0], [0, 1.0]]]}, "r[1][1]"),
        ({"size": 2, "r": [[[1, 0], [0, 1]], [[1, 0], [0, 1, 1]]]}, "r[1][1]"),
        ({"size": 2, "r": [[[1, 0], [0, 1]], [[1, 0], 3]]}, "r[1][1]"),
    ],
)
def test_from_json_accepts_only_integers(data, named):
    # int() would truncate 2.7 and 1.5 and read true as 1, so verify would
    # report on a table other than the file's
    with pytest.raises(ValueError, match=re.escape(named)):
        SetSolution.from_json(data)


# -- the per-triple loop verify_solution replaced, kept as its reference


def _r_mid(s, t):
    a, b, c = t
    b2, c2 = s.r(b, c)
    return (a, b2, c2)


def _r_left(s, t):
    a, b, c = t
    a2, b2 = s.r(a, b)
    return (a2, b2, c)


def _reference_report(s):
    m = s.size
    ybe_failures = []
    for i in range(m):
        for j in range(m):
            for k in range(m):
                t = (i, j, k)
                lhs = _r_left(s, _r_mid(s, _r_left(s, t)))
                rhs = _r_mid(s, _r_left(s, _r_mid(s, t)))
                if lhs != rhs:
                    ybe_failures.append((t, lhs, rhs))
    nondeg_failures = []
    full = set(range(m))
    for i in range(m):
        if set(s.sigma_map(i)) != full:
            nondeg_failures.append(("sigma", i))
        if set(s.tau_map(i)) != full:
            nondeg_failures.append(("tau", i))
    invol_failures = []
    for i in range(m):
        for j in range(m):
            a, b = s.r(i, j)
            if s.r(a, b) != (i, j):
                invol_failures.append((i, j))
    return VerificationReport(
        is_ybe=not ybe_failures,
        is_nondegenerate=not nondeg_failures,
        is_involutive=not invol_failures,
        ybe_failures=tuple(ybe_failures),
        nondegeneracy_failures=tuple(nondeg_failures),
        involutivity_failures=tuple(invol_failures),
    )


def _witness_entries(report):
    """Every number in the report's witnesses."""
    stack = [report.ybe_failures, report.nondegeneracy_failures, report.involutivity_failures]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(item)
        elif not isinstance(item, str):
            yield item


def _differential_corpus():
    for name in cat.catalog_names():
        yield cat.build_entry(name).solution
    rng = random.Random(8)
    for m in range(1, 9):
        yield SetSolution.flip(m)
        yield SetSolution.cyclic_shift(m)
        for _ in range(3):
            yield SetSolution.permutation(rng.sample(range(m), m))
    for _ in range(240):
        m = rng.randint(1, 6)
        yield SetSolution(
            [[(rng.randrange(m), rng.randrange(m)) for _ in range(m)] for _ in range(m)]
        )
    for _ in range(60):  # one entry of a solution changed: few, scattered witnesses
        m = rng.randint(2, 6)
        table = [list(row) for row in SetSolution.cyclic_shift(m, rng.randrange(m)).table]
        table[rng.randrange(m)][rng.randrange(m)] = (rng.randrange(m), rng.randrange(m))
        yield SetSolution(table)


def test_verify_matches_per_triple_reference():
    seen = failing_all = 0
    for s in _differential_corpus():
        report = verify_solution(s)
        assert report == _reference_report(s), s.table
        assert all(type(x) is int for x in _witness_entries(report))
        seen += 1
        failing_all += not (report.is_ybe or report.is_nondegenerate or report.is_involutive)
    assert seen >= 300 and failing_all >= 150
