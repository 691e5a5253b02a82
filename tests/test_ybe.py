import itertools
import os
import random
import re

import numpy as np
import pytest

from ybnichols import catalog as cat
from ybnichols import ybe
from ybnichols.ybe import (
    NotInvolutive,
    NotNondegenerate,
    SetSolution,
    VerificationReport,
    braid_walk,
    decompose,
    derived_group_transitive,
    diagonal,
    full_decomposition,
    phi_invariant,
    restrict,
    verify_solution,
)


def test_equal_tables_hash_alike_and_share_one_report():
    # the table is hashed once, at construction: equal tables built apart
    # hash alike and hit one cached report
    a = SetSolution.cyclic_shift(5)
    b = SetSolution([list(row) for row in a.table])
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash(a.table)
    assert ybe.cached_report(a) is ybe.cached_report(b)
    assert hash(SetSolution.flip(5)) != hash(a)
    with pytest.raises(AttributeError):
        a._hash = 0


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
    # no size bound: 17 points answer like 2
    assert decompose(SetSolution.flip(17)) == ((0,), tuple(range(1, 17)))


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


# -- the subset search decompose replaced, kept as its reference


def _reference_decompose(s):
    m = s.size

    def closed(part) -> bool:
        pset = set(part)
        return all(set(s.r(i, j)) <= pset for i in part for j in part)

    for size in range(1, m):
        for subset in itertools.combinations(range(m), size):
            complement = tuple(x for x in range(m) if x not in subset)
            if closed(subset) and closed(complement):
                return subset, complement
    return None


def _reference_full_decomposition(s):
    result = _reference_decompose(s)
    if result is None:
        return [tuple(range(s.size))]
    parts = []
    for part in result:
        for subpart in _reference_full_decomposition(restrict(s, part)):
            parts.append(tuple(part[i] for i in subpart))
    parts.sort(key=min)
    return parts


def _reference_transitive(s):
    gens = [s.sigma_map(i) for i in range(s.size)] + [s.tau_map(i) for i in range(s.size)]
    seen, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            if g[x] not in seen:
                seen.add(g[x])
                frontier.append(g[x])
    return len(seen) == s.size


def _assert_decompositions_match_reference(solutions) -> int:
    seen = 0
    for s in solutions:
        assert decompose(s) == _reference_decompose(s), s.table
        assert full_decomposition(s) == _reference_full_decomposition(s), s.table
        assert derived_group_transitive(s) == _reference_transitive(s), s.table
        seen += 1
    return seen


def _tables(sigmas, taus):
    """The tables r(i, j) = (sigmas[i][j], taus[j][i]) that are non-degenerate."""
    s = SetSolution.from_maps(sigmas, taus)
    return [s] if verify_solution(s).is_nondegenerate else []


def _involutive_tables(m):
    """Every involutive non-degenerate table on m points, Yang-Baxter or not:
    involutivity forces tau_y(x) = sigma_{sigma_x(y)}^-1(x)."""
    for sigmas in itertools.product(itertools.permutations(range(m)), repeat=m):
        inverse = [{v: k for k, v in enumerate(row)} for row in sigmas]
        taus = [[inverse[sigmas[x][y]][x] for x in range(m)] for y in range(m)]
        for s in _tables(sigmas, taus):
            if verify_solution(s).is_involutive:
                yield s


def _family_solutions(max_m=8, per_size=20, seed=20):
    rng = random.Random(seed)
    for m in range(1, max_m + 1):
        yield SetSolution.flip(m)
        for step in range(m):
            yield SetSolution.cyclic_shift(m, step)
        for _ in range(per_size):
            yield SetSolution.permutation(rng.sample(range(m), m))


def test_decompose_matches_subset_search_on_small_involutive_tables():
    solutions = [s for m in (1, 2, 3) for s in _involutive_tables(m)]
    yang_baxter = sum(verify_solution(s).is_ybe for s in solutions)
    assert _assert_decompositions_match_reference(solutions) == len(solutions)
    assert len(solutions) > yang_baxter > 0


def test_decompose_matches_subset_search_on_catalog_and_families():
    solutions = [cat.build_entry(name).solution for name in cat.catalog_names()]
    solutions += list(_family_solutions())
    assert _assert_decompositions_match_reference(solutions) >= 200


@pytest.mark.skipif(
    os.environ.get("YBNICHOLS_ACCEPT_EXTENDED") != "1", reason="extended profile only"
)
def test_decompose_matches_subset_search_on_every_size_3_table():
    perms = list(itertools.permutations(range(3)))
    solutions = (
        SetSolution.from_maps(sigmas, taus)
        for sigmas in itertools.product(perms, repeat=3)
        for taus in itertools.product(perms, repeat=3)
    )
    assert _assert_decompositions_match_reference(solutions) == 6 ** 6


def test_decompose_beyond_the_old_search_bound():
    evens, odds = tuple(range(0, 18, 2)), tuple(range(1, 18, 2))
    s = SetSolution.cyclic_shift(18, 2)
    assert decompose(s) == (evens, odds)
    assert full_decomposition(s) == [evens, odds]
    assert not derived_group_transitive(s)
    assert derived_group_transitive(SetSolution.cyclic_shift(40))


def test_decompose_refuses_degenerate_tables():
    constant = SetSolution([[(0, 0)] * 2] * 2)
    for check in (decompose, full_decomposition, derived_group_transitive):
        with pytest.raises(NotNondegenerate):
            check(constant)


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


def test_verify_walks_blocks_of_first_letters():
    # at m = 128 the braid walk runs over blocks of first letters; its
    # failures, in order, are those of one walk over all m^3 triples
    m = 128
    step = ybe._WALK_TRIPLES // (m * m)
    rng = random.Random(13)
    table = [list(row) for row in SetSolution.cyclic_shift(m).table]
    for _ in range(4):
        table[rng.randrange(m)][rng.randrange(m)] = (rng.randrange(m), rng.randrange(m))
    s = SetSolution(table)
    (_, lhs), (_, rhs) = braid_walk(s)
    bad = (lhs[0] != rhs[0]) | (lhs[1] != rhs[1]) | (lhs[2] != rhs[2])
    expected = [
        (tuple(t), tuple(int(x[tuple(t)]) for x in lhs), tuple(int(x[tuple(t)]) for x in rhs))
        for t in np.argwhere(bad).tolist()
    ]
    failures = verify_solution(s).ybe_failures
    assert list(failures) == expected
    assert len({a // step for (a, _, _), _, _ in failures}) > 1
