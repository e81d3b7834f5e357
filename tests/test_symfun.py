import hashlib
import pickle
import random
import sys
from functools import cache
from itertools import permutations
from operator import mul

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kroncalc import symfun
from kroncalc.colored import count_blasiak
from kroncalc.partition import Partition, partitions_list
from kroncalc.symfun import (
    SchurVector,
    _beads,
    _chi,
    _cycle_types,
    _kronecker_support,
    _node,
    _rows,
    centralizer_order,
    character,
    coproduct,
    giambelli_expand,
    giambelli_leibniz,
    h_monomial_to_schur,
    hall_inner,
    jacobi_trudi,
    jacobi_trudi_to_schur,
    kronecker_coefficient,
    kronecker_product,
    schur,
    schur_product,
)
from kroncalc.tableau import lr_coefficient

# s_321 * s_21, all thirteen terms
PRODUCT_321_21 = {
    (3, 2, 2, 1, 1): 1,
    (3, 2, 2, 2): 1,
    (3, 3, 1, 1, 1): 1,
    (3, 3, 2, 1): 2,
    (3, 3, 3): 1,
    (4, 2, 1, 1, 1): 1,
    (4, 2, 2, 1): 2,
    (4, 3, 1, 1): 2,
    (4, 3, 2): 2,
    (4, 4, 1): 1,
    (5, 2, 1, 1): 1,
    (5, 2, 2): 1,
    (5, 3, 1): 1,
}

# s_321 (*) s_2211, all nine terms
KRON_321_2211 = {
    (2, 1, 1, 1, 1): 1,
    (2, 2, 1, 1): 2,
    (2, 2, 2): 1,
    (3, 1, 1, 1): 2,
    (3, 2, 1): 3,
    (3, 3): 1,
    (4, 1, 1): 2,
    (4, 2): 2,
    (5, 1): 1,
}


def vec(data) -> SchurVector:
    return SchurVector({Partition(k): v for k, v in data.items()})


def test_schur_product_full_expansion():
    assert schur_product(schur((3, 2, 1)), schur((2, 1))) == vec(PRODUCT_321_21)


def test_schur_product_unit_and_small():
    f = vec({(3, 1): 2, (2, 2): 1})
    assert schur_product(schur(()), f) == f
    assert schur_product(schur((2,)), schur((1, 1))) == vec({(3, 1): 1, (2, 1, 1): 1})


def test_coproduct():
    assert set(coproduct((1,))) == {
        (Partition(()), Partition((1,)), 1),
        (Partition((1,)), Partition(()), 1),
    }
    n = 4
    terms = list(coproduct((n,)))
    assert terms == [
        (Partition((k,)), Partition((n - k,)), 1) for k in range(n + 1)
    ]
    for mu, nu, c in coproduct((2, 1)):
        assert c == lr_coefficient((2, 1), mu, nu)
    assert sum(1 for mu, nu, _ in coproduct((2, 1)) if mu.size == 2) == 2


def test_hall_inner():
    assert hall_inner(schur((3, 1)), schur((3, 1))) == 1
    assert hall_inner(schur((3, 1)), schur((2, 2))) == 0
    f = vec({(2, 1): 2, (3,): -1})
    assert hall_inner(f, f) == 5


def test_hall_kronecker_adjunction_spot():
    n = 5
    picks = [((3, 2), (2, 2, 1), (4, 1)), ((5,), (3, 1, 1), (3, 1, 1)), ((2, 2, 1), (2, 2, 1), (3, 2))]
    for lam, mu, nu in picks:
        left = hall_inner(kronecker_product(schur(lam), schur(mu)), schur(nu))
        right = hall_inner(schur(lam), kronecker_product(schur(mu), schur(nu)))
        assert left == right


def test_giambelli_leibniz_near_hook():
    # (a, b, 1^c) -> + s_(a,1^(c+1)) s_(b-1)  -  s_(a) s_(b-1,1^(c+1))
    terms = list(giambelli_leibniz((4, 3, 1, 1)))
    assert len(terms) == 2
    by_sign = {t.sign: t.hooks for t in terms}
    assert by_sign[1] == (Partition((4, 1, 1, 1)), Partition((2,)))
    assert by_sign[-1] == (Partition((4,)), Partition((2, 1, 1, 1)))


def test_giambelli_leibniz_hook_and_321():
    terms = list(giambelli_leibniz((5, 1, 1)))
    assert len(terms) == 1
    assert terms[0].sign == 1 and terms[0].hooks == (Partition((5, 1, 1)),)
    terms = list(giambelli_leibniz((3, 2, 1)))
    assert sorted(t.sign for t in terms) == [-1, 1]
    assert giambelli_expand((3, 2, 1)) == schur((3, 2, 1))


def test_giambelli_expansion_small():
    for n in range(1, 8):
        for lam in partitions_list(n):
            assert giambelli_expand(lam) == schur(lam)


def test_jacobi_trudi_shapes():
    assert list(jacobi_trudi((4,))) == [(1, (4,))]
    terms = list(jacobi_trudi((4, 2)))
    assert (1, (4, 2)) in terms and (-1, (5, 1)) in terms
    assert len(terms) == 2
    # (b-1-j, j) with b = 5, j = 1: h3 h1 - h4 (h0 dropped from the monomial)
    terms = list(jacobi_trudi((3, 1)))
    assert (1, (3, 1)) in terms and (-1, (4,)) in terms
    assert list(jacobi_trudi(())) == [(1, ())]


def test_jacobi_trudi_to_schur():
    for n in range(7):
        for lam in partitions_list(n):
            assert jacobi_trudi_to_schur(lam) == schur(lam)


# sha256 over repr(giambelli_leibniz(lam)) (lam nonempty) then
# repr(jacobi_trudi(lam)) for every lam with n <= 10 in partitions_list order;
# pins the term order and signs that `kroncalc expand` prints.  Computed with
# the two hand-written determinant loops, before the shared Leibniz expansion.
DETERMINANT_DIGEST_N10 = "0210b1c3553681ee55def212dc5a06e3d9aee84a138828b9434e3c68442a9efe"


def test_determinant_expansions_golden_digest():
    h = hashlib.sha256()
    for n in range(11):
        for lam in partitions_list(n):
            if lam:
                h.update(repr(list(giambelli_leibniz(lam))).encode())
            h.update(repr(list(jacobi_trudi(lam))).encode())
    assert h.hexdigest() == DETERMINANT_DIGEST_N10


def _leibniz_reference(size, entry):
    """Every permutation in lexicographic order, vanishing terms (an entry None) dropped."""
    terms = []
    for p in permutations(range(size)):
        entries = tuple(entry(i, p[i]) for i in range(size))
        if None not in entries:
            inversions = sum(p[i] > p[j] for i in range(size) for j in range(i + 1, size))
            terms.append((-1 if inversions % 2 else 1, entries))
    return terms


def test_determinant_expansions_match_all_permutations():
    for n in range(8):
        for lam in partitions_list(n):
            h = lambda i, j: lam[i] - i + j if lam[i] - i + j >= 0 else None  # noqa: E731
            expected = [
                (sign, tuple(sorted(filter(None, mono), reverse=True)))
                for sign, mono in _leibniz_reference(len(lam), h)
            ]
            assert list(jacobi_trudi(lam)) == expected, lam
            if not lam:
                continue
            arms, legs = lam.frobenius()
            hook = lambda i, j: Partition((arms[i] + 1,) + (1,) * legs[j])  # noqa: E731
            expected = _leibniz_reference(len(arms), hook)
            assert [tuple(t) for t in giambelli_leibniz(lam)] == expected, lam


def test_jacobi_trudi_of_a_long_column():
    # e_14 = sum over compositions of 14 of (-1)^(14 - parts) h_composition:
    # 2^13 terms, each a composition sorted into a partition; the branches
    # that leave a column unfillable are cut, so this returns at once
    terms = list(jacobi_trudi((1,) * 14))
    assert len(terms) == 2**13
    for sign, mono in terms:
        assert sum(mono) == 14 and sign == (-1) ** (14 - len(mono))
    assert terms[0] == (1, (1,) * 14) and terms[-1] == (-1, (14,))


def test_expansions_stream_and_check_their_arguments_at_the_call():
    # each returns an iterator, so next() gives the first term alone
    assert next(jacobi_trudi((1,) * 16)) == (1, (1,) * 16)
    assert next(giambelli_leibniz((5,) * 5)) == (1, tuple(Partition((5 - i,) + (1,) * (4 - i)) for i in range(5)))
    assert next(coproduct((3, 2, 1))) == (Partition(()), Partition((3, 2, 1)), 1)
    # a bad argument raises before any term is asked for
    with pytest.raises(ValueError, match="empty partition has no hook expansion"):
        giambelli_leibniz(())
    with pytest.raises(RecursionError):
        jacobi_trudi((1,) * sys.getrecursionlimit())
    with pytest.raises(ValueError):
        coproduct((2, 3))


def test_schur_vector_arithmetic():
    f = vec({(2, 1): 2, (3,): -1, (1,): 1})
    assert f - f == SchurVector()
    assert f.scale(0) == SchurVector()
    assert f.scale(-2) == vec({(2, 1): -4, (3,): 2, (1,): -2})
    assert f + f.scale(-1) == SchurVector()
    # duplicate keys from an iterable of pairs are summed, and zeros dropped
    g = SchurVector([((2, 1), 1), ((3,), 1), ((2, 1), 2), ((3,), -1)])
    assert g == vec({(2, 1): 3}) and len(g) == 1
    assert g[(2, 1)] == 3 and g[(3,)] == 0 and g[()] == 0
    assert repr(f) == "SchurVector(s[1] + 2*s[2,1] + -1*s[3])"
    assert repr(SchurVector()) == "SchurVector(0)"
    with pytest.raises(ValueError):
        f.homogeneous_degree()
    with pytest.raises(ValueError):
        SchurVector().homogeneous_degree()
    assert g.homogeneous_degree() == 3


def test_cancelled_terms_leave_the_others_in_order():
    v = SchurVector(
        [((2, 1), 1), ((3,), 2), ((1, 1, 1), 4), ((2, 1), -1), ((4,), 0), ((3,), -2), ((2,), 7)]
    )
    assert list(v.terms) == [Partition((1, 1, 1)), Partition((2,))]
    assert list(v.terms.values()) == [4, 7]
    # a term that cancels and comes back keeps its first place
    w = SchurVector([((3,), 1), ((2, 1), 1), ((3,), -1), ((1, 1, 1), 1), ((3,), 5)])
    assert list(w.items()) == [(Partition((3,)), 5), (Partition((2, 1)), 1), (Partition((1, 1, 1)), 1)]


def test_schur_vectors_are_read_only():
    memo = h_monomial_to_schur((2, 1))
    with pytest.raises(AttributeError):
        memo.terms.clear()
    with pytest.raises(TypeError):
        memo.terms[Partition((3,))] = 5
    with pytest.raises(TypeError):
        memo[(3,)] = 5
    with pytest.raises(AttributeError):
        memo.terms = {}
    with pytest.raises(AttributeError):
        del memo.terms
    # the memoized vector is intact, and so is what is built from it
    assert h_monomial_to_schur((2, 1)) == vec({(3,): 1, (2, 1): 1})
    assert jacobi_trudi_to_schur((2, 1)) == schur((2, 1))
    # a vector built from another's terms view, or unpickled, is equal to it
    assert SchurVector(memo.terms) == memo
    assert pickle.loads(pickle.dumps(memo)) == memo


def test_character_basics():
    for n in range(1, 8):
        for mu in partitions_list(n):
            assert character((n,), mu) == 1
            assert character((1,) * n, mu) == (-1) ** (n - len(mu))
    # chi^(2,1): degree 2, vanishes on (2,1), -1 on 3-cycles
    assert character((2, 1), (1, 1, 1)) == 2
    assert character((2, 1), (2, 1)) == 0
    assert character((2, 1), (3,)) == -1
    with pytest.raises(ValueError, match=r"^\|Partition\(\(2, 1\)\)\| != \|Partition\(\(2,\)\)\|$"):
        character((2, 1), (2,))


def test_character_orthogonality():
    from math import factorial

    for n in range(1, 9):
        nfact = factorial(n)
        for lam in partitions_list(n):
            total = sum(
                character(lam, mu) ** 2 * (nfact // centralizer_order(mu))
                for mu in partitions_list(n)
            )
            assert total == nfact


def test_centralizer_order():
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((3,)) == 3
    assert centralizer_order((2, 1)) == 2
    for n in range(1, 9):
        from math import factorial

        assert sum(factorial(n) // centralizer_order(mu) for mu in partitions_list(n)) == factorial(n)


def test_kronecker_oracle_values():
    assert kronecker_coefficient((3, 2, 1), (2, 2, 1, 1), (4, 1, 1)) == 2
    assert kronecker_coefficient((4, 2), (4, 2), (4, 2)) == 2
    assert kronecker_coefficient((5, 2, 1), (4, 1, 1, 1, 1), (4, 2, 1, 1)) == 5
    with pytest.raises(ValueError):
        kronecker_coefficient((2,), (1, 1), (1,))


def test_kronecker_coefficient_rejects_a_character_sum_off_the_multiples_of_n_factorial(monkeypatch):
    # three class sums of 1 over 3! = 6 leave a remainder; __wrapped__ skips the memo
    monkeypatch.setattr(symfun, "_rows", lambda lam: ((1, 1, 1), (1, 1, 1)))
    with pytest.raises(ArithmeticError, match=r"^character sum is not a Kronecker coefficient: 3/6$"):
        kronecker_coefficient.__wrapped__((2, 1), (2, 1), (2, 1))


def test_kronecker_trivial_and_sign():
    for n in range(1, 7):
        for lam in partitions_list(n):
            for mu in partitions_list(n):
                assert kronecker_coefficient((n,), lam, mu) == int(lam == mu)
                assert kronecker_coefficient((1,) * n, lam, mu) == int(
                    lam == mu.transpose()
                )


def test_kronecker_product_examples():
    assert kronecker_product(schur((3, 2, 1)), schur((2, 2, 1, 1))) == vec(
        KRON_321_2211
    )
    lam = (3, 2, 1)
    assert kronecker_product(schur((6,)), schur(lam)) == schur(lam)
    assert kronecker_product(schur((1,) * 6), schur(lam)) == schur(
        Partition(lam).transpose()
    )
    with pytest.raises(ValueError):
        kronecker_product(schur((2,)), schur((3,)))


def _kronecker_full_scan(f, g):
    """f (*) g summed bilinearly over every nu of the degree."""
    n = f.homogeneous_degree()
    return SchurVector(
        (nu, a * b * kronecker_coefficient(lam, mu, nu))
        for lam, a in f.items()
        for mu, b in g.items()
        for nu in partitions_list(n)
    )


def test_kronecker_support_matches_full_scan():
    for n in range(8):
        parts = partitions_list(n)
        for lam in parts:
            for mu in parts:
                scan = [(nu, kronecker_coefficient(lam, mu, nu)) for nu in parts]
                assert _kronecker_support(lam, mu) == tuple((nu, g) for nu, g in scan if g)


def test_kronecker_product_of_signed_vectors():
    # s_(3) and s_(1,1,1) send s_(2,1) to itself and to its conjugate (2,1)
    assert kronecker_product(schur((3,)) - schur((1, 1, 1)), schur((2, 1))) == SchurVector()
    assert kronecker_product(schur((3, 1)) - schur((3, 1)), schur((2, 2))) == SchurVector()
    f = vec({(3, 1): 2, (2, 2): -1, (2, 1, 1): 3, (4,): -2})
    g = vec({(3, 1): 1, (2, 1, 1): -2, (2, 2): 1})
    product = kronecker_product(f, g)
    assert product == _kronecker_full_scan(f, g)
    assert any(c < 0 for _, c in product.items()) and any(c > 0 for _, c in product.items())
    # s_(4) fixes g and s_(1,1,1,1) conjugates it: the (3,1) and (2,1,1) terms cancel
    f = vec({(4,): 1, (1, 1, 1, 1): 1})
    g = vec({(2, 2): 1, (3, 1): 1, (2, 1, 1): -1})
    assert kronecker_product(f, g) == _kronecker_full_scan(f, g)
    assert kronecker_product(f, g)[(3, 1)] == 0


# sha256 over "chi," for every (lam, rho) with n <= 12, each index running
# over partitions_list(n); computed with the recursion that rebuilt every
# shape through sorted beta lists and Partition(...)
CHARACTER_DIGEST_N12 = "b4c71f41ee413517166a6850807db3ebe6a2c89db9c6d4201337a48820e16ab6"


def test_character_golden_digest():
    h = hashlib.sha256()
    for n in range(13):
        parts = partitions_list(n)
        for lam in parts:
            for rho in parts:
                h.update(f"{character(lam, rho)},".encode())
    assert h.hexdigest() == CHARACTER_DIGEST_N12


@cache
def _char_reference(lam: tuple, mu: tuple) -> int:
    """chi^lam(mu) by border-strip removal on partition tuples, row by row."""
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    # Beta numbers lam_i + (L - 1 - i) strictly decrease and encode the shape.
    # Removing a border strip of size k replaces one beta b by nb = b - k; the
    # sign is the parity of the betas crossed, those strictly between nb and b.
    size = len(lam)
    betas = [part + size - 1 - i for i, part in enumerate(lam)]
    total = 0
    p = 0  # insertion point of nb: the first beta <= nb; only moves forward
    for i, b in enumerate(betas):
        nb = b - k
        if nb < 0:
            break
        if p <= i:
            p = i + 1
        while p < size and betas[p] > nb:
            p += 1
        if p < size and betas[p] == nb:
            continue
        # rows i+1 .. p-1 move up one place and lose a box; nb becomes row p-1.
        # Only nb = 0 leaves empty rows, at the bottom, and they are cut off.
        shape = lam[:i] + tuple(x - 1 for x in lam[i + 1 : p]) + (nb - size + p,) + lam[p:]
        term = _char_reference(shape[: shape.index(0)] if nb == 0 else shape, rest)
        total += -term if (p - i - 1) % 2 else term
    return total


def _reference_row(lam) -> tuple[int, ...]:
    return tuple(_char_reference(tuple(lam), rho) for rho in partitions_list(lam.size))


def test_bead_kernel_matches_tuple_recursion():
    # every lam with n <= 14, then 4 seeded lam at each n = 15..20
    rng = random.Random(20261018)
    try:
        for n in range(21):
            parts = partitions_list(n)
            for lam in parts if n <= 14 else rng.sample(parts, 4):
                assert _rows(lam)[0] == _reference_row(lam), lam
    finally:
        _char_reference.cache_clear()


def _memo_states(sizes) -> int:
    """Memo entries in every suffix node reached from the cycle types of these sizes."""
    nodes = {}
    for n in sizes:
        for node, _ in _cycle_types(n):
            while node is not None and id(node) not in nodes:
                nodes[id(node)] = node
                node = node.rest
    return sum(len(node.memo) for node in nodes.values())


def _clear_oracle_memos():
    for memo in (_node, _cycle_types, _rows, kronecker_coefficient):
        memo.cache_clear()


def test_bead_kernel_keeps_one_state_per_shape():
    # a bead left at 0 would give one shape two keys, and the memo more states
    _clear_oracle_memos()
    _char_reference.cache_clear()
    try:
        for n in range(13):
            parts = partitions_list(n)
            for lam in parts:
                beads = _beads(lam)
                for (node, _), rho in zip(_cycle_types(n), parts):
                    assert _chi(beads, node) == _char_reference(tuple(lam), rho)
        assert _memo_states(range(13)) == _char_reference.cache_info().currsize == 12648
    finally:
        _char_reference.cache_clear()


def test_cold_oracle_query_keeps_the_shared_memo_states():
    # a kernel that stopped sharing states between rows or suffixes would keep more
    _clear_oracle_memos()
    assert kronecker_coefficient((7, 5, 4, 2), (10, 3, 2, 2, 1), (7, 2, 2, 2, 2, 2, 1)) == 736
    assert _memo_states([18]) == 4364


def test_conjugate_character_takes_the_sign_of_the_cycle_type():
    # chi^lam'(rho) = sgn(rho) chi^lam(rho), with sgn(rho) = (-1)^(n - len(rho))
    rng = random.Random(20261025)
    for n in range(15, 23):
        parts = partitions_list(n)
        signs = [-1 if (n - len(rho)) & 1 else 1 for rho in parts]
        for lam in rng.sample(parts, 4):
            conjugate = _rows(lam.transpose())[0]
            assert conjugate == tuple(map(mul, signs, _rows(lam)[0])), lam


def test_character_on_a_long_cycle_type():
    # the suffix chain is built without recursion, and the kernel recurses once per part
    n = 400
    assert character((n,), (1,) * n) == 1
    assert character((n - 1, 1), (1,) * n) == n - 1
    assert character((n - 1, 1), (2,) * (n // 2)) == -1


def test_character_degree_and_norm_past_n12():
    from math import factorial, prod

    rng = random.Random(20261018)
    for n in range(13, 19):
        nfact = factorial(n)
        parts = partitions_list(n)
        for lam in rng.sample(parts, 4):
            hooks = prod(h for row in lam.hook_lengths() for h in row)
            assert character(lam, (1,) * n) == nfact // hooks
            # sum over rho of chi^lam(rho)^2 / z_rho = 1, times n!
            norm = sum(character(lam, rho) ** 2 * (nfact // centralizer_order(rho)) for rho in parts)
            assert norm == nfact


# sha256 over "g," for every triple (lam, mu, nu) with n <= 8, each index
# running over partitions_list(n); computed with the oracle that looked up
# one character per cycle type, before the cached character rows
ORACLE_DIGEST_N8 = "06e92649b51dab3378508f484b0d297fe5e1e6e0a35008ceadf94d84cb3a8c4a"


def test_oracle_golden_digest():
    h = hashlib.sha256()
    total = 0
    for n in range(9):
        parts = partitions_list(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    h.update(f"{kronecker_coefficient(lam, mu, nu)},".encode())
                    total += 1
    assert total == 15859
    assert h.hexdigest() == ORACLE_DIGEST_N8


# oracle values at n = 16, 17, 18, past the exhaustive sweeps; the same
# triples and values are in perfbench/queries.json
ORACLE_PAST_14 = [
    ((10, 4, 1, 1), (6, 6, 4), (8, 5, 3), 58),
    ((4, 4, 3, 3, 3), (5, 3, 3) + (1,) * 6, (8, 4) + (1,) * 5, 163),
    ((13, 5), (10, 4, 2, 2), (8, 8, 2), 2),
]


@pytest.mark.parametrize("lam, mu, nu, expected", ORACLE_PAST_14)
def test_kronecker_oracle_values_past_n14(lam, mu, nu, expected):
    assert kronecker_coefficient(lam, mu, nu) == expected


def test_kronecker_symmetry_and_conjugation_n16():
    from itertools import permutations

    lam, mu, nu, expected = ORACLE_PAST_14[0]
    for triple in permutations((lam, mu, nu)):
        assert kronecker_coefficient(*triple) == expected
    lam_t, mu_t = Partition(lam).transpose(), Partition(mu).transpose()
    assert kronecker_coefficient(lam_t, mu_t, nu) == expected


@st.composite
def hook_triples(draw):
    n = draw(st.integers(11, 13))
    parts = partitions_list(n)
    lam = draw(st.sampled_from(parts))
    nu = draw(st.sampled_from(parts))
    d = draw(st.integers(0, n - 1))
    return lam, d, nu


@seed(20261017)
@settings(max_examples=12, deadline=None, database=None)
@given(hook_triples())
def test_blasiak_matches_oracle_property(triple):
    lam, d, nu = triple
    hook = Partition((lam.size - d,) + (1,) * d)
    assert count_blasiak(lam, d, nu) == kronecker_coefficient(lam, hook, nu)


@st.composite
def triples_past_sweeps(draw):
    n = draw(st.integers(11, 14))
    parts = st.sampled_from(partitions_list(n))
    return draw(parts), draw(parts), draw(parts)


@seed(20261020)
@settings(max_examples=40, deadline=None, database=None)
@given(triples_past_sweeps())
def test_kronecker_symmetry_property(triple):
    from itertools import permutations

    expected = kronecker_coefficient(*triple)
    for order in permutations(triple):
        assert kronecker_coefficient(*order) == expected


@seed(20261021)
@settings(max_examples=40, deadline=None, database=None)
@given(triples_past_sweeps())
def test_kronecker_conjugation_property(triple):
    lam, mu, nu = triple
    expected = kronecker_coefficient(lam, mu, nu)
    assert kronecker_coefficient(lam, mu.transpose(), nu.transpose()) == expected
    assert kronecker_coefficient(lam.transpose(), mu.transpose(), nu) == expected
