import hashlib
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kroncalc import colored, memo
from kroncalc.colored import (
    ColoredLetter,
    ColoredTableau,
    _HookGraph,
    _finalize,
    _inserted,
    _search,
    _strips,
    blasiak_counts,
    blft,
    content,
    count_blasiak,
    enumerate_blasiak,
    is_colored_yamanouchi,
    is_suffix_yamanouchi,
    mixed_insert,
    mixed_insertion_tableau,
    mixed_insertion_trace,
    parse_colored_word,
    schensted_insert,
    total_color,
)
from kroncalc.partition import (
    Partition,
    _conjugate,
    contains,
    is_horizontal_strip,
    partitions_list,
)
from kroncalc.symfun import kronecker_coefficient, kronecker_row
from kroncalc.tableau import dimension

# the 3x3 colored tableau used by the single-letter insertion examples
BASE = ColoredTableau.from_text("1' 1 2' | 1' 2' 2 | 2' 2 3")

# words behind the five tableaux counted by g((5,2,1), (4,1^4), (4,2,1,1)) = 5
FIVE_WORDS = [
    "1' 1 1 2 1 1' 3' 2'",
    "1' 2' 1' 1 3 2 1 1'",
    "2' 1 1 2 1 1' 3' 1'",
    "3' 2 1 1 1 1' 2' 1'",
    "2 1' 1' 3' 1' 1 2 1",
]

FIVE_TABLEAUX = [
    "1' 1 1 1 | 1' 3' | 2' | 2",
    "1' 1 1 2' | 1' 2 | 1' | 3",
    "1' 1 1 2' | 1' 3' | 1 | 2",
    "1' 1 1 3' | 1' 2' | 1 | 2",
    "1' 1 1 3' | 1' 2 | 1' | 2",
]


def test_letter_order():
    word = parse_colored_word("2 1' 2' 1")
    assert sorted(word) == list(parse_colored_word("1' 1 2' 2"))
    assert str(ColoredLetter(3, True)) == "3'"


def test_letter_and_tableau_records():
    letter = ColoredLetter(2, True)
    assert repr(letter) == "ColoredLetter(value=2, barred=True)"
    assert letter == ColoredLetter(2, True) and hash(letter) == hash(ColoredLetter(2, True))
    # sorted() order 1' < 1 < 2' < 2 is pinned by test_letter_order
    assert ColoredLetter(1) <= ColoredLetter(2, True) and ColoredLetter(2) >= ColoredLetter(2)
    assert ColoredLetter(2, True) > ColoredLetter(1) and not ColoredLetter(1) > ColoredLetter(1)
    with pytest.raises(AttributeError):
        letter.value = 3
    with pytest.raises(AttributeError):
        BASE.rows = ()
    with pytest.raises(ValueError):
        ColoredLetter(0)
    with pytest.raises(ValueError):
        ColoredTableau.from_text("2 1")  # unbarred letters decrease along a row
    assert ColoredTableau([[ColoredLetter(1)]]).rows == ((ColoredLetter(1),),)
    with pytest.raises(ValueError, match="^empty tableau has no southwest entry$"):
        ColoredTableau(()).southwest()


def test_word_statistics():
    w = parse_colored_word("2' 1 4' 4 4' 3 1' 3")
    assert content(w) == (2, 1, 2, 3)
    assert total_color(w) == 4
    assert blft(w) == (2, 4, 4, 1, 1, 4, 3, 3)
    assert "".join(str(v) for v in blft(w)) == "24411433"
    assert blft(parse_colored_word("1 2 1")) == (1, 2, 1)
    assert blft(parse_colored_word("2' 1'")) == (2, 1)


def test_colored_yamanouchi():
    assert is_colored_yamanouchi(())
    assert not is_colored_yamanouchi(parse_colored_word("1 2 2"))
    for text in FIVE_WORDS:
        w = parse_colored_word(text)
        assert is_suffix_yamanouchi(blft(w))


def test_colored_tableau_validation():
    # separate barred/unbarred conditions admit a globally decreasing row
    violating = ColoredTableau.from_text("1 1'")
    assert not violating.is_globally_weakly_increasing()
    cases = {
        "1 | 2 2": "rows must be nonempty with weakly decreasing lengths",
        "2 1": "unbarred letters must weakly increase in rows",
        "1' 1' | 1'": "barred letters must strictly increase in rows",
        "1 | 1": "unbarred letters must strictly increase in columns",
        "2' | 1'": "barred letters must weakly increase in columns",
    }
    for text, message in cases.items():
        with pytest.raises(ValueError, match=f"^{message}$"):
            ColoredTableau.from_text(text)


def test_schensted_example():
    rows = ((1, 2, 4), (2, 3), (4,))
    assert schensted_insert(rows, 3) == ((1, 2, 3), (2, 3, 4), (4,))
    assert schensted_insert((), 5) == ((5,),)
    assert schensted_insert(((1, 2),), 9) == ((1, 2, 9),)


def _longest_chain(word, related) -> int:
    """Length of the longest subsequence whose consecutive letters are related."""
    best = []
    for i, x in enumerate(word):
        best.append(1 + max((best[j] for j in range(i) if related(word[j], x)), default=0))
    return max(best, default=0)


@seed(20261018)
@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.integers(1, 5), max_size=12))
def test_schensted_insert_property(word):
    rows = ()
    for x in word:
        rows = schensted_insert(rows, x)
    assert all(a <= b for row in rows for a, b in zip(row, row[1:]))
    assert all(
        rows[i][j] < rows[i + 1][j]
        for i in range(len(rows) - 1)
        for j in range(len(rows[i + 1]))
    )
    assert all(len(a) >= len(b) for a, b in zip(rows, rows[1:]))
    assert sorted(x for row in rows for x in row) == sorted(word)
    # Schensted's theorem
    assert (len(rows[0]) if rows else 0) == _longest_chain(word, lambda a, b: a <= b)
    assert len(rows) == _longest_chain(word, lambda a, b: a > b)


# sha256 over the insertion state of every encoded word of length <= 5 on
# letters 1..8 (1' < 1 < ... < 4' < 4), inserted left to right from empty
INSERTION_DIGEST_LEN5 = "6fe40e7da0ebe1d4d1ed5709e5fd770636bc07c15c04b935a489f69207288fef"


def test_insertion_golden_digest():
    h = hashlib.sha256()
    total = 0
    for length in range(6):
        for word in product(range(1, 9), repeat=length):
            state = ()
            for k in word:
                state = _inserted(state, k)
            h.update(repr(state).encode())
            total += 1
    assert total == 37449
    assert h.hexdigest() == INSERTION_DIGEST_LEN5


def test_mixed_insert_single_letters():
    cases = {
        "1'": "1' 1 2' | 1' 2' 2 | 1' 2' 3 | 2",
        "1": "1' 1 1 2' | 1' 2' 2 | 2' 2 3",
        "2'": "1' 1 2' | 1' 2' 2 | 2' 2 3 | 2'",
        "2": "1' 1 2' 2 | 1' 2' 2 | 2' 2 3",
    }
    for letter_text, expected in cases.items():
        letter = parse_colored_word(letter_text)[0]
        assert mixed_insert(BASE, letter) == ColoredTableau.from_text(expected)


def test_mixed_insertion_tableau():
    w = parse_colored_word("2' 1 4' 4 4' 3 1' 3")
    assert mixed_insertion_tableau(w) == ColoredTableau.from_text(
        "1' 2' 3 3 | 1 4' | 4' 4"
    )
    empty = mixed_insertion_tableau(())
    assert empty.rows == ()


def test_insertion_trace_eight_steps():
    w3 = parse_colored_word("2' 1 1 2 1 1' 3' 1'")
    expected = [
        "2'",
        "1 2'",
        "1 1 2'",
        "1 1 2' 2",
        "1 1 1 2' | 2",
        "1' 1 1 2' | 1 | 2",
        "1' 1 1 2' | 1 | 2 | 3'",
        "1' 1 1 2' | 1' 3' | 1 | 2",
    ]
    trace = mixed_insertion_trace(w3)
    assert len(trace) == 8
    for got, want in zip(trace, expected):
        assert got == ColoredTableau.from_text(want)


def test_five_blasiak_tableaux():
    tabs = enumerate_blasiak((5, 2, 1), 4, (4, 2, 1, 1))
    assert [t for t in tabs] == [ColoredTableau.from_text(s) for s in FIVE_TABLEAUX]
    for text, tab in zip(FIVE_WORDS, tabs):
        assert mixed_insertion_tableau(parse_colored_word(text)) == tab
    for tab in tabs:
        assert tab.is_globally_weakly_increasing()
        assert not tab.southwest().barred
        assert content(tab.cells()) == (5, 2, 1)
        assert total_color(tab.cells()) == 4


def test_count_examples():
    assert count_blasiak((4, 2), 3, (4, 2)) == 1
    assert enumerate_blasiak((4, 2), 3, (4, 2))[0] == ColoredTableau.from_text(
        "1' 1 1 2' | 1 2'"
    )
    # singleton blocks: content (6,2) and (5,3) with six bars, shape 32111
    assert count_blasiak((6, 2), 6, (3, 2, 1, 1, 1)) == 1
    assert enumerate_blasiak((6, 2), 6, (3, 2, 1, 1, 1))[0] == ColoredTableau.from_text(
        "1' 1 2' | 1' 2' | 1' | 1' | 1"
    )
    assert count_blasiak((5, 3), 6, (3, 2, 1, 1, 1)) == 1
    assert enumerate_blasiak((5, 3), 6, (3, 2, 1, 1, 1))[0] == ColoredTableau.from_text(
        "1' 1 2' | 1' 2' | 1' | 1' | 2"
    )


def test_shape_and_content_sizes_must_match():
    with pytest.raises(ValueError, match="differs from content size"):
        enumerate_blasiak((5, 2, 1), 4, (4, 2, 1))
    with pytest.raises(ValueError, match="differs from content size"):
        count_blasiak((2, 1), 1, (2, 2))
    # g(0, 0, 0) = 1, but (n - d, 1^d) with n = 0 is no hook
    with pytest.raises(ValueError, match="content must be nonempty"):
        count_blasiak((), 0, ())
    with pytest.raises(ValueError, match="content must be nonempty"):
        enumerate_blasiak((), 0, ())


def _by_shape(lam, d: int) -> dict:
    """Map shape -> canonically ordered tableaux, one untargeted search for all shapes."""
    lam = Partition(lam)
    return {
        Partition(shape): _finalize(lam, d, rows)
        for shape, rows in sorted(_search(lam, d, None).items())
    }


def test_violating_tableau_never_produced():
    bad = ColoredTableau.from_text("1 1'")
    for lam in partitions_list(2):
        for d in range(2):
            for nu in partitions_list(2):
                assert bad not in enumerate_blasiak(lam, d, nu)


def test_finalize_rejects_bad_tableaux():
    # encoded letters: 2v - 1 is v barred, 2v is v unbarred
    with pytest.raises(AssertionError, match="globally monotone"):
        _finalize(Partition((2,)), 1, [((2,), (1,))])
    with pytest.raises(AssertionError, match="wrong content"):
        _finalize(Partition((2,)), 0, [((2,),)])
    with pytest.raises(AssertionError, match="barred corner"):
        _finalize(Partition((2, 1)), 1, [((2, 2), (3,))])


def test_enumeration_is_deterministic():
    a = enumerate_blasiak((5, 2, 1), 4, (4, 2, 1, 1))
    b = enumerate_blasiak(Partition((5, 2, 1)), 4, Partition((4, 2, 1, 1)))
    assert a == b
    by_shape = _by_shape((5, 2, 1), 4)
    assert by_shape[Partition((4, 2, 1, 1))] == a
    # the target-pruned search agrees with the all-shapes search
    for n in range(1, 8):
        for lam in partitions_list(n):
            for d in range(n):
                by_shape = _by_shape(lam, d)
                for nu in partitions_list(n):
                    assert enumerate_blasiak(lam, d, nu) == by_shape.get(nu, ()), (
                        lam, d, nu
                    )


# sha256 over every (lam, d, shape) with n <= 9 and the reading-word keys of
# its tableaux in canonical order, computed with the word-by-word search
# that preceded the search over insertion states
HOOK_RULE_DIGEST_N9 = "551ed16bfe0d298adee7f1fe674e908723ef42d82e6180c793a94e3c590c4ee1"


def test_hook_rule_golden_digest():
    h = hashlib.sha256()
    total = 0
    for n in range(1, 10):
        for lam in partitions_list(n):
            for d in range(n):
                for shape, tabs in _by_shape(lam, d).items():
                    h.update(repr((tuple(lam), d, tuple(shape))).encode())
                    for tab in tabs:
                        h.update(repr(tuple(x.key for x in tab.reading_word())).encode())
                        total += 1
    assert total == 8121
    assert h.hexdigest() == HOOK_RULE_DIGEST_N9


def _brute_force(content_vals, d, shape):
    n = len(content_vals)
    found = set()
    for arr in sorted(set(permutations(content_vals))):
        for bars in combinations(range(n), d):
            barred = [i in bars for i in range(n)]
            bvals = [arr[i] for i in bars]
            uvals = [arr[i] for i in range(n) if not barred[i]]
            if not is_suffix_yamanouchi(bvals + uvals):
                continue
            word = tuple(ColoredLetter(arr[i], barred[i]) for i in range(n))
            tab = mixed_insertion_tableau(word)
            if tuple(tab.shape) != shape or tab.southwest().barred:
                continue
            found.add(tab)
    return found


def _state_search(lam, d, target):
    """The hook rule by a search over mixed-insertion states.

    Words interleave a barred and an unbarred subsequence.  For each bar
    content vector cb (cb_v <= lam_v, summing to d, with lam - cb a
    partition) the suffix condition on w^blft becomes two prefix
    conditions: after each barred letter the remaining barred content plus
    the whole unbarred content is a partition, and after each unbarred
    letter the remaining unbarred content is a partition.  Insertion is
    deterministic and the tableau determines the letters still to place,
    so each insertion state is expanded once.  Every intermediate shape
    lies inside the final one, so a target shape prunes the search.
    """
    m = len(lam)
    found = {}
    tgt = tuple(target) if target is not None else None

    def fits(rows):
        return len(rows) <= len(tgt) and all(len(r) <= t for r, t in zip(rows, tgt))

    for cb in product(*(range(part + 1) for part in lam)):
        cu = tuple(a - b for a, b in zip(lam, cb))
        if sum(cb) != d or any(cu[i] < cu[i + 1] for i in range(m - 1)):
            continue
        rb, ru = list(cb), list(cu)
        seen = set()

        def dfs(state, remaining):
            if state in seen:
                return
            seen.add(state)
            if remaining == 0:
                if state and not state[-1][0] & 1:
                    shape = tuple(len(r) for r in state)
                    if tgt is None or shape == tgt:
                        found.setdefault(shape, set()).add(state)
                return
            for v in range(m):
                if rb[v]:
                    below = (rb[v + 1] + cu[v + 1]) if v + 1 < m else 0
                    if rb[v] - 1 + cu[v] >= below:
                        rb[v] -= 1
                        nxt = _inserted(state, 2 * v + 1)
                        if tgt is None or fits(nxt):
                            dfs(nxt, remaining - 1)
                        rb[v] += 1
                if ru[v]:
                    below = ru[v + 1] if v + 1 < m else 0
                    if ru[v] - 1 >= below:
                        ru[v] -= 1
                        nxt = _inserted(state, 2 * v + 2)
                        if tgt is None or fits(nxt):
                            dfs(nxt, remaining - 1)
                        ru[v] += 1

        dfs((), lam.size)
    return found


def test_direct_construction_matches_state_search():
    total = 0
    for n in range(1, 9):
        for lam in partitions_list(n):
            for d in range(n):
                got = _search(lam, d, None)
                assert got == _state_search(lam, d, None), (lam, d)
                total += sum(len(rows) for rows in got.values())
    assert total == 3052


def test_targeted_search_matches_state_search():
    total = 0
    for n in range(1, 7):
        for lam in partitions_list(n):
            for d in range(n):
                for nu in partitions_list(n):
                    assert _search(lam, d, nu) == _state_search(lam, d, nu), (lam, d, nu)
                    total += 1
    assert total == 1107


@seed(20261019)
@settings(max_examples=50, deadline=None, database=None)
@given(
    st.integers(10, 12).flatmap(
        lambda n: st.tuples(
            st.sampled_from(partitions_list(n)),
            st.integers(0, n - 1),
            st.sampled_from(partitions_list(n)),
        )
    )
)
def test_targeted_search_matches_state_search_past_n8(case):
    lam, d, nu = case
    assert _search(lam, d, nu) == _state_search(lam, d, nu)


def test_counts_match_enumeration():
    total = 0
    for n in range(1, 11):
        for lam in partitions_list(n):
            want = {}
            for d in range(n):
                for shape, tabs in _by_shape(lam, d).items():
                    want[d, shape] = len(tabs)
                    total += len(tabs)
            assert blasiak_counts(lam) == want, lam
    assert total == 21465


def test_all_d_counts_match_fixed_d_counts():
    for n in range(1, 10):
        for lam in partitions_list(n):
            fixed = {}
            for d in range(n):
                graph = _HookGraph(lam, d, None)
                fixed.update(graph.counts(graph.root))
            assert blasiak_counts(lam) == fixed, lam


def test_strips_are_the_horizontal_and_vertical_strips():
    cases = 0
    for n in range(8):
        for lam in partitions_list(n):
            for s in range(5):
                grown = [mu for mu in partitions_list(n + s) if contains(lam, mu)]
                ways = _strips(lam, s, None, None)
                # partitions_list has no repeats, so sorted equality means each once
                assert sorted(shape for shape, _ in ways) == sorted(
                    tuple(mu) for mu in grown if is_horizontal_strip(lam, mu)
                ), (lam, s)
                assert all(prefix[-1] == s for _, prefix in ways)
                vertical = _strips(_conjugate(lam), s, None, None)
                assert sorted(_conjugate(shape) for shape, _ in vertical) == sorted(
                    tuple(mu)
                    for mu in grown
                    if is_horizontal_strip(lam.transpose(), mu.transpose())
                ), (lam, s)
                cases += 1
    assert cases == 225


def test_strips_respect_limit_and_bound():
    lam, limit, bound = (4, 2, 1), (6, 4, 2, 1), (2, 3, 4)

    def fits(shape, prefix):
        caps = bound + bound[-1:] * len(prefix)
        return contains(shape, limit) and all(p <= c for p, c in zip(prefix[1:], caps))

    ways = _strips(lam, 4, limit, bound)
    assert ways and all(fits(*way) for way in ways)
    assert ways == tuple(way for way in _strips(lam, 4, None, None) if fits(*way))


def test_strip_memo_holds_the_fresh_listings_as_tuples(monkeypatch):
    # every graph reads the one memo, so a cached listing must be immutable
    # and equal to what the lister would build again
    calls = set()

    def recording(*args):
        calls.add(args)
        return _strips(*args)

    memo.clear()
    monkeypatch.setattr(colored, "_strips", recording)
    for n in range(1, 8):
        for lam in partitions_list(n):
            blasiak_counts(lam)
    assert _strips.cache_info().currsize == len(calls) > 0
    for args in calls:
        ways = _strips(*args)
        assert type(ways) is tuple, args
        assert all(type(part) is tuple for way in ways for part in (way, *way)), args
        assert ways == _strips.__wrapped__(*args), args


def test_walk_explores_no_dead_branch():
    graphs = 0
    for n in range(1, 8):
        for lam in partitions_list(n):
            for d in [None, *range(n)]:
                for target in [None, *partitions_list(n)]:
                    graph = _HookGraph(lam, d, target, walk=True)
                    graph.counts(graph.root)
                    graphs += 1
                    for state, got in graph.memo.items():
                        if state[0] == len(lam):
                            continue
                        live = graph.live[state]
                        # a live move enters a state with a nonzero count
                        assert all(graph.memo[child] for _, child in live), state
                        # a state with a nonzero count has a live move
                        assert bool(live) == bool(got), state
    assert graphs == 3400


def test_targeted_count_matches_state_search():
    total = 0
    for n in range(1, 7):
        for lam in partitions_list(n):
            for d in range(n):
                for nu in partitions_list(n):
                    want = len(_state_search(lam, d, nu).get(tuple(nu), ()))
                    assert count_blasiak(lam, d, nu) == want, (lam, d, nu)
                    total += 1
    assert total == 1107


@seed(20261018)
@settings(max_examples=40, deadline=None, database=None)
@given(
    st.integers(11, 12).flatmap(
        lambda n: st.tuples(
            st.sampled_from(partitions_list(n)),
            st.integers(0, n - 1),
            st.sampled_from(partitions_list(n)),
        )
    )
)
def test_counts_match_oracle_past_exhaustive_range(case):
    lam, d, nu = case
    n = lam.size
    oracle = kronecker_coefficient(lam, Partition((n - d,) + (1,) * d), nu)
    assert count_blasiak(lam, d, nu) == oracle
    assert blasiak_counts(lam).get((d, nu), 0) == oracle


def test_enumeration_matches_naive_word_scan():
    cases = [
        ((3, 2), 2, (3, 1, 1)),
        ((2, 2, 1), 2, (3, 2)),
        ((4, 2), 3, (4, 2)),
        ((3, 1, 1), 3, (2, 2, 1)),
    ]
    for lam, d, shape in cases:
        vals = [i + 1 for i, m in enumerate(lam) for _ in range(m)]
        assert set(enumerate_blasiak(lam, d, shape)) == _brute_force(vals, d, shape)


def test_blasiak_matches_oracle_small():
    for n in range(1, 6):
        for lam in partitions_list(n):
            for d in range(n):
                by_shape = _by_shape(lam, d)
                hook = Partition((n - d,) + (1,) * d)
                for nu in partitions_list(n):
                    assert len(by_shape.get(nu, ())) == kronecker_coefficient(
                        lam, hook, nu
                    ), (lam, d, nu)


def test_blasiak_matches_oracle_sampled_past_exhaustive_range():
    # the exhaustive sweeps stop at n = 9; a seeded sample reaches n = 10, 11
    rng = random.Random(2024)
    for _ in range(20):
        n = rng.choice((10, 11))
        parts = partitions_list(n)
        lam, nu = rng.choice(parts), rng.choice(parts)
        d = rng.randrange(n)
        hook = Partition((n - d,) + (1,) * d)
        assert count_blasiak(lam, d, nu) == kronecker_coefficient(lam, hook, nu), (
            lam, d, nu
        )


def test_padded_first_parts_give_weakly_increasing_coefficients():
    # Murnaghan stability (weak increase: Brion, Manuscripta Math. 80, 1993):
    # g(lam + (m), mu + (m), nu + (m)) never decreases in m, and a padded hook
    # stays a hook.  The oracle gives g at every n up to 34, and the hook
    # rule at n <= 14 and at n = 27-34; the two must agree wherever both run.
    rng = random.Random(2026)
    rising = 0
    for _ in range(12):
        n0 = rng.randint(5, 7)
        lam, nu = rng.choice(partitions_list(n0)), rng.choice(partitions_list(n0))
        d = rng.randrange(n0)
        values = []
        for m in range(35 - n0):
            n = n0 + m
            lam_m, nu_m = Partition((lam[0] + m,) + lam[1:]), Partition((nu[0] + m,) + nu[1:])
            g = kronecker_coefficient(lam_m, Partition((n - d,) + (1,) * d), nu_m)
            if n <= 14 or n > 26:
                assert count_blasiak(lam_m, d, nu_m) == g, (lam_m, d, nu_m)
            values.append(g)
        assert all(x <= y for x, y in zip(values, values[1:])), (lam, d, nu, values)
        rising += values[0] < values[-1]
    assert rising  # the sample holds sequences that are not constant


def test_hook_orientations_agree_past_the_oracle_bound():
    # g(lam, (n-d, 1^d), nu) = g(lam', (d+1, 1^(n-1-d)), nu) = g(lam, (d+1, 1^(n-1-d)), nu'):
    # the hook rule is not manifestly symmetric, so each orientation counts
    # through a different graph, and past n = 26 they check each other with
    # no oracle.  nu is drawn from the support at the start size, so padding
    # the first parts (which never lowers g) keeps every count positive.
    rng = random.Random(2028)
    for _ in range(10):
        n0, d = rng.randint(5, 7), rng.randint(0, 3)
        lam = rng.choice(partitions_list(n0))
        row = kronecker_row(lam, Partition((n0 - d,) + (1,) * d))
        nu = rng.choice([nu for nu, g in zip(partitions_list(n0), row) if g])
        n = rng.randint(27, 34)
        m = n - n0
        lam, nu = Partition((lam[0] + m,) + lam[1:]), Partition((nu[0] + m,) + nu[1:])
        count = count_blasiak(lam, d, nu)
        assert count > 0, (lam, d, nu)
        assert count_blasiak(lam.transpose(), n - 1 - d, nu) == count, (lam, d, nu)
        assert count_blasiak(lam, n - 1 - d, nu.transpose()) == count, (lam, d, nu)


def test_hook_rule_rows_satisfy_the_character_identity_at_n_27_to_34():
    # sum_nu g(lam, mu, nu) chi^nu(rho) = chi^lam(rho) chi^mu(rho) at rho = 1^n
    # reads sum_nu g f^nu = f^lam f^mu, with each f from the hook length
    # formula, so a whole hook-rule row at n = 27-34 is checked with no oracle
    rng = random.Random(2054)
    for _ in range(8):
        n, d = rng.randint(27, 34), rng.randint(1, 3)
        lam = rng.choice(partitions_list(n))
        graph = _HookGraph(lam, d, None)
        row = graph.counts(graph.root)
        assert {bars for bars, _ in row} == {d}, (lam, d)
        total = sum(count * dimension(shape) for (_, shape), count in row.items())
        assert total == dimension(lam) * dimension((n - d,) + (1,) * d), (lam, d)


def test_insertion_always_valid():
    # every word over {1, 1', 2, 2'} of length <= 4: the insertion tableau
    # satisfies the colored-tableau conditions (checked at construction)
    # and has one cell per letter
    alphabet = parse_colored_word("1' 1 2' 2")
    for length in range(5):
        for word in product(alphabet, repeat=length):
            tab = mixed_insertion_tableau(word)
            assert tab.shape.size == length


def test_tableau_json():
    tab = ColoredTableau.from_text("1' 1 | 2")
    assert tab.to_json() == {"shape": [2, 1], "cells": [[1, True], [1, False], [2, False]]}
