"""Property tests at lengths in the hundreds, far beyond the brute-force oracles.

Tight slack (n = k*sigma + 0..3) and k = 1 put reads on the top stored slack
row of the table, m = n - k*sigma. k = 0 makes the whole word a free suffix,
and sigma up to 40 goes past 36, the largest base int() reads from text.
"""

from hypothesis import example, given, settings, strategies as st

from universal_words import (
    RankResult,
    arch_factorize,
    build_table,
    count_universal,
    enumerate_words,
    rank,
    unrank,
)


@st.composite
def params(draw):
    sigma = draw(st.integers(1, 5) | st.integers(6, 40))
    shape = draw(st.sampled_from(("tight", "k=1", "any", "k=0")))
    if shape == "tight":
        k = draw(st.integers(100 // sigma, 400 // sigma))
        n = k * sigma + draw(st.integers(0, 3))
    else:
        n = draw(st.integers(100, 400))
        if shape == "any":
            k = draw(st.integers(1, n // sigma))
        else:
            k = 1 if shape == "k=1" else 0
    return n, k, sigma


@settings(max_examples=40, deadline=None)
@given(params(), st.data())
def test_large_n_rank_unrank_enumerate_agree(nks, data):
    n, k, sigma = nks
    table = build_table(n, k, sigma)
    total = count_universal(n, k, sigma, table)
    r = data.draw(st.integers(0, total - 1), label="rank")
    w = unrank(r, n, k, sigma, table)
    assert rank(w, k, table) == RankResult(r, True)
    assert arch_factorize(w).arch_count >= k
    following = list(enumerate_words(n, k, sigma, from_rank=r, limit=2, table=table))
    assert following[0] == w
    if r + 1 < total:
        assert following[1] == unrank(r + 1, n, k, sigma, table)
    else:
        assert len(following) == 1


@settings(max_examples=40, deadline=None)
@given(params())
@example((11, 4, 3))
@example((79, 2, 40))
def test_table_free_count_equals_table_count(nks):
    n, k, sigma = nks
    table = build_table(n, k, sigma)
    assert count_universal(n, k, sigma) == count_universal(n, k, sigma, table)
