"""Bernoulli numbers, regular primes, and splitting in Q(mu_p).

The exact Bernoulli route is checked against the Akiyama-Tanigawa
transform, a structurally unrelated algorithm, and against hard-coded
classical values. The mod-p regularity route is then tied to the exact
route on every prime where both apply.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fineselmer.cyclotomic import (
    MAX_REGULARITY_PRIME,
    bernoulli_table,
    irregular_primes_below,
    is_regular,
    kinf_ramification,
)
from fineselmer.elliptic import WeierstrassModel
from fineselmer.localdata import reduction_over_K
from fineselmer.modular import multiplicative_order, primes_below

IRREGULAR_BELOW_200 = [37, 59, 67, 101, 103, 131, 149, 157]
IRREGULAR_BELOW_500 = IRREGULAR_BELOW_200 + [
    233, 257, 263, 271, 283, 293, 307, 311, 347, 353, 379, 389,
    401, 409, 421, 433, 461, 463, 467, 491,
]


def akiyama_tanigawa(n: int) -> list[Fraction]:
    """Independent Bernoulli oracle (first kind, B_1 = -1/2)."""
    out = []
    row: list[Fraction] = []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    # the transform yields B_1 = +1/2; flip to the generating-function sign
    if n >= 1:
        out[1] = -out[1]
    return out


def test_bernoulli_matches_independent_transform():
    assert bernoulli_table(60) == akiyama_tanigawa(60)


def test_bernoulli_classical_values():
    table = bernoulli_table(12)
    assert table[0] == 1
    assert table[1] == Fraction(-1, 2)
    assert table[2] == Fraction(1, 6)
    assert table[4] == Fraction(-1, 30)
    assert table[6] == Fraction(1, 42)
    assert table[8] == Fraction(-1, 30)
    assert table[10] == Fraction(5, 66)
    assert table[12] == Fraction(-691, 2730)
    assert all(table[k] == 0 for k in (3, 5, 7, 9, 11))


def test_von_staudt_clausen_denominators():
    table = bernoulli_table(40)
    for m in range(2, 41, 2):
        expected = 1
        for q in primes_below(m + 2):
            if m % (q - 1) == 0:
                expected *= q
        assert table[m].denominator == expected


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli_table(-1)


def test_regularity_matches_exact_numerators():
    # direct Kummer criterion from the exact table, independently of the
    # mod-p recurrence used by is_regular
    for p in [q for q in primes_below(60) if q > 2]:
        table = bernoulli_table(max(p - 3, 0))
        divides_some = any(
            table[k].numerator % p == 0 for k in range(2, p - 2, 2)
        )
        assert is_regular(p) == (not divides_some)


def test_irregular_fixtures():
    assert irregular_primes_below(200) == IRREGULAR_BELOW_200
    assert irregular_primes_below(500) == IRREGULAR_BELOW_500
    assert irregular_primes_below(37) == []
    assert min(irregular_primes_below(200)) == 37


def test_known_irregular_witnesses():
    # 37 | numerator(B_32) and 59 | numerator(B_44): the classical pairs
    table = bernoulli_table(44)
    assert table[32].numerator % 37 == 0
    assert table[44].numerator % 59 == 0
    assert not is_regular(37)
    assert not is_regular(59)
    assert is_regular(5) and is_regular(7) and is_regular(11)


def test_is_regular_input_contract():
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            is_regular(bad)
    with pytest.raises(ValueError):
        is_regular(10007)  # prime, but beyond the documented cap
    assert MAX_REGULARITY_PRIME == 10_000


def test_is_regular_checks_the_cap_before_primality(deadline):
    # is_prime cannot prove 2^89 - 1 prime, so the cap has to come first
    with deadline(5), pytest.raises(ValueError, match="capped"):
        is_regular(2**89 - 1)


# the places of Q(mu_p) above ell != p come from reduction_over_K, which
# reads f and g off any curve; they are unramified, so e = 1 shows as
# f g = p - 1. The place above p is covered by the place-set tests in
# test_localdata
E11A1 = WeierstrassModel(0, -1, 1, -10, -20)


def decomposition(ell: int, p: int) -> tuple[int, int]:
    red = reduction_over_K(E11A1, ell, p)
    return red.f, red.g


def test_decomposition_degree_identity():
    for p in (3, 5, 7, 11, 13):
        for ell in primes_below(100):
            if ell == p:
                continue
            f, g = decomposition(ell, p)
            assert f * g == p - 1
            assert f == multiplicative_order(ell % p, p)


def test_decomposition_worked_values():
    assert decomposition(11, 5) == (1, 4)  # 11 = 1 mod 5: split
    assert decomposition(2, 5) == (4, 1)   # 2 generates (Z/5)^x
    assert decomposition(7, 3) == (1, 2)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(0, 24))
def test_splitting_count_from_orbits(p, idx):
    # g equals the number of Frobenius orbits on the nonzero residues,
    # counted here directly as (p-1)/ord(ell)
    ells = [ell for ell in primes_below(200) if ell != p]
    ell = ells[idx % len(ells)]
    f, g = decomposition(ell, p)
    orbits = set()
    for r in range(1, p):
        orbit = frozenset(r * pow(ell, k, p) % p for k in range(f))
        orbits.add(orbit)
    assert len(orbits) == g


def test_tower_ramification_statements():
    r = kinf_ramification(5, "Q")
    assert "5" in r.detail
    r = kinf_ramification(5, "Q(mu_p)")
    assert "eta_5" in r.detail
    with pytest.raises(ValueError):
        kinf_ramification(5, "Q(sqrt(2))")
