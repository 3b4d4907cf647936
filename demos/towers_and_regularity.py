"""The arithmetic inputs that live upstream of any particular curve:
Bernoulli numerators and regular primes, and the decomposition of a
rational prime in the cyclotomic tower.

Run: python3 demos/towers_and_regularity.py
"""

from fineselmer import (
    bernoulli_table,
    finite_level_place_count,
    g_v,
    irregular_primes_below,
    is_regular,
    kinf_ramification,
)

# Regularity decides whether the unique-total-ramification argument can be
# certified. 37 is the first failure: it divides the numerator of B_32.
print("irregular primes below 200:", irregular_primes_below(200))
B = bernoulli_table(40)
print("37 divides numerator of B_32:", B[32].numerator % 37 == 0)
print("is_regular(5) =", is_regular(5), "  is_regular(37) =", is_regular(37))
print()

# How a prime ell spreads out in the tower over Q: one place when the
# Frobenius fills the p-part of the cyclotomic character image, more when
# ell is close to 1 p-adically.
p = 5
for ell in (3, 7, 11, 101, 443):
    counts = [finite_level_place_count(ell, p, n) for n in range(7)]
    print(f"ell={ell:>3}: g = {g_v(ell, p, 'Q'):>3}   levels: {counts}")
print()

# 11 is 1 mod 5 but 11^4 - 1 is divisible by 5 only once, so the count
# never leaves 1. 101 = 1 mod 25 splits at the first layer and stops.
# 443^4 = 1 mod 5^4, so its count keeps climbing to 125 before freezing.
# The closed form always matches the stabilized column.

# The place above p itself never splits: totally ramified, certified for
# the two base fields the pipeline computes with.
for field in ("Q", "Q(mu_p)"):
    r = kinf_ramification(p, field)
    print(f"{field}: {r.detail}")
