"""Mod-p Galois image certification on three contrasting curves.

The bound machinery cares about one dichotomy: is the image order coprime
to p (then the global head terms vanish under the other hypotheses), or
does a stable line force the p | order case? This script shows both ends
and the certified-surjective case.

Run: python3 demos/galois_images.py
"""

from fineselmer import (
    WeierstrassModel,
    classify_image,
    find_stable_subgroups,
    surjectivity_certificate,
)


def show(title, model, p):
    c = classify_image(model, p)
    print(f"{title}: {model.a_invariants} at p={p}")
    print(f"  status {c.status}, image condition {c.image_condition}")
    for w in c.witnesses:
        kernel = ", ".join(str(c0) for c0 in w.kernel_monic.coeffs)
        print(f"  stable line: kernel coeffs ({kernel}), "
              f"quotient j = {w.quotient.j_invariant}")
    for n in c.notes:
        print(f"  note: {n}")
    print()


# Rational 5-torsion: two stable lines, a full basis of characters. The
# image sits in a split torus of order prime to 5, certified.
show("two lines ", WeierstrassModel(0, -1, 1, -10, -20), 5)

# The 5-isogenous curve: one stable line only, and its E[5] is a
# non-split extension. p divides the image order; coprimality is refuted.
show("one line  ", WeierstrassModel(0, -1, 1, -7820, -263580), 5)

# No torsion structure at all: three Frobenius witnesses certify the
# image is everything.
E37 = WeierstrassModel(0, 0, 1, -1, 0)
show("surjective", E37, 5)
cert = surjectivity_certificate(E37, 5)
print(f"certificate primes: nonsplit {cert.nonsplit_witness}, "
      f"split {cert.split_witness}, order {cert.order_witness}")
print()

# p = 3 is never certified by this route: PGL_2(F_3) is solvable, so the
# three Frobenius rules cannot separate it from its subgroups.
print("p=3 certificate for the same curve:", surjectivity_certificate(E37, 3))

# Stable subgroups can be hunted directly, without the classification.
for w in find_stable_subgroups(WeierstrassModel(1, 0, 2, 0, 0), 3):
    coeffs = ", ".join(str(c) for c in w.kernel_primitive.coeffs)
    print(f"a 3-stable kernel on (1,0,2,0,0): coeffs ({coeffs})")
