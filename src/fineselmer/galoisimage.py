"""Stable subgroups of the p-torsion and certification of the image size.

The mod-p image condition needed downstream is: the Galois image in
GL_2(F_p) is nonsolvable, or has order prime to p.  Three mechanically
checkable situations decide it.

* Two or more stable order-p subgroups: the image stabilizes two
  independent lines, hence lies in a split Cartan subgroup of order
  dividing (p-1)^2.  Prime to p, certified.  Restriction to a subfield
  of Q(E[p]) such as Q(mu_p) only shrinks the group, so the certificate
  descends.

* Exactly one stable subgroup: the image sits in a Borel subgroup and
  fixes no second line.  A Borel subgroup of order prime to p is
  conjugate to a diagonal one by Schur-Zassenhaus and would leave a
  second line stable, so the image must contain a unipotent element.
  It is then solvable with order divisible by p: the condition is
  refuted, and stays refuted over Q(mu_p) because unipotents have
  determinant one and so lie in the subgroup cut out by the cyclotomic
  character.

* No stable subgroup plus a surjectivity certificate: the image is all
  of GL_2(F_p), nonsolvable for p >= 5 (over Q(mu_p) it still contains
  SL_2(F_p)).  The certificate is never issued for p = 3, where GL_2 is
  solvable and the order test below degenerates, nor for a curve with
  complex multiplication, whose image lies in the normalizer of a
  Cartan subgroup (Serre 1972, section 4.5): its j-invariant is one of
  the 13 in CM_J_INVARIANTS, and the hunt for Frobenius witnesses is
  skipped there because two of its witnesses can never both appear.

Everything else is reported as inconclusive, never guessed.

Stable subgroups are found by factoring the p-division polynomial over
Q and testing every factor product of degree (p-1)/2 for closure of its
root set under the multiplication-by-g maps, g running over generators
of (Z/p)^x up to sign.  Closure under those maps pins the root set as
the x-coordinates of a single line in E[p], which is what makes the
witness a certificate rather than a heuristic.  Each witness carries
the isogenous quotient curve computed from the kernel polynomial and a
trail of Frobenius traces checked against the original curve.

Before any factoring over Q, psi_p is reduced modulo its first good
prime l: one not dividing the leading coefficient, with psi_p mod l
squarefree of the same degree.  The kernel polynomial of a stable line
is a rational divisor of psi_p of degree d = (p-1)/2, and it reduces to
distinct irreducibles mod l of degree at most d whose degrees sum to d.
So when d is no subset sum of the degrees a distinct-degree split mod l
finds up to d, no stable line exists and the search ends with no
witness; that is exactly what the full search would have found.  Most
curves at p = 11 and 13 end there.  Otherwise the same reduction goes
on into the full factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .elliptic import WeierstrassModel, trace_of_frobenius
from .factorization import factor_int_poly, good_reduction
from .localdata import SUPPORTED_FIELDS
from .modular import primes_below
from .polynomial import QPoly

__all__ = [
    "StableSubgroupWitness",
    "find_stable_subgroups",
    "SurjectivityCertificate",
    "surjectivity_certificate",
    "ImageClassification",
    "classify_image",
]

TRACE_CHECK_BOUND = 100
# each trace is an O(ell) quadratic-character sum on plain ints, so the
# whole hunt below this bound costs tens of milliseconds per curve; a
# genuinely surjective representation yields all three witnesses long
# before it.  A curve with CM never runs the hunt: it could scan every
# prime up to here and still fail
CERTIFICATE_BOUND = 1_000

# the j-invariants of the 13 imaginary quadratic orders of class number
# one, which are exactly the j-invariants of the curves over Q with CM
CM_J_INVARIANTS = frozenset(Fraction(j) for j in (
    0, 1728, -3375, 8000, -32768, 54000, 287496, -884736, -12288000,
    16581375, -884736000, -147197952000, -262537412640768000))


def _xgcd(a: QPoly, b: QPoly) -> tuple[QPoly, QPoly, QPoly]:
    """(g, u, v) with u a + v b = g, g the monic gcd."""
    r0, r1 = a, b
    u0, u1 = QPoly.one(), QPoly.zero()
    v0, v1 = QPoly.zero(), QPoly.one()
    while not r1.is_zero:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero:
        return r0, u0, v0
    lead = r0.leading
    scale = QPoly.constant(1 / lead)
    return r0.monic(), u0 * scale, v0 * scale


def _inverse_mod(a: QPoly, h: QPoly) -> QPoly | None:
    g, u, _ = _xgcd(a % h, h)
    if g.degree != 0:
        return None
    return u % h


def _span_with_sign(p: int, gens: tuple[int, ...]) -> set[int]:
    """Subgroup of (Z/p)^x generated by -1 and the given integers."""
    span = {1, p - 1}
    muls = [g % p for g in gens]
    grew = True
    while grew:
        grew = False
        for a in list(span):
            for b in muls:
                c = a * b % p
                if c not in span:
                    span.add(c)
                    grew = True
    return span


def _halfgroup_generators(p: int) -> tuple[int, ...]:
    """Small integers generating (Z/p)^x modulo sign; empty for p = 3."""
    gens: list[int] = []
    for g in range(2, p):
        span = _span_with_sign(p, tuple(gens))
        if len(span) == p - 1:
            break
        if g % p not in span:
            gens.append(g)
    assert len(_span_with_sign(p, tuple(gens))) == p - 1
    return tuple(gens)


@dataclass(frozen=True)
class StableSubgroupWitness:
    p: int
    kernel_monic: QPoly
    kernel_primitive: QPoly
    quotient: WeierstrassModel
    closure_generators: tuple[int, ...]
    trace_primes: tuple[int, ...]

    def __repr__(self) -> str:
        return (f"StableSubgroupWitness(p={self.p}, "
                f"kernel={self.kernel_primitive!r}, "
                f"quotient={tuple(int(a) for a in self.quotient.a_invariants)})")


def _closed_under_multiples(model: WeierstrassModel, h: QPoly, p: int,
                            gens: tuple[int, ...]) -> bool:
    """Is the root set of h stable under x([g]P) for every generator g?"""
    for g in gens:
        num, den = model.x_multiple_fraction(g)
        dinv = _inverse_mod(den, h)
        if dinv is None:
            # den shares a root with h: h contains an x-coordinate killed
            # by [g], impossible for points of exact order p, so reject
            return False
        xg = (num % h) * dinv % h
        acc = QPoly.zero()
        for c in reversed(h.coeffs):
            acc = (acc * xg) % h + QPoly.constant(c)
        if not acc.is_zero:
            return False
    return True


def _velu_quotient(model: WeierstrassModel, h: QPoly) -> WeierstrassModel:
    """Quotient by the subgroup with monic kernel polynomial h (odd order)."""
    d = h.degree
    s1 = -h.coeff(d - 1)
    s2 = h.coeff(d - 2) if d >= 2 else Fraction(0)
    s3 = -h.coeff(d - 3) if d >= 3 else Fraction(0)
    b2, b4, b6 = model.b2, model.b4, model.b6
    p2 = s1 * s1 - 2 * s2
    p3 = s1 ** 3 - 3 * s1 * s2 + 3 * s3
    t = 6 * p2 + b2 * s1 + d * b4
    w = 10 * p3 + 2 * b2 * p2 + 3 * b4 * s1 + d * b6
    return WeierstrassModel(model.a1, model.a2, model.a3,
                            model.a4 - 5 * t, model.a6 - b2 * t - 7 * w)


def _matching_trace_primes(a: WeierstrassModel, b: WeierstrassModel,
                           p: int, bound: int) -> tuple[int, ...] | None:
    """Primes ell <= bound of visibly good reduction for both models where
    the Frobenius traces agree; None on any disagreement."""
    da = abs(int(a.discriminant))
    db = abs(int(b.discriminant))
    good = []
    for ell in primes_below(bound + 1):
        if ell == p or da % ell == 0 or db % ell == 0:
            continue
        if trace_of_frobenius(a, ell) != trace_of_frobenius(b, ell):
            return None
        good.append(ell)
    return tuple(good)


def find_stable_subgroups(model: WeierstrassModel, p: int,
                          trace_bound: int = TRACE_CHECK_BOUND
                          ) -> tuple[StableSubgroupWitness, ...]:
    """All Galois-stable order-p subgroups of E[p], certified.

    Candidates are the monic degree-(p-1)/2 products of rational
    irreducible factors of the p-division polynomial; each must pass the
    multiplication-closure test before the quotient is even attempted.
    When the division polynomial mod its good prime has no factor degrees
    summing to (p-1)/2, there is no candidate and nothing is factored.
    """
    if p % 2 == 0 or not 3 <= p <= 13:
        raise ValueError("p must be an odd prime within the ladder range")
    E = model.integral_model()
    psi = E.division_polynomial(p)
    d = (p - 1) // 2
    # psi is squarefree for a nonsingular curve, so a good prime exists
    reduction = good_reduction(psi)
    if reduction is not None and not reduction.admits_divisor_of_degree(d):
        return ()
    _, factors = factor_int_poly(psi, reduction=reduction)
    assert all(mult == 1 for _, mult in factors), "p-division polynomial must be squarefree"
    irreducibles = [f for f, _ in factors]
    gens = _halfgroup_generators(p)
    witnesses: list[StableSubgroupWitness] = []
    idx = range(len(irreducibles))
    for size in range(1, len(irreducibles) + 1):
        for subset in combinations(idx, size):
            if sum(irreducibles[i].degree for i in subset) != d:
                continue
            h = QPoly.one()
            for i in subset:
                h = h * irreducibles[i].monic()
            if not _closed_under_multiples(E, h, p, gens):
                continue
            quotient = _velu_quotient(E, h).integral_model()
            traces = _matching_trace_primes(E, quotient, p, trace_bound)
            assert traces is not None, (
                "certified kernel produced a quotient with mismatched traces")
            witnesses.append(StableSubgroupWitness(
                p, h, h.primitive(), quotient, gens, traces))
    witnesses.sort(key=lambda w: tuple(w.kernel_monic.coeffs))
    return tuple(witnesses)


# ---------------------------------------------------------------------------
# Surjectivity certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurjectivityCertificate:
    p: int
    nonsplit_witness: int      # ell with irreducible Frobenius char poly
    split_witness: int         # ell with distinct rational eigenvalues
    order_witness: int         # ell whose image has projective order > 5
    bound: int


def surjectivity_certificate(model: WeierstrassModel, p: int,
                             bound: int = CERTIFICATE_BOUND
                             ) -> SurjectivityCertificate | None:
    """Certify that the mod-p image is all of GL_2(F_p), or return None.

    Three kinds of Frobenius elements are hunted among good ell <= bound:

    (i)  trace a != 0 and a^2 - 4 ell a nonzero nonsquare mod p: the
         characteristic polynomial is irreducible, ruling out Borel and
         split Cartan overgroups (and a != 0 rules out the outer coset
         of a normalizer);
    (ii) a != 0 and a^2 - 4 ell a nonzero square mod p: distinct rational
         eigenvalues, which no nonsplit Cartan normalizer contains off
         its trace-zero coset;
    (iii) u = a^2 / ell mod p with u not in {0,1,2,4} and u^2 - 3u + 1
         != 0: writing r for the eigenvalue ratio, u = r + 1/r + 2, and
         these values pin the projective order of Frobenius to 6 (when
         u = 3, since then r is a primitive sixth root of unity) or to
         something above 6.  A_4, S_4, A_5 have no element of order
         beyond 5, so the projective image is not exceptional.  u = 4
         stays excluded: it cannot separate scalars from unipotents.

    Together with the surjectivity of the determinant (the mod-p
    cyclotomic character over Q) the three witnesses force the full
    group once p >= 5.  For p = 3 the group GL_2(F_3) is solvable, so
    no certificate is ever issued there.  Keeping u = 3 matters at
    p = 5, where u ranges over F_5 and the stricter exclusion set would
    leave nothing to hunt for.

    A curve with CM returns None before any point count, and that is
    exactly what the hunt would return.  Say E has CM by an order in
    the imaginary quadratic field K of discriminant D_K.  Then L(E, s)
    is the L-function of a Hecke character psi of K (Deuring), and
    primes ramified in K are bad for E.  At a good ell inert in K,
    a_ell = 0.  At a good ell split in K, a_ell = pi + conj(pi), where
    pi = psi(l) lies in the ring of integers of K for a prime l of K
    above ell, and pi conj(pi) = ell.  So a_ell^2 - 4 ell =
    (pi - conj(pi))^2 = D_K t^2 for an integer t.
    Whenever the hunt looks at a^2 - 4 ell mod p (a != 0 mod p and the
    difference nonzero mod p), its Legendre symbol is therefore
    (D_K / p), the same for every ell.  So witnesses (i) and (ii) never
    both appear, below any bound.
    """
    if p == 3 or model.j_invariant in CM_J_INVARIANTS:
        return None
    E = model.integral_model()
    disc = abs(int(E.discriminant))
    nonsplit = split = order_w = None
    for ell in primes_below(bound + 1):
        if ell == p or disc % ell == 0:
            continue
        a = trace_of_frobenius(E, ell)
        am = a % p
        if am != 0:
            d = (a * a - 4 * ell) % p
            if d != 0:
                euler = pow(d, (p - 1) // 2, p)
                if euler == p - 1 and nonsplit is None:
                    nonsplit = ell
                elif euler == 1 and split is None:
                    split = ell
        if order_w is None:
            u = a * a * pow(ell, p - 2, p) % p
            if u not in (0, 1, 2, 4) and (u * u - 3 * u + 1) % p != 0:
                order_w = ell
        if nonsplit and split and order_w:
            return SurjectivityCertificate(p, nonsplit, split, order_w, bound)
    return None


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImageClassification:
    p: int
    field: str
    status: str                       # TwoStableSubgroups | OneStableSubgroup |
                                      # SurjectiveCertified | Inconclusive
    image_condition: str              # certified | refuted | inconclusive
    coprime_to_p: bool | None
    nonsolvable: bool | None
    witnesses: tuple[StableSubgroupWitness, ...]
    certificate: SurjectivityCertificate | None
    notes: tuple[str, ...]


def classify_image(model: WeierstrassModel, p: int, field: str = "Q",
                   certificate_bound: int = CERTIFICATE_BOUND) -> ImageClassification:
    """Decide the image condition (nonsolvable or order prime to p).

    The verdict is computed from data over Q and each branch's argument
    descends to Q(mu_p), as spelled out in the module docstring; the
    kernels found over Q stay stable over any extension, and the one
    delicate direction (refutation) survives because the witnesses to
    failure have determinant one.
    """
    if field not in SUPPORTED_FIELDS:
        raise ValueError("field must be 'Q' or 'Q(mu_p)'")
    witnesses = find_stable_subgroups(model, p)
    n = len(witnesses)
    if n >= 2:
        return ImageClassification(
            p, field, "TwoStableSubgroups", "certified", True, False,
            witnesses, None,
            (f"{n} stable lines put the image in a split Cartan subgroup, "
             f"order dividing (p-1)^2 = {(p - 1) ** 2}",))
    if n == 1:
        return ImageClassification(
            p, field, "OneStableSubgroup", "refuted", False, False,
            witnesses, None,
            ("a single stable line forces a unipotent element: the image "
             "is solvable of order divisible by p, over Q and over Q(mu_p)",))
    cert = surjectivity_certificate(model, p, certificate_bound)
    if cert is not None:
        note = ("mod-p representation certified surjective; GL_2(F_p) is "
                f"nonsolvable for p = {p} >= 5")
        if field == "Q(mu_p)":
            note += "; over Q(mu_p) the image still contains SL_2(F_p)"
        return ImageClassification(
            p, field, "SurjectiveCertified", "certified", False, True,
            witnesses, cert, (note,))
    return ImageClassification(
        p, field, "Inconclusive", "inconclusive", None, None, witnesses, None,
        ("no stable subgroup, and the surjectivity witnesses were not all "
         f"found below {certificate_bound}",))
