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

Stable subgroups are found from the rational factors of the
p-division polynomial of degree at most (p-1)/2, the only ones a kernel
polynomial can hold: factor_int_poly, capped at that degree, lifts and
recombines nothing else.  Every product of them of degree (p-1)/2 is
tested for closure of its root set under the multiplication-by-g maps,
g running over generators of (Z/p)^x up to sign.  Closure under those
maps pins the root set as the x-coordinates of a single line in E[p],
which is what makes the witness a certificate rather than a heuristic.
psi_p of a nonsingular curve is squarefree, which is what
factor_int_poly asks of its input, and so is every candidate kernel, a
product of primitive integer factors and so primitive (Gauss).  That
lets the closure test clear the denominator of x([g]P) by homogenising,
with no inverse modulo the kernel, and run on ints: y = lc x, lc the
kernel's leading coefficient, makes the kernel monic in Z[y] (see
_closed_under_multiples).  Each witness carries the isogenous quotient
curve computed from the kernel polynomial and a trail of Frobenius
traces checked against the original curve.  One search counts each of
the original curve's traces once, in one sweep, however many candidates
close, and keeps nothing after it returns.

Before any factoring over Q, psi_p is reduced modulo its first good
prime l: one not dividing the leading coefficient, with psi_p mod l
squarefree of the same degree.  The kernel polynomial of a stable line
is a rational divisor of psi_p of degree d = (p-1)/2, and it reduces to
distinct irreducibles mod l of degree at most d whose degrees sum to d.
So when d is no subset sum of the degrees a distinct-degree split mod l
finds up to d, no stable line exists and the search ends with no
witness; that is exactly what the full search would have found.  Most
curves at p = 11 and 13 end there.  Otherwise the same reduction goes
on into the factorization capped at d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .elliptic import (LADDER_MAX, WeierstrassModel, frobenius_traces,
                       trace_of_frobenius)
from .factorization import NoGoodPrime, factor_int_poly, good_reduction
from .localdata import require_field
from .modular import primes_below, require_odd_prime
from .polynomial import QPoly, _add, _mul

__all__ = [
    "StableSubgroupWitness",
    "find_stable_subgroups",
    "SurjectivityCertificate",
    "surjectivity_certificate",
    "ImageClassification",
    "classify_image",
]

# a witness's trace trail runs over the good primes up to here; like
# CERTIFICATE_BOUND it is fixed, far below elliptic.COUNT_LIMIT
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


def _halfgroup_generators(p: int) -> tuple[int, ...]:
    """Generators of (Z/p)^x modulo sign, for p = 3 ... 13.

    -1 alone gives (Z/3)^x. 2 is a primitive root mod 5, 11 and 13; mod 7
    it has order 3 and -1 is not in <2>, so +-<2> is all of (Z/7)^x.
    """
    return () if p == 3 else (2,)


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
                f"quotient={self.quotient.a_invariants})")


def _closed_under_multiples(model: WeierstrassModel, h: QPoly,
                            gens: tuple[int, ...]) -> bool:
    """Is the root set of h stable under x([g]P) for every generator g?

    h is squarefree, a divisor of psi_p, and N/D = x([g]P) is the
    x-multiple map, with D = psi_g^2 and N = x D - psi_(g-1) psi_(g+1)
    integer polynomials, e = deg N > deg D. The test runs on ints
    through y = lc x, for sum_i c_i x^i the primitive form of h, of
    degree d and leading coefficient lc: H(y) = lc^(d-1) h(y/lc) is
    monic in Z[y], and N~(y) = lc^e N(y/lc), D~(y) = lc^e D(y/lc) are
    integral. x -> y/lc maps Q[x]/(h) onto Q[y]/(H), and x([g]P) on the
    roots r of h to y -> lc N~(y)/D~(y) on the roots s = lc r of H. The
    test is the homogenised Horner sum S = sum_i H_i (lc N~)^i D~^(d-i)
    rem H = lc^(d-1) sum_i c_i N~^i D~^(d-i) rem H, computed as the
    latter, and it accepts exactly when S = 0; no inverse is needed.

    N and D are coprime. At a common root r, psi_g(r) = 0 and one of
    psi_(g-1)(r), psi_(g+1)(r) is 0, so a point P with x(P) = r has
    [g]P = O and [g-1]P = O or [g+1]P = O, hence P = O, which has no
    finite x-coordinate. So lc N~ and D~ are coprime too. At a root s
    of H, S(s) = D~(s)^d H(lc N~(s)/D~(s)) = lc^(d-1) D~(s)^d h(N(r)/D(r))
    when D~(s) != 0, and S(s) = (lc N~(s))^d != 0 when D~(s) = 0. As H
    is squarefree, S = 0 says that every root r of h has D(r) != 0 and
    x([g]P) a root of h again. A root with D(r) = 0 is killed by [g],
    which no point of exact order p is, and it is rejected.
    """
    c = h.primitive().int_coeffs()
    d, lc = len(c) - 1, c[-1]
    H = [ci * lc ** (d - 1 - i) for i, ci in enumerate(c[:-1])] + [1]
    for g in gens:
        num, den = model.x_multiple_coeffs(g)
        e = len(num) - 1
        num, den = (_rem_monic([a * lc ** (e - i) for i, a in enumerate(t)], H)
                    for t in (num, den))
        # acc = sum_{j >= i} c_j N~^(j-i) D~^(d-j), built from i = d down
        acc, den_power = [lc], [1]
        for ci in reversed(c[:-1]):
            den_power = _rem_monic(_mul(den_power, den), H)
            acc = _rem_monic(_add(_mul(acc, num), [ci * a for a in den_power]), H)
        if any(acc):
            return False
    return True


def _rem_monic(a: list[int], m: list[int]) -> list[int]:
    """a rem m in Z[x] for a monic m, as deg m coefficients."""
    dm = len(m) - 1
    a = a + [0] * (dm - len(a))
    for i in range(len(a) - 1, dm - 1, -1):
        for j in range(dm):
            a[i - dm + j] -= a[i] * m[j]
    return a[:dm]


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
                           p: int, a_traces: dict[int, int]
                           ) -> tuple[int, ...] | None:
    """Primes ell <= TRACE_CHECK_BOUND of visibly good reduction for both
    models where the Frobenius traces agree; None on any disagreement.

    a_traces maps ell to a's trace; the traces missing from it are
    counted in one sweep and stored, so a caller that matches a against
    several quotients passes one dict and counts each of a's traces
    once. b is swept once."""
    da = abs(a.discriminant)
    db = abs(b.discriminant)
    good = [ell for ell in primes_below(TRACE_CHECK_BOUND + 1)
            if ell != p and da % ell and db % ell]
    missing = [ell for ell in good if ell not in a_traces]
    if missing:
        a_traces.update(zip(missing, frobenius_traces(a, missing)))
    if frobenius_traces(b, good) != [a_traces[ell] for ell in good]:
        return None
    return tuple(good)


def find_stable_subgroups(model: WeierstrassModel, p: int
                          ) -> tuple[StableSubgroupWitness, ...]:
    """All Galois-stable order-p subgroups of E[p], certified.

    Candidates are the monic degree-(p-1)/2 products of rational
    irreducible factors of the p-division polynomial, of which only those
    of degree <= (p-1)/2 are computed; each must pass the
    multiplication-closure test before the quotient is even attempted.
    When the division polynomial mod its good prime has no factor degrees
    summing to (p-1)/2, there is no candidate and nothing is factored.
    """
    # the cap comes first: is_prime on a huge p would not return
    if p > LADDER_MAX:
        raise ValueError(f"p is capped at {LADDER_MAX} by the division-polynomial ladder")
    require_odd_prime(p)
    E = model.integral_model()
    psi = E.division_polynomial(p)
    d = (p - 1) // 2
    # psi is squarefree for a nonsingular curve, so some prime is good
    # for it, but none below the scan's bound need be
    reduction = good_reduction(psi)
    if reduction is None:
        raise NoGoodPrime(f"the {p}-division polynomial")
    if not reduction.admits_divisor_of_degree(d):
        return ()
    # only a factor of degree <= d can divide a kernel polynomial
    _, factors = factor_int_poly(psi, max_degree=d, reduction=reduction)
    irreducibles = [f.int_coeffs() for f, _ in factors]
    gens = _halfgroup_generators(p)
    witnesses: list[StableSubgroupWitness] = []
    E_traces: dict[int, int] = {}
    idx = range(len(irreducibles))
    for size in range(1, len(irreducibles) + 1):
        for subset in combinations(idx, size):
            if sum(len(irreducibles[i]) - 1 for i in subset) != d:
                continue
            # a product of primitive factors is primitive (Gauss)
            kernel = [1]
            for i in subset:
                kernel = _mul(kernel, irreducibles[i])
            primitive = QPoly(kernel)
            if not _closed_under_multiples(E, primitive, gens):
                continue
            h = primitive.monic()
            quotient = _velu_quotient(E, h).integral_model()
            traces = _matching_trace_primes(E, quotient, p, E_traces)
            if traces is None:
                raise AssertionError(
                    "certified kernel produced a quotient with mismatched traces")
            witnesses.append(StableSubgroupWitness(
                p, h, primitive, quotient, gens, traces))
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
    bound: int                 # CERTIFICATE_BOUND, the hunt's range


def surjectivity_certificate(model: WeierstrassModel, p: int
                             ) -> SurjectivityCertificate | None:
    """Certify that the mod-p image is all of GL_2(F_p), or return None.

    Three kinds of Frobenius elements are hunted among good
    ell <= CERTIFICATE_BOUND:

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
    require_odd_prime(p)
    if p == 3 or model.j_invariant in CM_J_INVARIANTS:
        return None
    E = model.integral_model()
    disc = abs(E.discriminant)
    nonsplit = split = order_w = None
    for ell in primes_below(CERTIFICATE_BOUND + 1):
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
            return SurjectivityCertificate(p, nonsplit, split, order_w,
                                           CERTIFICATE_BOUND)
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


def classify_image(model: WeierstrassModel, p: int, field: str = "Q"
                   ) -> ImageClassification:
    """Decide the image condition (nonsolvable or order prime to p).

    The verdict is computed from data over Q and each branch's argument
    descends to Q(mu_p), as spelled out in the module docstring; the
    kernels found over Q stay stable over any extension, and the one
    delicate direction (refutation) survives because the witnesses to
    failure have determinant one.
    """
    require_field(field)
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
    cert = surjectivity_certificate(model, p)
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
         f"found below {CERTIFICATE_BOUND}",))
