"""Mod-p image analysis: stable subgroups, surjectivity certificates.

Every witness object that the module emits is re-verified here from its
defining properties, not trusted: kernel polynomials must divide the
division polynomial exactly, quotient curves must match traces of Frobenius
at the recorded primes, and certificate witness primes must re-satisfy the
three Frobenius rules from scratch.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fineselmer import factorization, galoisimage, modular
from fineselmer.elliptic import LADDER_MAX, WeierstrassModel, trace_of_frobenius
from fineselmer.factorization import factor_int_poly, good_reduction
from fineselmer.finitefield import FqPoly
from fineselmer.galoisimage import (
    CERTIFICATE_BOUND,
    CM_J_INVARIANTS,
    SurjectivityCertificate,
    _closed_under_multiples,
    _halfgroup_generators,
    classify_image,
    find_stable_subgroups,
    surjectivity_certificate,
)
from fineselmer.lambdabound import compute_lambda_bound
from fineselmer.modular import is_prime, primes_below
from fineselmer.polynomial import QPoly
from oracles import closed_under_multiples_by_inverse, find_stable_subgroups_by_full_factoring
from test_elliptic import isogeny_13_curve

E11A1 = WeierstrassModel(0, -1, 1, -10, -20)
E11A2 = WeierstrassModel(0, -1, 1, -7820, -263580)
E11A3 = WeierstrassModel(0, -1, 1, 0, 0)
E37A1 = WeierstrassModel(0, 0, 1, -1, 0)
E49A1 = WeierstrassModel(1, -1, 0, -2, -1)


def reverify_witness(model: WeierstrassModel, w) -> None:
    E = model.integral_model()
    psi = E.division_polynomial(w.p)
    assert w.kernel_monic.degree == (w.p - 1) // 2
    assert w.kernel_monic.leading == 1
    assert psi % w.kernel_monic == QPoly.zero()
    assert w.kernel_primitive.is_integral and w.kernel_primitive.leading > 0
    assert psi % w.kernel_primitive == QPoly.zero()
    quot = w.quotient.integral_model()
    assert w.trace_primes
    for ell in w.trace_primes:
        assert trace_of_frobenius(E, ell) == trace_of_frobenius(quot, ell)


def reverify_certificate(model: WeierstrassModel, p: int, cert) -> None:
    E = model.integral_model()
    disc = abs(int(E.discriminant))
    assert cert.p == p
    for ell in (cert.nonsplit_witness, cert.split_witness, cert.order_witness):
        assert ell != p and disc % ell != 0
        assert ell <= cert.bound
    a1 = trace_of_frobenius(E, cert.nonsplit_witness)
    assert a1 % p != 0
    d1 = (a1 * a1 - 4 * cert.nonsplit_witness) % p
    assert d1 != 0 and pow(d1, (p - 1) // 2, p) == p - 1
    a2 = trace_of_frobenius(E, cert.split_witness)
    assert a2 % p != 0
    d2 = (a2 * a2 - 4 * cert.split_witness) % p
    assert d2 != 0 and pow(d2, (p - 1) // 2, p) == 1
    a3 = trace_of_frobenius(E, cert.order_witness)
    u = a3 * a3 * pow(cert.order_witness, p - 2, p) % p
    assert u not in (0, 1, 2, 4)
    assert (u * u - 3 * u + 1) % p != 0


def test_halfgroup_generators():
    # -1 and the generators span (Z/p)^x, by brute force from the definition
    for p in (3, 5, 7, 11, 13):
        gens = _halfgroup_generators(p)
        assert gens == ((2,) if p > 3 else ())
        span = {1, p - 1}
        for g in gens:
            span = {s * pow(g, k, p) % p for s in span for k in range(p - 1)}
        assert span == set(range(1, p))


def test_isogeny_class_with_two_stable_lines():
    witnesses = find_stable_subgroups(E11A1, 5)
    assert len(witnesses) == 2
    kernels = {tuple(w.kernel_primitive.int_coeffs()) for w in witnesses}
    assert (80, -21, 1) in kernels  # (x - 5)(x - 16), the rational torsion line
    quotient_js = {w.quotient.j_invariant for w in witnesses}
    assert quotient_js == {E11A2.j_invariant, E11A3.j_invariant}
    for w in witnesses:
        reverify_witness(E11A1, w)


def test_single_stable_line_forces_refutation():
    witnesses = find_stable_subgroups(E11A2, 5)
    assert len(witnesses) == 1
    assert witnesses[0].quotient.j_invariant == E11A1.j_invariant
    # the monic kernel is non-integral here; the primitive form is the
    # one that divides the division polynomial over Z
    assert any(c.denominator == 5 for c in witnesses[0].kernel_monic.coeffs)
    reverify_witness(E11A2, witnesses[0])

    c = classify_image(E11A2, 5)
    assert (c.status, c.image_condition) == ("OneStableSubgroup", "refuted")
    assert classify_image(E11A2, 5, "Q(mu_p)").image_condition == "refuted"


def test_two_stable_lines_certify_image_condition():
    c = classify_image(E11A1, 5)
    assert (c.status, c.image_condition, c.coprime_to_p) == (
        "TwoStableSubgroups", "certified", True,
    )
    assert len(c.witnesses) == 2


def test_dual_line_found_from_the_other_end():
    witnesses = find_stable_subgroups(E11A3, 5)
    assert len(witnesses) == 1
    assert witnesses[0].quotient.j_invariant == E11A1.j_invariant
    reverify_witness(E11A3, witnesses[0])


def test_rational_three_torsion_line():
    model = WeierstrassModel(1, 0, 2, 0, 0)
    witnesses = find_stable_subgroups(model, 3)
    assert any(tuple(w.kernel_primitive.int_coeffs()) == (0, 1) for w in witnesses)
    for w in witnesses:
        reverify_witness(model, w)


def test_surjectivity_certificates_reverify():
    for model, p in ((E37A1, 5), (E37A1, 7), (E37A1, 11), (E37A1, 13)):
        cert = surjectivity_certificate(model, p)
        assert cert is not None, (model.a_invariants, p)
        reverify_certificate(model, p, cert)


def test_certified_classification_is_nonsolvable():
    c = classify_image(E37A1, 7)
    assert (c.status, c.image_condition, c.nonsolvable) == (
        "SurjectiveCertified", "certified", True,
    )
    assert c.certificate is not None
    reverify_certificate(E37A1, 7, c.certificate)
    over_k = classify_image(E37A1, 7, "Q(mu_p)")
    assert over_k.image_condition == "certified"
    assert any("SL_2" in note for note in over_k.notes)


def test_p5_certificate_exists_via_order_six_witness():
    cert = surjectivity_certificate(E37A1, 5)
    assert cert is not None
    a = trace_of_frobenius(E37A1, cert.order_witness)
    assert a * a * pow(cert.order_witness, 3, 5) % 5 == 3
    assert classify_image(E37A1, 5).status == "SurjectiveCertified"


def test_no_certificate_at_p3_ever():
    assert surjectivity_certificate(E37A1, 3) is None
    rng = random.Random(6)
    tried = 0
    while tried < 12:
        try:
            E = WeierstrassModel(*(rng.randint(-8, 8) for _ in range(5)))
        except ValueError:
            continue
        assert surjectivity_certificate(E, 3) is None
        assert classify_image(E, 3).certificate is None
        tried += 1


def test_cm_curve_stays_uncertified():
    # 49a1 has CM, so its mod-3 image is far from the full group
    c = classify_image(E49A1, 3)
    assert c.certificate is None
    assert c.status in ("Inconclusive", "TwoStableSubgroups")


def test_inconclusive_when_nothing_is_found():
    # CM by Z[i]: the mod-5 image lies in a Cartan normalizer, so no
    # surjectivity certificate can exist, and conjugation swaps the two
    # CM kernels so neither stable line is rational
    model = WeierstrassModel(0, 0, 0, -1, 0)
    c = classify_image(model, 5)
    assert c.status == "Inconclusive"
    assert c.image_condition == "inconclusive"
    assert c.witnesses == () and c.certificate is None


def test_witness_reverification_over_corpus():
    # curves with known rational p-isogenies, then a short random sweep;
    # every emitted witness must survive re-verification
    corpus = [
        (E11A1, 5),
        (E11A2, 5),
        (E11A3, 5),
        (WeierstrassModel(1, 0, 2, 0, 0), 3),
        (WeierstrassModel(0, 0, 0, 0, 1), 3),  # (0, 1) is 3-torsion
        (WeierstrassModel(0, 0, 0, 0, -27), 3),
    ]
    rng = random.Random(88)
    for _ in range(25):
        try:
            corpus.append((WeierstrassModel(*(rng.randint(-6, 6) for _ in range(5))), 3))
        except ValueError:
            continue
    reverified = 0
    for E, p in corpus:
        for w in find_stable_subgroups(E, p):
            reverify_witness(E, w)
            reverified += 1
    assert reverified >= 6


def test_certificate_rules_cover_all_good_primes():
    # independent scan: every prime the hunt may cite is good and != p
    cert = surjectivity_certificate(E37A1, 7)
    good = [ell for ell in primes_below(cert.bound + 1)
            if ell != 7 and int(E37A1.discriminant) % ell != 0]
    assert cert.nonsplit_witness in good
    assert cert.split_witness in good
    assert cert.order_witness in good


# --- the degree test against the search by full factoring it short-cuts ---

CREMONA = {
    "11a1": (0, -1, 1, -10, -20),
    "11a2": (0, -1, 1, -7820, -263580),
    "11a3": (0, -1, 1, 0, 0),
    "14a1": (1, 0, 1, 4, -6),
    "20a1": (0, 1, 0, 4, 4),
    "26b1": (1, -1, 1, -3, 3),
    "37a1": (0, 0, 1, -1, 0),
    "38b1": (1, 1, 1, 0, 1),
    "27a1": (0, 0, 1, 0, -7),
    "32a2": (0, 0, 0, -1, 0),
    "36a1": (0, 0, 0, 0, 1),
    "43a1": (0, 1, 1, 0, 0),
    "389a1": (0, 1, 1, -2, 0),
}


def witness_key(w):
    return (w.p, w.kernel_monic, w.kernel_primitive, w.quotient.a_invariants,
            w.closure_generators, w.trace_primes)


def has_subset_of_degree(degrees, d):
    return any(sum(c) == d for size in range(1, len(degrees) + 1)
               for c in combinations(degrees, size))


def test_degree_test_agrees_with_full_factoring():
    excluded = kept = 0
    for label, a in CREMONA.items():
        E = WeierstrassModel(*a).integral_model()
        disc = int(E.discriminant)
        for p in (3, 5, 7):
            if disc % p == 0:
                continue
            psi = E.division_polynomial(p)
            d = (p - 1) // 2
            _, factors = factor_int_poly(psi)
            admits = good_reduction(psi).admits_divisor_of_degree(d)
            if has_subset_of_degree([f.degree for f, _ in factors], d):
                assert admits, (label, p)
            excluded += not admits
            kept += admits
            fast = find_stable_subgroups(E, p)
            slow = find_stable_subgroups_by_full_factoring(E, p)
            assert [witness_key(w) for w in fast] == [witness_key(w) for w in slow], (label, p)
    # both sides of the test are exercised
    assert excluded >= 10 and kept >= 10


# --- the search capped at degree (p-1)/2 against the full factoring it replaces ---


def test_search_matches_full_factoring_on_the_bench_corpus(bench_corpus):
    jobs = (bench_corpus.SURJECTIVE_P11 + bench_corpus.ISOGENY_LINES
            + bench_corpus.INCONCLUSIVE_CM + bench_corpus.BATCH_GENERIC
            + bench_corpus.BATCH_BLOCKED)
    pairs = sorted({(job.curve, job.p) for job in jobs if job.p <= 7})
    lines = 0
    for curve, p in pairs:
        E = WeierstrassModel(*curve)
        fast = find_stable_subgroups(E, p)
        slow = find_stable_subgroups_by_full_factoring(E, p)
        assert [witness_key(w) for w in fast] == [witness_key(w) for w in slow], (curve, p)
        lines += len(fast)
    # 11a1 and 14a1 have two lines; 11a2, 11a3, 20a1, 26b1, 38b1 and 49a1
    # (CM by the order of discriminant -7, ramified at 7) have one
    assert lines == 10


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.integers(-6, 6)] * 5), st.sampled_from([3, 5, 7]))
@example(CREMONA["11a1"], 5)
@example(CREMONA["14a1"], 3)
@example(CREMONA["26b1"], 7)
def test_search_matches_full_factoring_on_small_curves(a, p):
    try:
        E = WeierstrassModel(*a)
    except ValueError:
        assume(False)
    fast = find_stable_subgroups(E, p)
    slow = find_stable_subgroups_by_full_factoring(E, p)
    assert [witness_key(w) for w in fast] == [witness_key(w) for w in slow]


def test_stable_subgroup_search_never_takes_the_boxed_split(monkeypatch):
    # psi_p is split mod an odd prime l on int lists, both the
    # distinct-degree and the equal-degree split; a boxed split would
    # have to build FqPolys
    def boxed(*args):
        raise AssertionError("an FqPoly split ran over F_l")

    # no step of the whole pipeline builds an FqPoly: the squarefree test,
    # the splits, the Hensel lift and the recombination all run on ints.
    # The patch stays in place for the searches below
    runs = [(CREMONA["14a1"], 3), (CREMONA["11a1"], 5), (CREMONA["27a1"], 7),
            (CREMONA["37a1"], 11)]
    expected = [compute_lambda_bound(WeierstrassModel(*curve), p) for curve, p in runs]
    monkeypatch.setattr(FqPoly, "__init__", boxed)
    assert [compute_lambda_bound(WeierstrassModel(*curve), p) for curve, p in runs] == expected

    splits = []
    split_ints = factorization._equal_degree_ints

    def counting_split(f, d, l, rng):
        splits.append(l)
        return split_ints(f, d, l, rng)

    monkeypatch.setattr(factorization, "_equal_degree_ints", counting_split)
    assert find_stable_subgroups(WeierstrassModel(*CREMONA["27a1"]), 7) == ()
    assert len(find_stable_subgroups(E11A1, 5)) == 2
    assert splits


def test_no_line_at_11_on_37a1_powers_nothing(monkeypatch):
    # psi_11 mod 3 has no divisor of degree 5; every step of the split
    # substitutes x^3 for x, so nothing is ever raised to a power
    from fineselmer import finitefield

    calls = []
    powmod = finitefield._vec_powmod

    def counting_powmod(*args):
        calls.append(args[1])
        return powmod(*args)

    monkeypatch.setattr(finitefield, "_vec_powmod", counting_powmod)
    monkeypatch.setattr(factorization, "_vec_powmod", counting_powmod)
    assert find_stable_subgroups(WeierstrassModel(*CREMONA["37a1"]), 11) == ()
    assert calls == []


# --- curves with complex multiplication never run the hunt ---

# one curve over Q per rational CM j-invariant: j -> (a-invariants, the
# discriminant D of the CM order, the discriminant D_K of the CM field)
CM_CURVES = {
    0: ((0, 0, 1, 0, -7), -3, -3),
    1728: ((0, 0, 0, -1, 0), -4, -4),
    -3375: ((1, -1, 0, -2, -1), -7, -7),
    8000: ((0, 1, 0, -3, 1), -8, -8),
    -32768: ((0, -1, 1, -7, 10), -11, -11),
    54000: ((0, 0, 0, -15, 22), -12, -3),
    287496: ((0, 0, 0, -11, -14), -16, -4),
    -884736: ((0, 0, 1, -38, 90), -19, -19),
    -12288000: ((0, 0, 1, -270, -1708), -27, -3),
    16581375: ((1, -1, 0, -37, -78), -28, -7),
    -884736000: ((0, 0, 1, -860, 9707), -43, -43),
    -147197952000: ((0, 0, 1, -7370, 243528), -67, -67),
    -262537412640768000: ((0, 0, 1, -2174420, 1234136692), -163, -163),
}


def surjectivity_certificate_by_hunt(model: WeierstrassModel, p: int,
                                     bound: int = CERTIFICATE_BOUND):
    """surjectivity_certificate as it ran before the CM test: the hunt
    for all three Frobenius witnesses, on every curve."""
    if p == 3:
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


def square_multiple(n: int, d: int) -> bool:
    """Is n = d * t^2 for an integer t?"""
    t2, r = divmod(n, d)
    return r == 0 and t2 >= 0 and math.isqrt(t2) ** 2 == t2


def test_cm_table_covers_the_class_number_one_orders():
    assert set(CM_CURVES) == CM_J_INVARIANTS
    for j, (a, order_disc, field_disc) in CM_CURVES.items():
        assert WeierstrassModel(*a).j_invariant == j
        conductor = math.isqrt(order_disc // field_disc)
        assert conductor ** 2 * field_disc == order_disc


def test_cm_frobenius_discriminants_share_one_square_class():
    # a_ell = 0, or a_ell^2 - 4 ell = D_K t^2: so the Legendre symbol the
    # hunt reads is (D_K / p) at every ell, and (i) and (ii) never both appear
    checked = 0
    for j, (a, order_disc, field_disc) in CM_CURVES.items():
        E = WeierstrassModel(*a)
        disc = int(E.discriminant)
        conductor = math.isqrt(order_disc // field_disc)
        for ell in primes_below(1000):
            if disc % ell == 0:
                continue
            a_ell = trace_of_frobenius(E, ell)
            if a_ell == 0:
                continue
            assert square_multiple(a_ell ** 2 - 4 * ell, field_disc), (j, ell)
            if conductor % ell:
                # away from the conductor, Frobenius lies in the order itself
                assert square_multiple(a_ell ** 2 - 4 * ell, order_disc), (j, ell)
            checked += 1
    assert checked > 13 * 60
    # at ell = 2, dividing the conductor of Z[sqrt(-7)], Frobenius lies
    # only in the maximal order: a_2^2 - 8 = -7, not -28 t^2, which is
    # why the hunt's argument uses the field discriminant
    E = WeierstrassModel(*CM_CURVES[16581375][0])
    assert int(E.discriminant) % 2 and trace_of_frobenius(E, 2) ** 2 - 8 == -7


def test_cm_curves_skip_the_hunt_that_cannot_succeed(monkeypatch):
    counted = []
    trace = galoisimage.trace_of_frobenius

    def counting_trace(model, ell):
        counted.append(ell)
        return trace(model, ell)

    monkeypatch.setattr(galoisimage, "trace_of_frobenius", counting_trace)
    skipped = 0
    for j, (a, _, _) in CM_CURVES.items():
        E = WeierstrassModel(*a)
        for p in (5, 7, 11, 13):
            if int(E.discriminant) % p == 0:
                continue
            assert surjectivity_certificate_by_hunt(E, p) is None, (j, p)
            assert surjectivity_certificate(E, p) is None
            assert counted == [], (j, p)
            skipped += 1
    assert skipped >= 40


def test_cm_curve_classification_keeps_its_note():
    c = classify_image(WeierstrassModel(*CM_CURVES[0][0]), 5)
    assert (c.status, c.certificate) == ("Inconclusive", None)
    assert c.notes == ("no stable subgroup, and the surjectivity witnesses "
                       f"were not all found below {CERTIFICATE_BOUND}",)


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.integers(-6, 6)] * 5))
def test_certificate_matches_the_hunt_off_cm(a):
    try:
        E = WeierstrassModel(*a)
    except ValueError:
        assume(False)
    assume(E.j_invariant not in CM_CURVES)
    for p in (5, 7):
        assert surjectivity_certificate(E, p) == surjectivity_certificate_by_hunt(E, p)


# --- composite and out-of-range p are refused, not given a verdict ---


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15, 17])
def test_p_must_be_an_odd_prime(p, monkeypatch):
    # above the ladder's cap the search names the cap, and tests no
    # primality: is_prime on a huge p would not return.  The surjectivity
    # hunt has no cap
    tested = []
    monkeypatch.setattr(modular, "is_prime", lambda n: tested.append(n) or is_prime(n))
    message = ("p is capped at 13 by the division-polynomial ladder" if p > LADDER_MAX
               else "p must be an odd prime")
    for search in (find_stable_subgroups, classify_image):
        with pytest.raises(ValueError, match=f"^{message}$"):
            search(E37A1, p)
    if p > LADDER_MAX:
        assert tested == []
    if not is_prime(p):
        with pytest.raises(ValueError, match="^p must be an odd prime$"):
            surjectivity_certificate(E37A1, p)


# --- one search counts each trace of the input curve once ---


def test_one_search_counts_each_trace_of_the_curve_once(monkeypatch):
    counted = Counter()
    sweeps = Counter()
    sweep = galoisimage.frobenius_traces

    def counting(model, ells):
        sweeps[model.a_invariants] += 1
        for ell in ells:
            counted[model.a_invariants, ell] += 1
        return sweep(model, ells)

    monkeypatch.setattr(galoisimage, "frobenius_traces", counting)
    witnesses = find_stable_subgroups(E11A1, 5)
    assert len(witnesses) == 2
    # the good primes below TRACE_CHECK_BOUND, as every search has recorded them
    primes = (2, 3, 7, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97)
    assert all(w.trace_primes == primes for w in witnesses)
    # one sweep of E and one of each quotient
    assert sweeps[E11A1.a_invariants] == 1
    assert sorted(sweeps.values()) == [1, 1, 1]
    own = {ell: n for (a, ell), n in counted.items() if a == E11A1.a_invariants}
    assert own == dict.fromkeys(primes, 1)


# --- the homogenised closure test against the inverse-based one it replaces ---


@st.composite
def closure_cases(draw):
    """(E, g, h): a small integral curve, g in {2, 3}, a monic squarefree h.

    h is a product of random monic polynomials of degree 1 to 3, each
    the monic form of an integer one whose leading coefficient is 1, 2
    or 3, so that the primitive form of h, which the closure test scales
    by, need not be monic (3x + 1 gives x + 1/3). Half the time h also
    takes an irreducible factor of the denominator D of x([g]P), so that
    h and D share a root: for g = 2 that is a factor of the 2-division
    polynomial, the x of a 2-torsion point when linear.
    """
    try:
        E = WeierstrassModel(*draw(st.tuples(*[st.integers(-6, 6)] * 5)))
    except ValueError:
        assume(False)
    g = draw(st.sampled_from([2, 3]))
    h = QPoly.one()
    for coeffs, lead in draw(st.lists(
            st.tuples(st.lists(st.integers(-5, 5), min_size=1, max_size=3),
                      st.sampled_from([1, 2, 3])), min_size=1, max_size=3)):
        h = h * QPoly(coeffs + [lead]).monic()
    if draw(st.booleans()):
        _, den = E.x_multiple_fraction(g)
        _, factors = factor_int_poly(den.squarefree_part())
        h = h * draw(st.sampled_from([f for f, _ in factors])).monic()
    assume(h.gcd(h.derivative()).degree == 0)
    return E, g, h


@settings(max_examples=150, deadline=None)
@given(closure_cases())
# y^2 = x^3 - x: x = 0 is a rational 2-torsion x, a root of D for g = 2
@example((WeierstrassModel(0, 0, 0, -1, 0), 2, QPoly([0, 1])))
@example((WeierstrassModel(0, 0, 0, -1, 0), 2, QPoly([0, -1, 0, 1])))
# h = x + 1/3, whose primitive form 3x + 1 is not monic
@example((WeierstrassModel(0, 0, 0, -1, 0), 2, QPoly([Fraction(1, 3), 1])))
@example((WeierstrassModel(0, -1, 1, -10, -20), 3, QPoly([Fraction(1, 3), 1])))
# the kernel of 11a2's 5-isogeny, closed under [2], with primitive form
# 5x^2 + 505x + 12751
@example((WeierstrassModel(0, -1, 1, -7820, -263580), 2, QPoly([Fraction(12751, 5), 101, 1])))
def test_closure_test_matches_the_inverse_test(case):
    E, g, h = case
    assert (_closed_under_multiples(E, h, (g,))
            == closed_under_multiples_by_inverse(E, h, (g,)))


# the curves and primes of the benchmark's isogeny-lines workload, and
# a curve with a rational 13-isogeny
ISOGENY_LINES = [pytest.param(CREMONA[label], p, id=f"{label}-{p}") for label, p in (
    ("11a1", 5), ("11a2", 5), ("11a3", 5), ("14a1", 3), ("20a1", 3), ("26b1", 7),
    ("38b1", 5))] + [pytest.param(isogeny_13_curve(), 13, id="13-isogeny-13")]


@pytest.mark.parametrize("curve, p", ISOGENY_LINES)
def test_closure_test_matches_the_inverse_test_on_every_candidate(curve, p):
    # every monic product of rational factors of psi_p of degree (p - 1)/2,
    # as find_stable_subgroups tries them; the accepted ones are its kernels
    E = WeierstrassModel(*curve).integral_model()
    _, factors = factor_int_poly(E.division_polynomial(p))
    d = (p - 1) // 2
    gens = _halfgroup_generators(p)
    accepted = []
    for size in range(1, len(factors) + 1):
        for subset in combinations([f.monic() for f, _ in factors], size):
            if sum(f.degree for f in subset) != d:
                continue
            h = QPoly.one()
            for f in subset:
                h = h * f
            closed = _closed_under_multiples(E, h, gens)
            assert closed == closed_under_multiples_by_inverse(E, h, gens)
            if closed:
                accepted.append(h)
    kernels = [w.kernel_monic for w in find_stable_subgroups(E, p)]
    assert sorted(accepted, key=lambda h: h.coeffs) == kernels != []
