"""Mod-p image analysis: stable subgroups, surjectivity certificates.

Every witness object that the module emits is re-verified here from its
defining properties, not trusted: kernel polynomials must divide the
division polynomial exactly, quotient curves must match traces of Frobenius
at the recorded primes, and certificate witness primes must re-satisfy the
three Frobenius rules from scratch.
"""

import math
import random
from itertools import combinations

from hypothesis import assume, given, settings, strategies as st

from fineselmer import factorization, galoisimage
from fineselmer.elliptic import WeierstrassModel, trace_of_frobenius
from fineselmer.factorization import factor_int_poly, good_reduction
from fineselmer.finitefield import FqPoly
from fineselmer.galoisimage import (
    CERTIFICATE_BOUND,
    CM_J_INVARIANTS,
    TRACE_CHECK_BOUND,
    StableSubgroupWitness,
    SurjectivityCertificate,
    _closed_under_multiples,
    _halfgroup_generators,
    _matching_trace_primes,
    _velu_quotient,
    classify_image,
    find_stable_subgroups,
    surjectivity_certificate,
)
from fineselmer.modular import primes_below
from fineselmer.polynomial import QPoly

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
    # (Z/p)^x divided by +-1 is generated by 2 alone for every p in range
    for p in (3, 5, 7, 11, 13):
        assert _halfgroup_generators(p) == ((2,) if p > 3 else ())


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


def stable_subgroups_by_full_factoring(model: WeierstrassModel, p: int):
    """find_stable_subgroups as it ran before the degree test: factor
    psi_p over Q, then try every factor subset of degree (p - 1)/2."""
    E = model.integral_model()
    _, factors = factor_int_poly(E.division_polynomial(p))
    irreducibles = [f for f, _ in factors]
    d = (p - 1) // 2
    gens = _halfgroup_generators(p)
    witnesses = []
    for size in range(1, len(irreducibles) + 1):
        for subset in combinations(irreducibles, size):
            if sum(f.degree for f in subset) != d:
                continue
            h = QPoly.one()
            for f in subset:
                h = h * f.monic()
            if not _closed_under_multiples(E, h, p, gens):
                continue
            quotient = _velu_quotient(E, h).integral_model()
            traces = _matching_trace_primes(E, quotient, p, TRACE_CHECK_BOUND)
            witnesses.append(StableSubgroupWitness(
                p, h, h.primitive(), quotient, gens, traces))
    witnesses.sort(key=lambda w: tuple(w.kernel_monic.coeffs))
    return tuple(witnesses)


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
            slow = stable_subgroups_by_full_factoring(E, p)
            assert [witness_key(w) for w in fast] == [witness_key(w) for w in slow], (label, p)
    # both sides of the test are exercised
    assert excluded >= 10 and kept >= 10


def test_stable_subgroup_search_never_takes_the_boxed_split(monkeypatch):
    # psi_p is split mod an odd prime l on int lists, both the
    # distinct-degree and the equal-degree split; each boxed split raises
    # x or r to a power modulo f with FqPoly.pow_mod
    def boxed(*args):
        raise AssertionError("an FqPoly split ran over F_l")

    splits = []
    split_ints = factorization._equal_degree_ints

    def counting_split(f, d, l, rng):
        splits.append(l)
        return split_ints(f, d, l, rng)

    monkeypatch.setattr(FqPoly, "pow_mod", boxed)
    monkeypatch.setattr(factorization, "_equal_degree_ints", counting_split)
    assert find_stable_subgroups(WeierstrassModel(*CREMONA["27a1"]), 7) == ()
    assert len(find_stable_subgroups(E11A1, 5)) == 2
    assert splits


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
