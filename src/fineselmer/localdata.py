"""Local reduction data: Kodaira types, place sets, decomposition counts,
and the local torsion defect at p.

tate_reduction runs the complete step-by-step minimization loop; it is
prime-generic, but for ell >= 5 the valuation shortcut (rescale by the
largest ell^k with k = min(v(c4)/4, v(c6)/6, v(D)/12), then read the
type off a table) is used by default and the full loop is kept as an
independent second route for cross-checking.  Split multiplicative
reduction at odd ell is detected by -c6 being a square mod ell; at
ell = 2 the singular point is translated to the origin and the tangent
cone is inspected directly.

Places of the p-th cyclotomic field above ell != p are unramified over
Q_ell, so the Q-minimal model stays minimal, good and additive types
persist, and a nonsplit torus splits exactly when -c6 becomes a square
in the bigger residue field.  The g conjugate places above one ell share
all of this, so they share one PlaceRecord, with count g.

The defect delta_v is 2 when E has a p-torsion point over the
completion at v, else 0.  Over Q_p with good reduction this reduces to
a congruence on a_p plus, when a_p = 1 (mod p), one certified search
for the Z_p-roots of psi_p at the fixed precision
padic.DEFAULT_PRECISION, each root tested by a Legendre symbol mod p.
Over the ramified place of Q(mu_p) above p the congruence alone is
decisive in both directions, so no search runs there.
"""

from __future__ import annotations

from typing import NamedTuple
from .elliptic import WeierstrassModel, require_ladder_prime, trace_of_frobenius
from .modular import (_require_provable, factorize, is_prime, multiplicative_order,
                      require_odd_prime, valuation)
from .padic import DEFAULT_PRECISION, padic_roots

__all__ = [
    "ReductionData",
    "tate_reduction",
    "tate_reduction_full",
    "KPlaceReduction",
    "reduction_over_K",
    "PlaceRecord",
    "PlaceSets",
    "compute_place_sets",
    "g_v",
    "finite_level_place_count",
    "DeltaResult",
    "delta_v",
    "SUPPORTED_FIELDS",
    "require_field",
    "require_model",
]

SUPPORTED_FIELDS = ("Q", "Q(mu_p)")


def require_field(field: str) -> None:
    """The one check that field is a supported base field; ValueError
    otherwise, naming the value.  The CLI prints this message as it is."""
    if field not in SUPPORTED_FIELDS:
        raise ValueError(f"field must be one of {SUPPORTED_FIELDS}, got {_shown(field)}")


def require_model(model) -> None:
    """The one check that model is a WeierstrassModel, naming the value."""
    if not isinstance(model, WeierstrassModel):
        raise ValueError(f"model must be a WeierstrassModel, got {_shown(model)}")


def _require_prime_ell(ell) -> None:
    """ValueError naming ell unless it is an int that is_prime proves
    prime: a float or a bool, and an ell past MR_EXACT_LIMIT, are refused."""
    _require_provable(ell, "ell")
    if type(ell) is not int or not is_prime(ell):
        raise ValueError(f"ell must be prime, got {_shown(ell)}")


def _shown(value) -> str:
    """repr(value) for a refusal message; an int past Python's limit on
    decimal digits, or a container that holds one, is named by its type."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


# ---------------------------------------------------------------------------
# Reduction types over Q_ell
# ---------------------------------------------------------------------------


class ReductionData(NamedTuple):
    minimal_model: WeierstrassModel
    kodaira: str
    category: str            # "good" | "multiplicative" | "additive"
    v_disc: int
    v_c4: int | None         # None encodes c4 = 0
    split: bool | None       # set iff multiplicative

    @property
    def is_good(self) -> bool:
        return self.category == "good"


def _vl(n: int, ell: int) -> int | None:
    """Valuation at ell; None for 0 (infinite)."""
    return None if n == 0 else valuation(n, ell)


def _split_multiplicative(model: WeierstrassModel, ell: int) -> bool:
    """Split test for a multiplicative (v(c4)=0, v(D)>0) integral model."""
    if ell != 2:
        # Euler's criterion; c6^2 = c4^3 (mod ell) makes -c6 a unit
        return pow(-model.c6 % ell, (ell - 1) // 2, ell) == 1
    # ell = 2: translate the singular point to the origin, then the node
    # is split iff the tangent quadratic T^2 + T + a2' has roots, i.e.
    # a2' is even.  a1' is automatically odd here since v(c4) = 0.
    m = _move_singular_point(model, 2)
    if m.a1 % 2 != 1:
        raise AssertionError("node with even a1 cannot happen at v(c4)=0")
    return m.a2 % 2 == 0


def _move_singular_point(model: WeierstrassModel, ell: int) -> WeierstrassModel:
    """Translate so the (unique) singular point mod ell sits at the origin."""
    for r in range(ell):
        for t in range(ell):
            m = model.change_model(1, r, 0, t)
            if all(v % ell == 0 for v in (m.a3, m.a4, m.a6)):
                return m
    raise AssertionError("singular point not found; model is not singular mod ell")


def _normalize_step6(model: WeierstrassModel, ell: int) -> WeierstrassModel:
    """Reach v(a1), v(a2) >= 1, v(a3), v(a4) >= 2, v(a6) >= 3 by an (s, t) move."""
    for s in range(ell):
        cand1 = model.change_model(1, 0, s, 0)
        if cand1.a1 % ell or cand1.a2 % ell:
            continue
        for t in range(ell * ell):
            m = cand1.change_model(1, 0, 0, t)
            if (m.a3 % ell**2 == 0 and m.a4 % ell**2 == 0
                    and m.a6 % ell**3 == 0):
                return m
    raise AssertionError("step-6 normalization failed; upstream step is buggy")


def _double_root_mod(a: int, b: int, c: int, ell: int) -> int | None:
    """For a X^2 + b X + c with a != 0 (mod ell): None if separable with
    distinct roots, else the double root in [0, ell)."""
    if ell == 2:
        if b % 2:
            return None
        # double root x with x^2 = c/a; squaring is the identity on F_2
        return c * pow(a, -1, 2) % 2
    if (b * b - 4 * a * c) % ell:
        return None
    return -b * pow(2 * a, -1, ell) % ell


def tate_reduction_full(model: WeierstrassModel, ell: int) -> ReductionData:
    """The complete minimization loop; valid for every prime ell."""
    require_model(model)
    _require_prime_ell(ell)
    E = model.integral_model()
    while True:
        vD = _vl(E.discriminant, ell)
        if vD is None:
            raise AssertionError("a nonsingular model has a finite v(D)")
        if vD == 0:
            return ReductionData(E, "I0", "good", 0, _vl(E.c4, ell), None)
        vc4 = _vl(E.c4, ell)
        if vc4 == 0:
            return ReductionData(
                E, f"I{vD}", "multiplicative", vD, 0,
                _split_multiplicative(E, ell))
        # additive: put the cusp at the origin
        E = _move_singular_point(E, ell)
        if E.a6 % ell**2 != 0:
            return ReductionData(E, "II", "additive", vD, _vl(E.c4, ell), None)
        if E.b8 % ell**3 != 0:
            return ReductionData(E, "III", "additive", vD, _vl(E.c4, ell), None)
        if E.b6 % ell**3 != 0:
            return ReductionData(E, "IV", "additive", vD, _vl(E.c4, ell), None)
        E = _normalize_step6(E, ell)
        # cubic T^3 + a_{2,1} T^2 + a_{4,2} T + a_{6,3} over F_ell
        c2 = E.a2 // ell
        c4_ = E.a4 // ell**2
        c6_ = E.a6 // ell**3
        # classify the root pattern by hunting for a repeated rational root
        rep = next((x for x in range(ell)
                    if (((x + c2) * x + c4_) * x + c6_) % ell == 0
                    and ((3 * x + 2 * c2) * x + c4_) % ell == 0), None)
        if rep is None:
            return ReductionData(E, "I0*", "additive", vD, _vl(E.c4, ell), None)
        # shift the repeated root to 0
        E = E.change_model(1, ell * rep, 0, 0)
        triple = E.a2 // ell % ell == 0
        if not triple:
            # I_n* chain: alternate quadratics in Y and X
            m = 1
            while True:
                n_odd = 2 * m - 1
                if n_odd > vD - 6 + 1:
                    raise AssertionError("I_n* chain exceeded v(D); bug")
                a3m = E.a3 // ell ** (m + 1)
                a6m = E.a6 // ell ** (2 * m + 2)
                dy = _double_root_mod(1, a3m, -a6m, ell)
                if dy is None:
                    return ReductionData(E, f"I{n_odd}*", "additive", vD,
                                         _vl(E.c4, ell), None)
                E = E.change_model(1, 0, 0, ell ** (m + 1) * dy)
                a2m = E.a2 // ell
                a4m = E.a4 // ell ** (m + 2)
                a6m = E.a6 // ell ** (2 * m + 3)
                dx = _double_root_mod(a2m, a4m, a6m, ell)
                if dx is None:
                    return ReductionData(E, f"I{2 * m}*", "additive", vD,
                                         _vl(E.c4, ell), None)
                E = E.change_model(1, ell ** (m + 1) * dx, 0, 0)
                m += 1
        # triple root at the origin: v(a2) >= 2, v(a4) >= 3, v(a6) >= 4
        a32 = E.a3 // ell**2
        a64 = E.a6 // ell**4
        dy = _double_root_mod(1, a32, -a64, ell)
        if dy is None:
            return ReductionData(E, "IV*", "additive", vD, _vl(E.c4, ell), None)
        E = E.change_model(1, 0, 0, ell**2 * dy)
        if E.a4 % ell**4 != 0:
            return ReductionData(E, "III*", "additive", vD, _vl(E.c4, ell), None)
        if E.a6 % ell**6 != 0:
            return ReductionData(E, "II*", "additive", vD, _vl(E.c4, ell), None)
        # nothing stopped us: the model was non-minimal; rescale and restart
        E = E.change_model(ell, 0, 0, 0)
        if not E.is_integral:
            raise AssertionError("rescaled model must stay integral")


_KODAIRA_BY_VDISC = {2: "II", 3: "III", 4: "IV", 6: "I0*", 8: "IV*", 9: "III*", 10: "II*"}


def _tate_shortcut(model: WeierstrassModel, ell: int) -> ReductionData:
    """Valuation bookkeeping for ell >= 5, where wild ramification is absent."""
    E = model.integral_model()
    v4 = _vl(E.c4, ell)
    v6 = _vl(E.c6, ell)
    vD = _vl(E.discriminant, ell)
    ks = [vD // 12]
    if v4 is not None:
        ks.append(v4 // 4)
    if v6 is not None:
        ks.append(v6 // 6)
    k = min(ks)
    if k:
        # u-rescaling the original a_i by ell^k can leave Z (think a1 = 1),
        # so pass to the ell-isomorphic short model of the scaled invariants
        c4s = E.c4 // ell ** (4 * k)
        c6s = E.c6 // ell ** (6 * k)
        E = WeierstrassModel(0, 0, 0, -27 * c4s, -54 * c6s)
        v4 = _vl(E.c4, ell)
        new_vD = _vl(E.discriminant, ell)
        if new_vD != vD - 12 * k:
            raise AssertionError("short-model rescale broke the valuation")
        vD = new_vD
    if vD == 0:
        return ReductionData(E, "I0", "good", 0, v4, None)
    if v4 == 0:
        return ReductionData(E, f"I{vD}", "multiplicative", vD, 0,
                             _split_multiplicative(E, ell))
    # additive; negative v(j) = 3 v(c4) - v(D) marks the I_n* family
    if v4 is not None and 3 * v4 < vD:
        return ReductionData(E, f"I{vD - 6}*", "additive", vD, v4, None)
    kod = _KODAIRA_BY_VDISC.get(vD)
    if kod is None:
        raise AssertionError(f"impossible additive v(D) = {vD} at ell = {ell} >= 5")
    return ReductionData(E, kod, "additive", vD, v4, None)


def tate_reduction(model: WeierstrassModel, ell: int) -> ReductionData:
    """Reduction data at ell on the ell-minimal model."""
    require_model(model)
    _require_prime_ell(ell)
    if ell >= 5:
        return _tate_shortcut(model, ell)
    return tate_reduction_full(model, ell)


# ---------------------------------------------------------------------------
# Reduction over the cyclotomic field K = Q(mu_p)
# ---------------------------------------------------------------------------


class KPlaceReduction(NamedTuple):
    """Common reduction data for the g conjugate places of Q(mu_p) above ell."""

    f: int                       # unramified, so f g = p - 1
    g: int
    base: ReductionData          # over Q_ell; the type and category persist
    split: bool | None           # over the completion of Q(mu_p)


def reduction_over_K(model: WeierstrassModel, ell: int, p: int) -> KPlaceReduction:
    """Reduction type at the places of Q(mu_p) above ell != p.

    These places are unramified over Q_ell, so minimality and additive or
    good behaviour carry over verbatim; only a nonsplit torus can change,
    splitting exactly when -c6 becomes a square in the residue field
    F_{ell^f}.
    """
    require_odd_prime(p)
    if ell == p:
        raise ValueError("use the ramified-place handling for ell = p")
    base = tate_reduction(model, ell)
    f = multiplicative_order(ell % p, p)
    split = base.split
    if base.category == "multiplicative" and not base.split:
        # the nonsplit twist is by the unramified quadratic character,
        # which dies in the residue extension exactly when f is even
        split = f % 2 == 0
        if ell != 2:
            # Euler's criterion in F_{ell^f}, on the residue of -c6 in F_ell
            if split != (pow(-base.minimal_model.c6 % ell, (ell**f - 1) // 2, ell) == 1):
                raise AssertionError("the split test and Euler's criterion disagree")
        # a torus that splits is still the same Kodaira fiber
    return KPlaceReduction(f, (p - 1) // f, base, split)


# ---------------------------------------------------------------------------
# Place bookkeeping for the bound
# ---------------------------------------------------------------------------


class PlaceRecord(NamedTuple):
    """The count conjugate places above one bad prime ell != p, which share
    every local datum: 1 place over Q, g = (p-1)/f over Q(mu_p)."""

    residue_char: int
    residue_degree: int
    count: int
    category: str
    split: bool | None
    kodaira: str
    in_S0: bool


class PlaceSets(NamedTuple):
    good_above_p: bool                     # S_p is the single place above p
    bad_places: tuple[PlaceRecord, ...]    # the places of S away from p

    @property
    def S0(self) -> tuple[PlaceRecord, ...]:
        return tuple(r for r in self.bad_places if r.in_S0)


def compute_place_sets(model: WeierstrassModel, p: int, field: str = "Q") -> PlaceSets:
    """S (bad places and the place above p), S_p, and the subset S0.

    A bad place v away from p lands in S0 when mu_p is not contained in
    the completion F_v, or when the reduction is split multiplicative.
    Membership is decided on the minimal model at each place; primes
    dividing a non-minimal discriminant that turn out good are dropped.
    The conjugate places above one ell share one PlaceRecord, in
    increasing ell.
    """
    require_model(model)
    require_odd_prime(p)
    require_field(field)
    records: list[PlaceRecord] = []
    good_above_p = True
    # factorize lists the primes increasing
    for ell in factorize(abs(model.integral_model().discriminant)):
        if ell == p:
            good_above_p = tate_reduction(model, p).is_good
            continue
        if field == "Q":
            red = tate_reduction(model, ell)
            f, count, split = 1, 1, red.split
            mu_in = ell % p == 1  # mu_p in Q_ell iff ell = 1 (mod p), ell != p
        else:
            kred = reduction_over_K(model, ell, p)
            red, f, count, split = kred.base, kred.f, kred.g, kred.split
            mu_in = True  # mu_p lies in every completion of Q(mu_p)
        if red.is_good:
            continue
        in_s0 = (not mu_in) or (red.category == "multiplicative" and bool(split))
        records.append(PlaceRecord(ell, f, count, red.category, split,
                                   red.kodaira, in_s0))
    return PlaceSets(good_above_p, tuple(records))


# ---------------------------------------------------------------------------
# Decomposition growth g_v in the cyclotomic tower
# ---------------------------------------------------------------------------


def g_v(ell: int, p: int, field: str = "Q", residue_degree: int = 1) -> int:
    """Number of places above v in the cyclotomic Z_p-extension (stable value).

    The place above p is totally ramified, so g = 1 there.  Away from p
    the count is p^m with m = max(0, v_p(N(v) - 1) - 1) where N(v) is
    the residue field size: the Frobenius at v generates a subgroup of
    the layer-n Galois group of index p^min(n, m).  This is the closed
    form alone; compute_lambda_bound reads a user extension's g table.
    """
    require_odd_prime(p)
    require_field(field)
    _require_prime_ell(ell)
    if ell == p:
        return 1
    if field == "Q":
        if residue_degree != 1:
            raise ValueError("places of Q have residue degree 1")
        norm = ell ** (p - 1)
    else:
        f = multiplicative_order(ell % p, p)
        if residue_degree != f:
            raise ValueError(
                f"residue degree of a place of Q(mu_p) above {ell} is {f}")
        norm = ell**f
    m = valuation(norm - 1, p) - 1
    return p ** max(0, m)


def finite_level_place_count(ell: int, p: int, n: int, field: str = "Q",
                             residue_degree: int = 1) -> int:
    """Places above v at the n-th layer: p^n / ord(Frob_v); oracle-facing."""
    require_odd_prime(p)
    require_field(field)
    if n < 0:
        raise ValueError(f"layer n must be >= 0, got {n}")
    if ell == p:
        return 1
    if field == "Q":
        frob = pow(ell, p - 1, p ** (n + 1))
    else:
        f = multiplicative_order(ell % p, p)
        if residue_degree != f:
            raise ValueError("wrong residue degree")
        frob = pow(ell, f, p ** (n + 1))
    if n == 0:
        return 1
    order = multiplicative_order(frob, p ** (n + 1))
    # frob = 1 (mod p), so its order is a p-power dividing p^n
    return p**n // order


# ---------------------------------------------------------------------------
# The local defect delta_v at p
# ---------------------------------------------------------------------------


class DeltaResult(NamedTuple):
    value: int                       # 0 or 2
    provenance: str                  # "computed-exact" | "conservative"
    method: str
    notes: tuple[str, ...] = ()


def _torsion_x_has_rational_y(model: WeierstrassModel, x0: int, p: int) -> bool:
    """Does the Z_p-root x0 of psi_p carry a Q_p-rational y?  Reads x0 mod p.

    y exists iff F(x0) = (2y + a1 x0 + a3)^2, F = 4x^3 + b2 x^2 + 2 b4 x + b6,
    is a square in Q_p.  model is integral with good reduction at p >= 3.
    Any y with P = (x0, y) on E is integral (a root of a monic over Z_p),
    so P reduces to an affine point with [p]P~ = O (reduction is a group
    homomorphism, Silverman AEC VII.2): P~ has order p, is not 2-torsion,
    and F(x0) = (2y~ + a1 x0 + a3)^2 != 0 (mod p).  A p-adic unit is a
    square exactly when its residue is: one Legendre symbol decides.
    """
    b2, b4, b6 = model.b2, model.b4, model.b6
    F = (((4 * x0 + b2) * x0 + 2 * b4) * x0 + b6) % p
    if F == 0:
        raise AssertionError("a p-torsion x-coordinate reduced onto the 2-torsion")
    return pow(F, (p - 1) // 2, p) == 1


def delta_v(model: WeierstrassModel, p: int, field: str = "Q") -> DeltaResult:
    """delta at the place above p: 2 if E(F_v)[p] != 0, else 0.

    Requires good reduction at p and p >= 3.  Over Q the reduction map
    pins E(Q_p)[p] inside E~(F_p)[p], so a_p != 1 (mod p) gives 0 at
    once; otherwise candidate x-coordinates are the certified Z_p-roots
    of the p-division polynomial, each checked for a rational y.  An
    incomplete search degrades soundly to (2, conservative).

    Over Q(mu_p) the place above p is totally ramified with e = p - 1,
    and the congruence a_p = 1 (mod p) decides delta exactly in both
    directions.

    The search runs once, at DEFAULT_PRECISION = 32.  That is above
    padic.DEPTH_BUDGET, so the residue classes it visits, and with them
    the result, are those of any higher precision.
    """
    require_model(model)
    require_odd_prime(p)
    # a_p is counted, and psi_p read off the ladder
    require_ladder_prime(p)
    require_field(field)
    E = model.integral_model()
    red = tate_reduction(E, p)
    if not red.is_good:
        raise ValueError(f"delta_v needs good reduction at {p}")
    Emin = red.minimal_model
    ap = trace_of_frobenius(Emin, p)
    if (ap - 1) % p != 0:
        return DeltaResult(0, "computed-exact",
                           "reduction-congruence",
                           (f"a_{p} = {ap} is not 1 mod {p}; "
                            f"the reduction has no rational {p}-torsion",))

    if field == "Q(mu_p)":
        # E(F_v)[p] maps to E~(F_p)[p], which is 0 unless a_p = 1 (mod p),
        # with kernel the formal group's p-torsion.  For ordinary reduction
        # that is mu_p twisted by the unramified character Frob -> 1/u,
        # u = a_p (mod p) the unit root, so it is rational over Q_p(mu_p)
        # iff a_p = 1; for supersingular reduction its points need
        # e >= p^2 - 1 > p - 1.  So delta = 2 iff a_p = 1 (mod p).
        return DeltaResult(2, "computed-exact", "ramified-congruence",
                           (f"a_{p} = {ap} = 1 (mod {p}); the {p}-torsion of "
                            "the reduction lifts through the totally ramified "
                            "extension",))

    # torsion with non-integral x would live in the formal group, which is
    # torsion free over Z_p for p >= 3, so searching Z_p covers every
    # Q_p-rational candidate
    psi = Emin.division_polynomial(p)
    found = padic_roots(psi, p, DEFAULT_PRECISION)
    if any(_torsion_x_has_rational_y(Emin, root.lift(), p) for root in found.certified):
        return DeltaResult(2, "computed-exact", "division-poly-root",
                           ("certified torsion x-coordinate with a "
                            "rational y over Q_p",))
    if found.complete:
        return DeltaResult(0, "computed-exact", "division-poly-exhausted",
                           ("the certified root search is complete and "
                            "no root carries a rational y",))
    return DeltaResult(2, "conservative", "search-budget-exhausted",
                       (f"root separation incomplete at precision {DEFAULT_PRECISION}; "
                        "reporting the safe upper value",))
