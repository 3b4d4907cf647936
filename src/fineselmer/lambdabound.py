"""Assembly of the certified lambda bound from local and global data.

Two routes produce an upper bound for the fine Selmer lambda invariant
over the cyclotomic Z_p-extension:

* local-only: lambda <= sum over S0 of 2 g_v plus sum over v | p of
  delta_v g_v.  Valid under the image condition (nonsolvable or order
  prime to p), a unique totally ramified prime of K = F(E[p]) in K_inf,
  and vanishing of the p-class group A(K).

* with-global-dims: the same local sum plus 2 dim(Y) + dim(Z) for the
  global modules, which the caller supplies (or asserts to vanish).

Each hypothesis is tracked in a ledger entry with one of four statuses.
certified means this run carries a proof; asserted means the user took
responsibility; inconclusive means nobody knows; refuted means the run
disproved it.  A route whose required hypothesis is refuted is blocked;
one resting on asserted or inconclusive entries is conditional; one
with every requirement certified is unconditional.  A conservative
delta keeps the strength but is flagged in the notes.

Certification of the two arithmetic hypotheses happens in exactly one
window, the pointwise guard: when the p-torsion has two stable lines
and one of them consists of rational points, the Galois action on E[p]
factors through the cyclotomic character, so K sits inside Q(mu_p).
There the tower ramification statement is a computation, and A(K)
injects into A(Q(mu_p)) along a degree prime to p, so regularity of p
finishes the job.  Outside that window the entries stay inconclusive
unless assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt

from .cyclotomic import is_regular, kinf_ramification
from .elliptic import WeierstrassModel
from .factorization import factor_int_poly
from .galoisimage import ImageClassification, classify_image
from .localdata import DeltaResult, PlaceSets, compute_place_sets, delta_v, g_v
from .modular import is_prime, valuation

__all__ = [
    "HYPOTHESIS_IDS",
    "ASSUMPTION_TOKENS",
    "HypothesisEntry",
    "GlobalInvariants",
    "LocalTerm",
    "RouteBound",
    "LambdaBoundReport",
    "compute_lambda_bound",
]

HYPOTHESIS_IDS = (
    "good-reduction-above-p",
    "finitely-decomposed",
    "image-condition",
    "unique-total-ramification",
    "A-K-zero",
    "Y-torsion-mu-zero",
)

# user-assumable hypotheses: --assume <token>
ASSUMPTION_TOKENS = {
    "image-order-coprime": "image-condition",
    "unique-total-ramification": "unique-total-ramification",
    "A-K-zero": "A-K-zero",
    "Y-torsion-mu-zero": "Y-torsion-mu-zero",
}

_LOCAL_ONLY_REQUIRED = (
    "good-reduction-above-p", "finitely-decomposed", "image-condition",
    "unique-total-ramification", "A-K-zero",
)
_GLOBAL_DIMS_REQUIRED = (
    "good-reduction-above-p", "finitely-decomposed", "Y-torsion-mu-zero",
)


@dataclass(frozen=True)
class HypothesisEntry:
    id: str
    status: str        # certified | asserted | inconclusive | refuted
    detail: str


@dataclass(frozen=True)
class GlobalInvariants:
    dim_y: int = 0
    dim_z: int = 0
    provenance: str = "asserted-zero"   # | "user-supplied"


@dataclass(frozen=True)
class LocalTerm:
    label: str
    residue_char: int
    residue_degree: int
    role: str                    # "S0", "S" (bad but not in S0), or "S_p"
    reduction: str
    split: bool | None
    g: int | None
    g_provenance: str | None     # "computed-exact" | "user-supplied"
    delta: int | None
    delta_provenance: str | None
    contribution: int


@dataclass(frozen=True)
class RouteBound:
    route: str                   # "local-only" | "with-global-dims"
    bound: int | None
    strength: str                # unconditional | conditional | blocked
    required: tuple[str, ...]
    global_part: int
    notes: tuple[str, ...]


@dataclass(frozen=True)
class LambdaBoundReport:
    model: WeierstrassModel
    p: int
    field: str
    terms: tuple[LocalTerm, ...]
    global_invariants: GlobalInvariants
    ledger: tuple[HypothesisEntry, ...]
    routes: tuple[RouteBound, ...]
    route: str | None
    bound: int | None
    strength: str
    notes: tuple[str, ...]


def _rational_is_square(x: Fraction) -> bool:
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


def _pointwise_rational_line(model: WeierstrassModel, kernel) -> bool:
    """Does the kernel consist of rational points (beyond the origin)?

    True iff the kernel polynomial splits into rational linear factors,
    as many as its degree, and each root supports a rational y, i.e. the
    quadratic in y has a square discriminant.
    """
    prim = kernel.primitive()
    _, factors = factor_int_poly(prim, max_degree=1)
    if len(factors) != prim.degree:
        return False
    for f, _ in factors:
        x0 = -f.coeff(0) / f.coeff(1)
        disc = ((model.a1 * x0 + model.a3) ** 2
                + 4 * (x0 ** 3 + model.a2 * x0 * x0 + model.a4 * x0 + model.a6))
        if not _rational_is_square(Fraction(disc)):
            return False
    return True


def _g_best_effort(ell: int, p: int, field: str, residue_degree: int,
                   table) -> int | None:
    """g for a non-contributing place, for information only: the table's
    row if it has one, else the closed form, else None. compute_lambda_bound
    checks every table row before any place is read, so this raises nothing."""
    try:
        return g_v(ell, p, field, residue_degree, table=table)
    except KeyError:
        pass
    try:
        return g_v(ell, p, field, residue_degree)
    except ValueError:
        return None


def _route_strength(ledger: dict[str, HypothesisEntry],
                    required: tuple[str, ...]) -> str:
    statuses = [ledger[h].status for h in required]
    if any(s == "refuted" for s in statuses):
        return "blocked"
    if all(s == "certified" for s in statuses):
        return "unconditional"
    return "conditional"


def compute_lambda_bound(
    model: WeierstrassModel,
    p: int,
    field: str = "Q",
    *,
    dim_y: int | None = None,
    dim_z: int | None = None,
    assume: tuple[str, ...] = (),
    g_table=None,
) -> LambdaBoundReport:
    """Run the whole pipeline for one curve, prime, and base field."""
    # the cap comes first: is_prime on a huge p would not return
    if p > 13:
        raise ValueError("p is capped at 13 by the division-polynomial ladder")
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    for token in assume:
        if token not in ASSUMPTION_TOKENS:
            raise ValueError(f"unknown assumption {token!r}; "
                             f"expected one of {sorted(ASSUMPTION_TOKENS)}")
    if (dim_y is not None and dim_y < 0) or (dim_z is not None and dim_z < 0):
        raise ValueError("global dimensions cannot be negative")
    # every row, not only those of the curve's places, so that a table is
    # accepted or refused whatever the curve
    for i, row in enumerate(g_table or ()):
        if int(row["g"]) < 1:
            raise ValueError(f"g table row {i}: g must be a positive integer, "
                             f"got {row['g']}")

    notes: list[str] = []
    ledger: dict[str, HypothesisEntry] = {}

    places: PlaceSets = compute_place_sets(model, p, field)
    if places.good_above_p:
        ledger["good-reduction-above-p"] = HypothesisEntry(
            "good-reduction-above-p", "certified",
            f"the curve has good reduction at every place above {p}")
    else:
        bad_label = places.above_p[0].label if places.above_p else str(p)
        ledger["good-reduction-above-p"] = HypothesisEntry(
            "good-reduction-above-p", "refuted",
            f"bad reduction at place {bad_label} above {p}; the bound "
            "machinery does not apply")
        notes.append(f"blocked: the curve has bad reduction at place "
                     f"{bad_label} above {p}")

    # local terms for every place of S = {bad} + {above p}.  Places in
    # S0 contribute 2 g_v; bad places outside S0 are listed with a zero
    # contribution so the report shows all of S.  A user table is
    # consulted exclusively for contributing places, so a missing row
    # raises instead of being papered over by the closed form.
    terms: list[LocalTerm] = []
    if places.good_above_p:
        split_counts: dict[int, int] = {}
        witnessed: set[tuple[int, int]] = set()
        for rec in places.bad_places:
            pl = rec.place
            if rec.in_S0:
                g = g_v(pl.residue_char, p, field, pl.residue_degree,
                        table=g_table)
                g_prov = ("user-supplied" if g_table is not None
                          else "computed-exact")
                key = (pl.residue_char, pl.residue_degree)
                if g_table is None and key not in witnessed:
                    witnessed.add(key)
                    exp = p - 1 if field == "Q" else pl.residue_degree
                    m = valuation(pl.residue_char ** exp - 1, p)
                    notes.append(
                        f"g witness above {pl.residue_char}: "
                        f"v_{p}({pl.residue_char}^{exp} - 1) = {m}, "
                        f"so g = {p}^max(0, {m} - 1) = {g}")
                if pl.count > 1:
                    split_counts[pl.residue_char] = pl.count
                terms.append(LocalTerm(
                    pl.label, pl.residue_char, pl.residue_degree, "S0",
                    rec.kodaira, rec.split, g, g_prov, None, None, 2 * g))
            else:
                g = _g_best_effort(pl.residue_char, p, field,
                                   pl.residue_degree, g_table)
                terms.append(LocalTerm(
                    pl.label, pl.residue_char, pl.residue_degree, "S",
                    rec.kodaira, rec.split, g,
                    None if g is None else "computed-exact",
                    None, None, 0))
        pretty_field = f"Q(mu_{p})" if field == "Q(mu_p)" else field
        for ell, cnt in sorted(split_counts.items()):
            total = sum(t.contribution for t in terms
                        if t.role == "S0" and t.residue_char == ell)
            single = max(t.contribution for t in terms
                         if t.role == "S0" and t.residue_char == ell)
            notes.append(
                f"{ell} has {cnt} places in {pretty_field}, and each enters "
                f"the sum separately for {total} in all; a reading that "
                f"treats {ell} as inert would keep a single term of "
                f"{single} and understate the bound")
        delta: DeltaResult = delta_v(model, p, field)
        for pl in places.above_p:
            terms.append(LocalTerm(
                pl.label, p, pl.residue_degree, "S_p", "good", None,
                1, "computed-exact", delta.value, delta.provenance,
                delta.value))
            notes.append(f"g at {pl.label} is 1: the place above {p} is "
                         "totally ramified in the tower")
            notes.append(f"delta at {pl.label} decided by {delta.method}")
            for extra in delta.notes:
                notes.append(f"delta at {pl.label}: {extra}")
        if delta.provenance == "conservative":
            notes.append("delta above p is a conservative upper value; the "
                         "bound remains valid but may overshoot by 2")

    gp_supplied = g_table is not None
    ledger["finitely-decomposed"] = HypothesisEntry(
        "finitely-decomposed",
        "asserted" if gp_supplied else "certified",
        "decomposition numbers supplied by the caller" if gp_supplied else
        "every place of the base field has finitely many places above it "
        "in the tower, by the closed-form decomposition count")

    # image condition and the pointwise guard; skipped when bad reduction
    # above p already blocks every route. Classifying the image reduces the
    # division polynomial of degree (p^2 - 1)/2 modulo one good prime, and
    # it finds the rational factors of degree <= (p - 1)/2 only when the
    # degrees there leave room for a stable line
    if places.good_above_p:
        image: ImageClassification = classify_image(model, p, field)
        ledger["image-condition"] = HypothesisEntry(
            "image-condition",
            image.image_condition,
            f"{image.status}: " + "; ".join(image.notes))
        guard = (len(image.witnesses) >= 2
                 and any(_pointwise_rational_line(model.integral_model(),
                                                  w.kernel_monic)
                         for w in image.witnesses))
    else:
        ledger["image-condition"] = HypothesisEntry(
            "image-condition", "inconclusive",
            "not evaluated: bad reduction above p already blocks the run")
        guard = False
    regular = is_regular(p)
    notes.append(f"{p} is {'a regular' if regular else 'an irregular'} prime")
    if guard:
        ram = kinf_ramification(p, "Q(mu_p)")
        ledger["unique-total-ramification"] = HypothesisEntry(
            "unique-total-ramification", "certified",
            "a stable line is pointwise rational, so the torsion field "
            f"K sits inside the {p}-th cyclotomic field; {ram.detail}")
        if regular:
            ledger["A-K-zero"] = HypothesisEntry(
                "A-K-zero", "certified",
                f"K lies in Q(mu_{p}) and {p} is regular, so the {p}-class "
                "group of K injects into a trivial group")
        else:
            ledger["A-K-zero"] = HypothesisEntry(
                "A-K-zero", "inconclusive",
                f"{p} is irregular; A(Q(mu_{p})) does not vanish and the "
                "injection argument gives nothing")
    else:
        ledger["unique-total-ramification"] = HypothesisEntry(
            "unique-total-ramification", "inconclusive",
            "the torsion field is not pinned inside the cyclotomic field "
            "by this run")
        ledger["A-K-zero"] = HypothesisEntry(
            "A-K-zero", "inconclusive",
            "the p-class group of the torsion field was not computed")

    dims_given = dim_y is not None or dim_z is not None
    invariants = GlobalInvariants(
        dim_y or 0, dim_z or 0,
        "user-supplied" if dims_given else "asserted-zero")
    ledger["Y-torsion-mu-zero"] = HypothesisEntry(
        "Y-torsion-mu-zero", "asserted",
        "global module dimensions supplied by the caller" if dims_given
        else "global module dimensions asserted to vanish")

    # user assumptions upgrade inconclusive entries only
    for token in assume:
        hid = ASSUMPTION_TOKENS[token]
        entry = ledger[hid]
        if entry.status == "inconclusive":
            ledger[hid] = replace(
                entry, status="asserted",
                detail=entry.detail + f"; assumed via {token!r}")
        elif entry.status == "refuted":
            notes.append(f"assumption {token!r} ignored: the run refuted it")

    local_sum = sum(t.contribution for t in terms)
    routes: list[RouteBound] = []

    s_local = _route_strength(ledger, _LOCAL_ONLY_REQUIRED)
    routes.append(RouteBound(
        "local-only",
        None if s_local == "blocked" else local_sum,
        s_local, _LOCAL_ONLY_REQUIRED, 0,
        () if s_local != "blocked" else
        tuple(f"{h}: {ledger[h].status}" for h in _LOCAL_ONLY_REQUIRED
              if ledger[h].status == "refuted")))

    s_glob = _route_strength(ledger, _GLOBAL_DIMS_REQUIRED)
    glob_part = 2 * invariants.dim_y + invariants.dim_z
    routes.append(RouteBound(
        "with-global-dims",
        None if s_glob == "blocked" else local_sum + glob_part,
        s_glob, _GLOBAL_DIMS_REQUIRED, glob_part,
        () if s_glob != "blocked" else
        tuple(f"{h}: {ledger[h].status}" for h in _GLOBAL_DIMS_REQUIRED
              if ledger[h].status == "refuted")))

    # choose: smallest bound, then strongest, then the leaner route
    rank = {"unconditional": 0, "conditional": 1}
    viable = [r for r in routes if r.bound is not None]
    chosen = None
    if viable:
        chosen = min(viable, key=lambda r: (r.bound, rank[r.strength],
                                            r.route != "local-only"))
    if chosen is None:
        bound, strength, route_name = None, "blocked", None
        refusals = [n for r in routes for n in r.notes]
        notes.append("no route applies: " + "; ".join(sorted(set(refusals))))
    else:
        bound, strength, route_name = chosen.bound, chosen.strength, chosen.route
        if bound == 0:
            notes.append("the bound is zero, so the fine Selmer lambda "
                         "invariant vanishes")

    order = {h: i for i, h in enumerate(HYPOTHESIS_IDS)}
    ledger_tuple = tuple(sorted(ledger.values(), key=lambda e: order[e.id]))
    return LambdaBoundReport(
        model.integral_model(), p, field, tuple(terms), invariants,
        ledger_tuple, tuple(routes), route_name, bound, strength,
        tuple(notes))
