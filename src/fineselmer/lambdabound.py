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
from math import isqrt

from .cyclotomic import is_regular, kinf_ramification
from .elliptic import LADDER_MAX, WeierstrassModel
from .factorization import factor_int_poly
from .galoisimage import classify_image
from .localdata import compute_place_sets, delta_v, g_v, require_field
from .modular import MR_EXACT_LIMIT, is_prime, require_odd_prime, valuation

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
    g: int
    g_provenance: str            # "computed-exact" | "user-supplied"
    delta: int | None
    delta_provenance: str | None
    contribution: int


@dataclass(frozen=True)
class RouteBound:
    route: str                   # "local-only" | "with-global-dims"
    bound: int | None
    strength: str                # unconditional | conditional | blocked
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


def _pointwise_rational_line(model: WeierstrassModel, kernel) -> bool:
    """Does the kernel consist of rational points (beyond the origin)?

    True iff the kernel polynomial splits into rational linear factors,
    as many as its degree, and each root x0 supports a rational y, i.e.
    the quadratic in y has a square discriminant
    F(x0) = 4 x0^3 + b2 x0^2 + 2 b4 x0 + b6.  The model is integral, so
    for a primitive factor c1 x + c0 and x0 = -c0/c1 the number
    N = c1^4 F(x0) = c1 (-4 c0^3 + b2 c0^2 c1 - 2 b4 c0 c1^2 + b6 c1^3)
    is an integer.  As c1^4 is a nonzero square, F(x0) is a square in Q
    iff N is; and a rational square root of an integer is a root of the
    monic t^2 - N, so it is an integer.  math.isqrt decides on ints.
    """
    _, factors = factor_int_poly(kernel, max_degree=1)
    if len(factors) != kernel.degree:
        return False
    for f, _ in factors:
        c0, c1 = f.int_coeffs()
        n = c1 * (((-4 * c0 + model.b2 * c1) * c0 - 2 * model.b4 * c1 * c1) * c0
                  + model.b6 * c1**3)
        if n < 0 or isqrt(n) ** 2 != n:
            return False
    return True


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
    """Run the whole pipeline for one curve, prime, and base field.

    The inputs are checked once, before any arithmetic: the cap on p, p,
    the field, the assumptions, the dimensions, the table rows. Then one
    integral model serves every layer and the report, with one ladder.

    g_table, when given, is a user Z_p-extension: rows {residue_char,
    residue_degree (1 if absent), g}. It is read once, before any place:
    a row with a value that is not an int (a bool included), whose
    residue_char is not a prime below MR_EXACT_LIMIT, whose
    residue_degree or g is below 1, or that repeats a (residue_char,
    residue_degree) raises ValueError naming the row, whatever the
    curve. A place of S0 takes g from its row, and one without a row
    raises ValueError; a place outside S0 takes its row's g, or else
    the closed form g_v.
    """
    # the cap comes first: is_prime on a huge p would not return
    if p > LADDER_MAX:
        raise ValueError(f"p is capped at {LADDER_MAX} by the division-polynomial ladder")
    require_odd_prime(p)
    require_field(field)
    for token in assume:
        if token not in ASSUMPTION_TOKENS:
            raise ValueError(f"unknown assumption {token!r}; "
                             f"expected one of {sorted(ASSUMPTION_TOKENS)}")
    for name, dim in (("dim_y", dim_y), ("dim_z", dim_z)):
        if dim is not None and type(dim) is not int:  # a bool too
            raise ValueError(f"{name} must be an integer, got {dim!r}")
        if dim is not None and dim < 0:
            raise ValueError("global dimensions cannot be negative")
    # every row, not only those of the curve's places, so that a table is
    # accepted or refused whatever the curve
    table: dict[tuple[int, int], int] = {}
    for i, row in enumerate(g_table or ()):
        key = (row["residue_char"], row.get("residue_degree", 1))
        for name, value in zip(("residue_char", "residue_degree", "g"), (*key, row["g"])):
            if type(value) is not int:
                raise ValueError(f"g table row {i}: {name} must be an integer, got {value!r}")
        # no place lies above a prime too large to prove prime: refuse it
        # before is_prime, which would take seconds on it
        if key[0] >= MR_EXACT_LIMIT:
            raise ValueError(f"g table row {i}: residue_char has {key[0].bit_length()} "
                             "bits; a prime is proven only below 3.3 * 10^24")
        if not is_prime(key[0]):
            raise ValueError(f"g table row {i}: residue_char must be a prime, got {key[0]}")
        if key[1] < 1:
            raise ValueError(f"g table row {i}: residue_degree must be a positive "
                             f"integer, got {key[1]}")
        if row["g"] < 1:
            raise ValueError(f"g table row {i}: g must be a positive integer, "
                             f"got {row['g']}")
        if key in table:
            raise ValueError(f"g table row {i}: a second row for "
                             f"residue_char={key[0]}, f={key[1]}")
        table[key] = row["g"]

    E = model.integral_model()
    notes: list[str] = []
    ledger: dict[str, HypothesisEntry] = {}

    places = compute_place_sets(E, p, field)
    # S_p is the single place above p, named eta_p over Q(mu_p)
    p_label = str(p) if field == "Q" else f"eta_{p}"
    if places.good_above_p:
        ledger["good-reduction-above-p"] = HypothesisEntry(
            "good-reduction-above-p", "certified",
            f"the curve has good reduction at every place above {p}")
    else:
        ledger["good-reduction-above-p"] = HypothesisEntry(
            "good-reduction-above-p", "refuted",
            f"bad reduction at place {p_label} above {p}; the bound "
            "machinery does not apply")
        notes.append(f"blocked: the curve has bad reduction at place "
                     f"{p_label} above {p}")

    # local terms for every place of S = {bad} + {above p}, one for each of
    # a record's conjugate places, labelled ell or ell.1 ... ell.g.  Places
    # in S0 contribute 2 g_v; bad places outside S0 are listed with a zero
    # contribution so the report shows all of S.  A place with a table
    # row takes its g; a place of S0 without one raises instead of being
    # papered over by the closed form.
    terms: list[LocalTerm] = []
    if places.good_above_p:
        split_notes: list[str] = []
        for rec in places.bad_places:
            ell, f = rec.residue_char, rec.residue_degree
            if (ell, f) in table:
                g, g_prov = table[ell, f], "user-supplied"
            elif rec.in_S0 and g_table is not None:
                raise ValueError(f"no table entry for residue_char={ell}, f={f}")
            else:
                g, g_prov = g_v(ell, p, field, f), "computed-exact"
            role, contribution = ("S0", 2 * g) if rec.in_S0 else ("S", 0)
            labels = ([str(ell)] if rec.count == 1
                      else [f"{ell}.{i}" for i in range(1, rec.count + 1)])
            terms.extend(LocalTerm(label, ell, f, role, rec.kodaira, rec.split,
                                   g, g_prov, None, None, contribution)
                         for label in labels)
            if not rec.in_S0:
                continue
            if g_table is None:
                exp = p - 1 if field == "Q" else f
                m = valuation(ell ** exp - 1, p)
                notes.append(
                    f"g witness above {ell}: v_{p}({ell}^{exp} - 1) = {m}, "
                    f"so g = {p}^max(0, {m} - 1) = {g}")
            if rec.count > 1:
                # only a prime of Q that splits in Q(mu_p) has conjugates
                split_notes.append(
                    f"{ell} has {rec.count} places in Q(mu_{p}), and each "
                    f"enters the sum separately for {rec.count * contribution} "
                    f"in all; a reading that treats {ell} as inert would keep "
                    f"a single term of {contribution} and understate the bound")
        notes.extend(split_notes)
        delta = delta_v(E, p, field)
        terms.append(LocalTerm(
            p_label, p, 1, "S_p", "good", None,
            1, "computed-exact", delta.value, delta.provenance, delta.value))
        notes.append(f"g at {p_label} is 1: the place above {p} is "
                     "totally ramified in the tower")
        notes.append(f"delta at {p_label} decided by {delta.method}")
        for extra in delta.notes:
            notes.append(f"delta at {p_label}: {extra}")
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
        image = classify_image(E, p, field)
        ledger["image-condition"] = HypothesisEntry(
            "image-condition",
            image.image_condition,
            f"{image.status}: " + "; ".join(image.notes))
        guard = (len(image.witnesses) >= 2
                 and any(_pointwise_rational_line(E, w.kernel_primitive)
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
    # a route's refusal notes are its refuted requirements, which it has
    # exactly when it is blocked
    for name, required, global_part in (
            ("local-only", _LOCAL_ONLY_REQUIRED, 0),
            ("with-global-dims", _GLOBAL_DIMS_REQUIRED,
             2 * invariants.dim_y + invariants.dim_z)):
        strength = _route_strength(ledger, required)
        routes.append(RouteBound(
            name, None if strength == "blocked" else local_sum + global_part,
            strength, global_part,
            tuple(f"{h}: refuted" for h in required
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
        E, p, field, tuple(terms), invariants,
        ledger_tuple, tuple(routes), route_name, bound, strength,
        tuple(notes))
