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

from collections.abc import Iterable, Mapping
from math import isqrt
from typing import NamedTuple

from .cyclotomic import is_regular, kinf_ramification
from .elliptic import WeierstrassModel, require_ladder_prime
from .factorization import factor_int_poly
from .galoisimage import classify_image
from .localdata import (_shown, compute_place_sets, delta_v, g_v, require_field,
                        require_model)
from .modular import _require_provable, is_prime, valuation

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


class HypothesisEntry(NamedTuple):
    id: str
    status: str        # certified | asserted | inconclusive | refuted
    detail: str


class GlobalInvariants(NamedTuple):
    dim_y: int = 0
    dim_z: int = 0
    provenance: str = "asserted-zero"   # | "user-supplied"


class LocalTerm(NamedTuple):
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


class RouteBound(NamedTuple):
    route: str                   # "local-only" | "with-global-dims"
    bound: int | None
    strength: str                # unconditional | conditional | blocked
    global_part: int
    notes: tuple[str, ...]


class LambdaBoundReport(NamedTuple):
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

    The inputs are checked once, before any arithmetic: the model (a
    WeierstrassModel), the cap on p, p, the field, the assumptions (a
    collection of ASSUMPTION_TOKENS keys, never one bare string), the
    dimensions (None or ints in [0, 2^64)), the table rows; each refusal
    is a ValueError that names the argument, and its value where Python
    can print it. Then one integral model serves every layer and the report,
    with one ladder.

    g_table, when given, is a user Z_p-extension: a collection, never one
    bare mapping or string, of mappings {residue_char, residue_degree (1
    if absent), g}, with no other key. It is read once, before any
    place: a row that is no such mapping, has a value that is not an int
    (a bool included), a residue_char that is not a prime below
    MR_EXACT_LIMIT, a residue_degree or g below 1, a g of 2^64 or
    more, or repeats a
    (residue_char, residue_degree) raises ValueError naming the row,
    whatever the curve. A place of S0 takes g from its row, and one
    without a row raises ValueError; a place outside S0 takes its row's
    g, or else the closed form g_v.
    """
    require_model(model)
    require_ladder_prime(p)
    require_field(field)
    if isinstance(assume, str):
        raise ValueError(f"assume must be a collection of tokens, not the string {assume!r}")
    if not isinstance(assume, Iterable):
        raise ValueError(f"assume must be a collection of tokens, got {_shown(assume)}")
    for token in assume:
        if not isinstance(token, str) or token not in ASSUMPTION_TOKENS:
            raise ValueError(f"unknown assumption {_shown(token)}; known: "
                             + ", ".join(sorted(ASSUMPTION_TOKENS)))
    for name, dim in (("dim_y", dim_y), ("dim_z", dim_z)):
        if dim is not None and type(dim) is not int:  # a bool too
            raise ValueError(f"{name} must be an integer, got {_shown(dim)}")
        if dim is not None and not 0 <= dim < 2**64:  # the report prints 2 dim_y + dim_z
            raise ValueError(f"{name} must be at least 0 and below 2^64, got {_shown(dim)}")
    # one bare mapping or string would be read as the rows of its keys or letters
    if g_table is not None and (isinstance(g_table, (str, Mapping))
                                or not isinstance(g_table, Iterable)):
        raise ValueError(f"g table must be a collection of rows, got {_shown(g_table)}")
    # every row, not only those of the curve's places, so that a table is
    # accepted or refused whatever the curve
    table: dict[tuple[int, int], int] = {}
    for i, row in enumerate(g_table or ()):
        if not isinstance(row, Mapping) or not {"residue_char", "g"} <= row.keys():
            raise ValueError(f"g table row {i}: needs residue_char and g, got {_shown(row)}")
        if extra := row.keys() - {"residue_char", "residue_degree", "g"}:
            raise ValueError(f"g table row {i}: unknown keys [{', '.join(sorted(map(_shown, extra)))}]")
        key = (row["residue_char"], row.get("residue_degree", 1))
        for name, value in zip(("residue_char", "residue_degree", "g"), (*key, row["g"])):
            if type(value) is not int:
                raise ValueError(f"g table row {i}: {name} must be an integer, got {_shown(value)}")
        # no place lies above a prime too large to prove prime
        _require_provable(key[0], f"g table row {i}: residue_char")
        if not is_prime(key[0]):
            raise ValueError(f"g table row {i}: residue_char must be a prime, got {_shown(key[0])}")
        if key[1] < 1:
            raise ValueError(f"g table row {i}: residue_degree must be a positive "
                             f"integer, got {_shown(key[1])}")
        if row["g"] < 1:
            raise ValueError(f"g table row {i}: g must be a positive integer, "
                             f"got {_shown(row['g'])}")
        if row["g"] >= 2**64:  # the report prints 2 g in decimal
            raise ValueError(f"g table row {i}: g must be below 2^64, got {_shown(row['g'])}")
        if key in table:
            raise ValueError(f"g table row {i}: a second row for "
                             f"residue_char={key[0]}, f={_shown(key[1])}")
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
            ledger[hid] = entry._replace(
                status="asserted",
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
