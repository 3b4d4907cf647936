"""Assembly of the lambda-invariant bound: routes, ledger, assumptions.

Fixtures here are the four curves whose local data the rest of the suite
has already pinned down independently; what is under test is the glue:
route selection, hypothesis bookkeeping, note emission, and the exact
additivity bound = global part + sum of place contributions.
"""

import hashlib
import re
from fractions import Fraction

import pytest

from fineselmer import cli, elliptic, galoisimage, lambdabound, localdata
from fineselmer.elliptic import WeierstrassModel
from fineselmer.lambdabound import (
    ASSUMPTION_TOKENS,
    HYPOTHESIS_IDS,
    compute_lambda_bound,
)

E11A1 = WeierstrassModel(0, -1, 1, -10, -20)
E11A2 = WeierstrassModel(0, -1, 1, -7820, -263580)
E49A1 = WeierstrassModel(1, -1, 0, -2, -1)
E121B1 = WeierstrassModel(0, -1, 1, -7, 10)
E37A1 = WeierstrassModel(0, 0, 1, -1, 0)
E389A1 = WeierstrassModel(0, 1, 1, -2, 0)
E26B1 = WeierstrassModel(1, -1, 1, -3, 3)


def ledger_map(report):
    return {e.id: e.status for e in report.ledger}


def test_worked_example_over_Q():
    r = compute_lambda_bound(E11A2, 5, "Q")
    assert r.bound == 2
    assert r.strength == "conditional"
    assert r.route == "with-global-dims"
    assert [(t.label, t.role, t.contribution) for t in r.terms] == [
        ("11", "S0", 2), ("5", "S_p", 0),
    ]
    local_only = next(rt for rt in r.routes if rt.route == "local-only")
    assert local_only.bound is None and local_only.strength == "blocked"
    assert ledger_map(r)["image-condition"] == "refuted"
    assert any("regular" in note for note in r.notes)
    assert any("v_5(11^4 - 1) = 1" in note for note in r.notes)


def test_worked_example_over_Qmu5():
    r = compute_lambda_bound(E11A2, 5, "Q(mu_p)")
    assert r.bound == 10
    assert r.route == "with-global-dims"
    s0_terms = [t for t in r.terms if t.role == "S0"]
    assert len(s0_terms) == 4
    assert all(t.g == 1 and t.contribution == 2 for t in s0_terms)
    eta = next(t for t in r.terms if t.role == "S_p")
    assert eta.label == "eta_5"
    assert eta.delta == 2 and eta.delta_provenance == "computed-exact"
    assert r.bound == sum(t.contribution for t in r.terms)
    # the four-way splitting is called out, with the inert misreading named
    assert any("4 places" in note and "inert" in note for note in r.notes)


def test_each_record_gives_one_term_per_conjugate_place():
    # 26b1 at 7 over Q(mu_7): 2 splits into two places and 13 into three
    r = compute_lambda_bound(E26B1, 7, "Q(mu_p)")
    records = lambdabound.compute_place_sets(E26B1, 7, "Q(mu_p)").bad_places
    assert [t.label for t in r.terms] == [
        f"{rec.residue_char}.{i}" for rec in records
        for i in range(1, rec.count + 1)] + ["eta_7"]
    assert [t.label for t in r.terms] == ["2.1", "2.2", "13.1", "13.2", "13.3", "eta_7"]
    # the g witnesses in ell order, then the split notes, then the place above 7
    assert list(r.notes[:5]) == [
        "g witness above 2: v_7(2^3 - 1) = 1, so g = 7^max(0, 1 - 1) = 1",
        "g witness above 13: v_7(13^2 - 1) = 1, so g = 7^max(0, 1 - 1) = 1",
        "2 has 2 places in Q(mu_7), and each enters the sum separately for 4 "
        "in all; a reading that treats 2 as inert would keep a single term "
        "of 2 and understate the bound",
        "13 has 3 places in Q(mu_7), and each enters the sum separately for 6 "
        "in all; a reading that treats 13 as inert would keep a single term "
        "of 2 and understate the bound",
        "g at eta_7 is 1: the place above 7 is totally ramified in the tower",
    ]
    assert r.bound == 12 and r.strength == "conditional"


def test_g_v_is_read_once_per_record(monkeypatch):
    calls = []
    g_v = lambdabound.g_v

    def counting(*args):
        calls.append(args)
        return g_v(*args)

    monkeypatch.setattr(lambdabound, "g_v", counting)
    compute_lambda_bound(E26B1, 7, "Q(mu_p)")
    assert calls == [(2, 7, "Q(mu_p)", 3), (13, 7, "Q(mu_p)", 2)]


def run_counting_job_work(monkeypatch, model, p, field):
    """compute_lambda_bound(model, p, field), and what it built and counted:
    the models whose ladder was built, the integers factored for the
    places, and the (model, ell) pairs of each Tate reduction and each
    trace count. trace_of_frobenius counts through frobenius_traces."""
    built, factored, reduced, counted = [], [], [], []
    build, factorize = WeierstrassModel._division_ladder, localdata.factorize
    reduce, traces = localdata.tate_reduction, elliptic.frobenius_traces

    def counting_build(self):
        built.append(self)
        return build(self)

    def counting_factorize(n):
        factored.append(n)
        return factorize(n)

    def counting_reduce(E, ell):
        reduced.append((E, ell))
        return reduce(E, ell)

    def counting_traces(E, ells):
        ells = list(ells)
        counted.extend((E, ell) for ell in ells)
        return traces(E, ells)

    monkeypatch.setattr(WeierstrassModel, "_division_ladder", counting_build)
    monkeypatch.setattr(localdata, "factorize", counting_factorize)
    monkeypatch.setattr(localdata, "tate_reduction", counting_reduce)
    monkeypatch.setattr(elliptic, "frobenius_traces", counting_traces)
    monkeypatch.setattr(galoisimage, "frobenius_traces", counting_traces)
    report = compute_lambda_bound(model, p, field)
    monkeypatch.undo()
    return report, built, factored, reduced, counted


def assert_each_datum_once(report, built, factored, reduced, counted):
    # delta_v's psi_p, the stable-line search's psi_p and every closure
    # test read one ladder, kept by the one integral model of the job;
    # the discriminant of that model is factored once, and each ell is
    # reduced once and has its trace counted once per model
    assert len(built) == 1 and built[0] is report.model
    assert factored == [abs(report.model.discriminant)]
    assert reduced and len(set(reduced)) == len(reduced)
    assert counted and len(set(counted)) == len(counted)


@pytest.mark.parametrize("field", ["Q", "Q(mu_p)"])
@pytest.mark.parametrize("u", [1, 2], ids=["11a1", "11a1-rescaled"])
def test_one_job_builds_one_ladder_on_one_integral_model(monkeypatch, u, field):
    # a fresh model each run: a module-level one keeps the ladder another
    # test built
    model = WeierstrassModel(0, -1, 1, -10, -20).change_model(u, 0, 0, 0)
    assert model.is_integral == (u == 1)
    assert_each_datum_once(*run_counting_job_work(monkeypatch, model, 5, field))


def test_each_isogeny_lines_job_reduces_and_counts_each_ell_once(monkeypatch, bench_corpus):
    for job in bench_corpus.ISOGENY_LINES:
        model = WeierstrassModel(*job.curve)
        work = run_counting_job_work(monkeypatch, model, job.p, job.field)
        assert work[0].bound == job.bound, job
        assert_each_datum_once(*work)


def test_sum_of_terms_always_recomposes_the_bound():
    for model, p in ((E11A2, 5), (E11A1, 5), (E49A1, 3), (E121B1, 5)):
        for field in ("Q", "Q(mu_p)"):
            r = compute_lambda_bound(model, p, field)
            if r.bound is None:
                continue
            global_part = next(
                rt.global_part for rt in r.routes if rt.route == r.route
            )
            assert r.bound == global_part + sum(t.contribution for t in r.terms)


def test_two_stable_lines_with_rational_points_go_unconditional():
    r = compute_lambda_bound(E11A1, 5, "Q")
    assert r.bound == 4
    assert r.strength == "unconditional"
    assert r.route == "local-only"
    statuses = ledger_map(r)
    assert statuses["image-condition"] == "certified"
    assert statuses["unique-total-ramification"] == "certified"
    assert statuses["A-K-zero"] == "certified"
    assert statuses["good-reduction-above-p"] == "certified"
    assert statuses["finitely-decomposed"] == "certified"


def test_lambda_zero_cases_emit_vanishing_note():
    r = compute_lambda_bound(E49A1, 3, "Q")
    assert r.bound == 0
    assert sorted((t.label, t.role) for t in r.terms) == [("3", "S_p"), ("7", "S")]
    assert any("vanishes" in note for note in r.notes)
    r = compute_lambda_bound(E121B1, 5, "Q")
    assert r.bound == 0
    assert any("vanishes" in note for note in r.notes)


def test_bad_reduction_above_p_blocks_both_routes():
    r = compute_lambda_bound(E11A2, 11, "Q")
    assert r.bound is None and r.strength == "blocked" and r.route is None
    assert ledger_map(r)["good-reduction-above-p"] == "refuted"
    assert any("no route applies" in note for note in r.notes)
    # image classification is skipped rather than attempted on a dead run
    assert ledger_map(r)["image-condition"] == "inconclusive"


def test_nonzero_dims_enter_the_global_route():
    r = compute_lambda_bound(E11A2, 5, "Q", dim_y=1, dim_z=3)
    assert r.bound == 2 * 1 + 3 + 2
    assert r.global_invariants.provenance == "user-supplied"
    assert r.strength == "conditional"


def test_assumption_never_overrides_refutation():
    r = compute_lambda_bound(E11A2, 5, "Q", assume=("image-order-coprime",))
    assert ledger_map(r)["image-condition"] == "refuted"
    assert any("ignored" in note for note in r.notes)
    assert r.bound == 2  # unchanged from the unassumed run


def test_assumptions_upgrade_inconclusive_entries():
    r = compute_lambda_bound(
        E121B1, 5, "Q",
        assume=("image-order-coprime", "unique-total-ramification", "A-K-zero"),
    )
    statuses = ledger_map(r)
    assert statuses["image-condition"] == "asserted"
    assert statuses["unique-total-ramification"] == "asserted"
    assert statuses["A-K-zero"] == "asserted"
    assert r.strength == "conditional"
    assert r.bound == 0  # asserted hypotheses keep the bound conditional


def test_g_table_is_exclusive_and_strict():
    r = compute_lambda_bound(E11A2, 5, "Q", g_table=[{"residue_char": 11, "g": 7}])
    assert r.terms[0].g == 7
    assert r.terms[0].g_provenance == "user-supplied"
    assert r.bound == 14
    assert ledger_map(r)["finitely-decomposed"] == "asserted"
    with pytest.raises(ValueError):
        compute_lambda_bound(E11A2, 5, "Q", g_table=[{"residue_char": 13, "g": 1}])


@pytest.mark.parametrize("model", [E11A2, WeierstrassModel(1, 0, 1, 4, -6)],
                         ids=["11a2", "14a1"])
def test_g_table_row_below_one_is_refused_whatever_the_curve(model):
    # 11a2 has no place above 2, so g_v never reads the first row; the
    # table is refused all the same. So is a row that can match no place:
    # a residue_char that is no prime, or too large to prove prime (2^127 - 1
    # is one), and a residue_degree below 1
    for row, message in (
            ({"residue_char": 2, "g": 0}, "g must be a positive integer, got 0"),
            ({"residue_char": 4, "g": 1}, "residue_char must be a prime, got 4"),
            ({"residue_char": -37, "g": 1}, "residue_char must be a prime, got -37"),
            ({"residue_char": 2, "residue_degree": 0, "g": 1},
             "residue_degree must be a positive integer, got 0"),
            ({"residue_char": 2, "residue_degree": -1, "g": 1},
             "residue_degree must be a positive integer, got -1"),
            ({"residue_char": 2**127 - 1, "g": 1},
             "residue_char has 127 bits; a prime is proven only below 3.3 * 10^24"),
            # a value that is not an int: none is truncated or parsed
            ({"residue_char": 11, "g": 2.5}, "g must be an integer, got 2.5"),
            ({"residue_char": 11, "g": True}, "g must be an integer, got True"),
            ({"residue_char": 11, "g": "7"}, "g must be an integer, got '7'"),
            ({"residue_char": 11.0, "g": 1}, "residue_char must be an integer, got 11.0"),
            ({"residue_char": 2, "residue_degree": 1.5, "g": 1},
             "residue_degree must be an integer, got 1.5")):
        table = [row, {"residue_char": 11, "g": 1}]
        with pytest.raises(ValueError, match=f"^{re.escape(f'g table row 0: {message}')}$"):
            compute_lambda_bound(model, 5, "Q", g_table=table)


@pytest.mark.parametrize("model", [E11A2, WeierstrassModel(1, 0, 1, 4, -6)],
                         ids=["11a2", "14a1"])
@pytest.mark.parametrize("gs", [(7, 1), (1, 7)], ids=["g 7 first", "g 1 first"])
def test_g_table_with_two_rows_for_one_place_is_refused(model, gs):
    # 14a1 has no place above 11; the table is refused all the same
    table = [{"residue_char": 11, "g": gs[0]},
             {"residue_char": 11, "residue_degree": 1, "g": gs[1]}]
    with pytest.raises(ValueError, match=r"^g table row 1: a second row for "
                                         r"residue_char=11, f=1$"):
        compute_lambda_bound(model, 5, "Q", g_table=table)


def test_report_model_is_integralized():
    scaled = E11A2.change_model(Fraction(1, 3), 0, 0, 0)
    r = compute_lambda_bound(scaled, 5, "Q")
    assert r.model.is_integral
    assert r.bound == 2


def test_ledger_is_complete_and_ordered():
    r = compute_lambda_bound(E11A2, 5, "Q")
    assert tuple(e.id for e in r.ledger) == HYPOTHESIS_IDS
    for e in r.ledger:
        assert e.status in ("certified", "asserted", "refuted", "inconclusive")
        assert e.detail


def test_assumption_tokens_map_to_real_hypotheses():
    for token, hyp in ASSUMPTION_TOKENS.items():
        assert hyp in HYPOTHESIS_IDS
        assert "good-reduction" not in token  # never assumable


def test_input_validation():
    for bad_p in (4, 2, 17, 1):
        with pytest.raises(ValueError):
            compute_lambda_bound(E11A2, bad_p, "Q")
    with pytest.raises(ValueError):
        compute_lambda_bound(E11A2, 5, "Q", dim_y=-1)
    # a p or a dimension that is not an int is refused, not truncated or
    # carried into the bound as a float
    for bad_p in (5.0, Fraction(5)):
        with pytest.raises(ValueError, match="^p must be an odd prime$"):
            compute_lambda_bound(E11A1, bad_p, "Q")
    for dims, message in (({"dim_y": 1.5}, "dim_y must be an integer, got 1.5"),
                          ({"dim_y": True}, "dim_y must be an integer, got True"),
                          ({"dim_y": 0, "dim_z": 1.0}, "dim_z must be an integer, got 1.0")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compute_lambda_bound(E11A1, 5, "Q", **dims)
    with pytest.raises(ValueError):
        compute_lambda_bound(E11A2, 5, "Q", assume=("nonsense",))
    with pytest.raises(ValueError):
        compute_lambda_bound(E11A2, 5, "Q[i]")


def test_routes_are_both_reported():
    r = compute_lambda_bound(E11A1, 5, "Q")
    names = sorted(rt.route for rt in r.routes)
    assert names == ["local-only", "with-global-dims"]
    with_dims = next(rt for rt in r.routes if rt.route == "with-global-dims")
    # both routes see the same local sums; they differ in the global part
    assert with_dims.bound == 4
    assert with_dims.strength == "conditional"


# psi_11 and psi_13 have degree 60 and 84. For these curves psi_p mod 3
# has no divisor of degree (p - 1)/2, so no stable line exists and the
# image is settled without factoring over Q. 37a1 at p = 13 stays out:
# mod 3 its psi_13 splits as [2, 2, 2, 6, ...], which reaches degree 6,
# so that run factors psi_13 over Q in full, like the runs pinned in
# test_former_factoring_cliff below.
@pytest.mark.parametrize("model, p, field, bound", [
    pytest.param(E37A1, 11, "Q", 2, id="37a1-11-Q"),
    pytest.param(E37A1, 11, "Q(mu_p)", 0, id="37a1-11-Qmu11"),
    pytest.param(E11A1, 13, "Q", 2, id="11a1-13-Q"),
    pytest.param(E389A1, 13, "Q", 2, id="389a1-13-Q"),
])
def test_large_p_end_to_end(model, p, field, bound):
    r = compute_lambda_bound(model, p, field)
    assert r.bound == bound
    assert r.strength == "conditional" and r.route == "local-only"
    image = next(e for e in r.ledger if e.id == "image-condition")
    assert image.status == "certified"
    assert image.detail.startswith("SurjectiveCertified")


def test_37a1_at_11_never_factors_over_Q(monkeypatch):
    from fineselmer import galoisimage, lambdabound

    calls = []
    for module in (galoisimage, lambdabound):
        def counted(*args, _inner=module.factor_int_poly, **kwargs):
            calls.append(args[0].degree)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, "factor_int_poly", counted)
    r = compute_lambda_bound(E37A1, 11, "Q")
    assert r.bound == 2
    assert calls == []


# The degrees of psi_p mod 3 leave room for a stable line on these curves,
# so each run factors psi_p over Q in full. That took 25 to 55 s a run on
# a 2-core VM when the recombination made psi_p monic first; the verdicts
# and the sha256 of each compact report were pinned from that code.
@pytest.mark.parametrize("curve, p, bound, image, digest", [
    pytest.param((0, 1, 1, 0, 0), 11, 2, "certified",
                 "d074f8b2b362568d2ed4f20b348a516125df1c38bcbd0e848fcc55c8771cd120", id="43a1-11"),
    pytest.param((0, 1, 0, 4, 4), 11, 4, "certified",
                 "4d73d880dd1000e2ec5242a027a480e1485c3a9db0f0e60e444e1799c07179fc", id="20a1-11"),
    pytest.param((1, 0, 1, 4, -6), 11, 4, "certified",
                 "0a90173386c5b18cb1739f7352b9aa74694140c9a422602fe3c9d46325f90ba4", id="14a1-11"),
    pytest.param((0, 0, 0, -1, 0), 13, 2, "inconclusive",
                 "d1db402c3a5a260eb1aa89b5f6ffa065d78ba8b689b863845e1c4555f9fe99be", id="32a2-13"),
])
def test_former_factoring_cliff(monkeypatch, curve, p, bound, image, digest):
    from fineselmer import galoisimage

    degrees = []

    def counted(psi, *args, _inner=galoisimage.factor_int_poly, **kwargs):
        degrees.append(psi.degree)
        return _inner(psi, *args, **kwargs)

    monkeypatch.setattr(galoisimage, "factor_int_poly", counted)
    r = compute_lambda_bound(WeierstrassModel(*curve), p, "Q")
    assert degrees == [(p * p - 1) // 2]
    assert r.bound == bound
    assert r.strength == "conditional" and r.route == "local-only"
    assert ledger_map(r)["image-condition"] == image
    job = cli.job_from_dict({"curve": list(curve), "p": p, "field": "Q"}, "pinned")
    text = cli.render_json(r, job, compact=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# --- the pointwise guard asks only for the linear factors of a kernel ---


def test_pointwise_guard_matches_the_full_factoring(monkeypatch, bench_corpus):
    from fineselmer import lambdabound
    from fineselmer.galoisimage import find_stable_subgroups

    kernels = []
    for label in ("11a1", "11a2", "11a3", "14a1", "20a1", "26b1", "38b1"):
        E = WeierstrassModel(*bench_corpus.CURVES[label][0]).integral_model()
        for p in (3, 5, 7):
            kernels += [(E, w.kernel_monic) for w in find_stable_subgroups(E, p)]
    factor_int_poly = lambdabound.factor_int_poly
    caps = []

    def recording(f, max_degree=None, **kwargs):
        caps.append(max_degree)
        return factor_int_poly(f, max_degree=max_degree, **kwargs)

    monkeypatch.setattr(lambdabound, "factor_int_poly", recording)
    fast = [lambdabound._pointwise_rational_line(E, h) for E, h in kernels]
    assert caps == [1] * len(kernels)
    # with every factor returned, the kernel splits when all of them are lines
    monkeypatch.setattr(lambdabound, "factor_int_poly",
                        lambda f, max_degree=None: factor_int_poly(f))
    slow = [lambdabound._pointwise_rational_line(E, h) for E, h in kernels]
    assert fast == slow
    # 11a1, 11a3 and 14a1 have a rational point of order p; other kernels do not
    assert 0 < sum(fast) < len(fast)
