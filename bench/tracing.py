"""Stage spans recorded from outside the package, for the traced run.

The package has no spans of its own yet, so the benchmark wraps the
public functions at each layer boundary for the length of a traced run
and restores them afterwards.  Each wrapper is patched into the module
namespace its caller looks the function up in, so the spans are the ones
``compute_lambda_bound`` really performs: nothing is called twice.

A span is ``[name, start_ns, end_ns, parent, info]``: ``parent`` is the
index of the span open when it started (the span that caused it) and
``info`` is a small digest of the call's result for the counters.  Spans
stay in memory until the run ends; ``layer_totals`` folds them into the
per-layer metrics.
"""

from __future__ import annotations

import time
from math import isqrt

# (name, unit, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("localdata.place_sets_s", "s",
     "job_s.p50 on batch-mixed (cheap jobs, so a visible share)"),
    ("localdata.delta_v_s", "s", "job_s.p50 on isogeny-lines"),
    ("localdata.delta_searches", "count", "job_s.p50 on isogeny-lines"),
    ("elliptic.division_polynomial_s", "s", "job_s.p50 on surjective-p11"),
    ("polynomial.yun_s", "s",
     "attribution for skipping Yun (ROADMAP 3a) on surjective-p11"),
    ("factorization.factor_s", "s",
     "jobs_per_s on surjective-p11; job_s.p50 on isogeny-lines"),
    ("factorization.factors", "count",
     "jobs_per_s on surjective-p11 (must repeat exactly)"),
    ("galoisimage.stable_subgroups_s", "s", "job_s.p50 on isogeny-lines"),
    ("galoisimage.closure_s", "s", "job_s.p50 on isogeny-lines"),
    ("galoisimage.candidate_subsets", "count", "job_s.p50 on isogeny-lines"),
    ("galoisimage.witnesses", "count", "job_s.p50 on isogeny-lines"),
    ("galoisimage.certificate_s", "s", "jobs_per_s on inconclusive-cm"),
    ("galoisimage.certificate_primes", "count", "jobs_per_s on inconclusive-cm"),
    ("elliptic.trace_s", "s",
     "attribution for the point-count kernel on inconclusive-cm"),
    ("lambdabound.self_s", "s", "should stay flat everywhere"),
    ("cli.parse_s", "s", "jobs_per_s.serial on batch-mixed"),
    ("cli.render_s", "s", "jobs_per_s.serial on batch-mixed"),
    ("cli.pool_s", "s", "jobs_per_s and first_result_s on batch-mixed"),
    ("trace.overhead_s", "s", "none: traced minus untraced job time"),
)

# delta_v methods that decide by a congruence; the others search roots
_CONGRUENCES = ("reduction-congruence", "ramified-congruence")


def _factor_info(args, result):
    """(degree of the input, degrees of its irreducible factors)."""
    return args[0].degree, tuple(f.degree for f, _ in result[1])


def _patch_points():
    """(owner, attribute, span name, info) for every wrapped call site."""
    from fineselmer import (cli, elliptic, galoisimage, lambdabound,
                            localdata, polynomial)
    return (
        (lambdabound, "compute_lambda_bound", "lambdabound.compute", None),
        (cli, "compute_lambda_bound", "lambdabound.compute", None),
        (lambdabound, "compute_place_sets", "localdata.place_sets", None),
        (lambdabound, "delta_v", "localdata.delta_v",
         lambda args, result: result.method),
        (elliptic.WeierstrassModel, "division_polynomial",
         "elliptic.division_polynomial", None),
        (polynomial.QPoly, "yun_squarefree", "polynomial.yun", None),
        (galoisimage, "factor_int_poly", "factorization.factor", _factor_info),
        (lambdabound, "factor_int_poly", "factorization.factor", _factor_info),
        (galoisimage, "find_stable_subgroups", "galoisimage.stable_subgroups",
         lambda args, result: len(result)),
        (galoisimage, "surjectivity_certificate", "galoisimage.certificate",
         None),
        (galoisimage, "trace_of_frobenius", "elliptic.trace", None),
        (localdata, "trace_of_frobenius", "elliptic.trace", None),
        (cli, "job_from_dict", "cli.parse", None),
        (cli, "render_json", "cli.render", None),
    )


class Tracer:
    """Context manager: wraps the layer boundaries while it is open."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        # call sites the package no longer has; their layers read 0
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
            if info is not None:
                rec[4] = info(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, info in _patch_points():
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.add(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, info))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _subsets_of_degree(degrees: tuple[int, ...], target: int) -> int:
    """Number of index subsets of ``degrees`` whose sum is ``target``."""
    ways = [1] + [0] * target
    for d in degrees:
        for s in range(target, d - 1, -1):
            ways[s] += ways[s - d]
    return ways[target]


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Per-layer seconds and counts summed over every span recorded.

    Derived entries: ``galoisimage.closure_s`` is the stable-subgroup
    time outside its division-polynomial and factoring children (the
    closure test, Velu and trace matching); ``lambdabound.self_s`` is
    the ``compute_lambda_bound`` time outside its direct child spans;
    ``elliptic.trace_s`` and ``galoisimage.certificate_primes`` cover the
    point counts made by the surjectivity hunt only.
    """
    ns: dict[str, int] = {}
    closure = self_ns = hunt_ns = 0
    hunt_primes = subsets = factors = witnesses = searches = 0
    for name, start, end, parent, info in spans:
        d = end - start
        ns[name] = ns.get(name, 0) + d
        up = spans[parent][0] if parent is not None else None
        if name == "galoisimage.stable_subgroups":
            closure += d
            witnesses += info
        elif name == "lambdabound.compute":
            self_ns += d
        elif name == "factorization.factor":
            factors += len(info[1])
            if up == "galoisimage.stable_subgroups":
                p = isqrt(2 * info[0] + 1)
                subsets += _subsets_of_degree(info[1], (p - 1) // 2)
        elif name == "localdata.delta_v":
            searches += info not in _CONGRUENCES
        elif name == "elliptic.trace" and up == "galoisimage.certificate":
            hunt_ns += d
            hunt_primes += 1
        if up == "lambdabound.compute":
            self_ns -= d
        elif up == "galoisimage.stable_subgroups" and name in (
                "elliptic.division_polynomial", "factorization.factor"):
            closure -= d
    s = lambda key: ns.get(key, 0) / 1e9  # noqa: E731
    return {
        "localdata.place_sets_s": s("localdata.place_sets"),
        "localdata.delta_v_s": s("localdata.delta_v"),
        "localdata.delta_searches": searches,
        "elliptic.division_polynomial_s": s("elliptic.division_polynomial"),
        "polynomial.yun_s": s("polynomial.yun"),
        "factorization.factor_s": s("factorization.factor"),
        "factorization.factors": factors,
        "galoisimage.stable_subgroups_s": s("galoisimage.stable_subgroups"),
        "galoisimage.closure_s": closure / 1e9,
        "galoisimage.candidate_subsets": subsets,
        "galoisimage.witnesses": witnesses,
        "galoisimage.certificate_s": s("galoisimage.certificate"),
        "galoisimage.certificate_primes": hunt_primes,
        "elliptic.trace_s": hunt_ns / 1e9,
        "lambdabound.self_s": self_ns / 1e9,
        "cli.parse_s": s("cli.parse"),
        "cli.render_s": s("cli.render"),
        # stage spans: what compute_lambda_bound delegates, plus the
        # front end's parsing and rendering around it
        "stages_s": (ns.get("lambdabound.compute", 0) - self_ns
                     + ns.get("cli.parse", 0) + ns.get("cli.render", 0)) / 1e9,
    }
