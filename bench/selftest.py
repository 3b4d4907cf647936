#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a checkout:

    python3 bench/selftest.py

It checks that BENCHMARK.json keeps to its format and names the metrics
run.py prints; that the frozen reference digests agree with
tests/golden where the two overlap; that one corrupted report byte fails
the correctness check; and that every workload runs once at minimum
size (one job, or one copy of the batch pool), untraced and traced, and
ends with a well-formed result line.  The surjective-p11 job alone takes
tens of seconds, so the whole test takes a minute or two.  Exits 1 on
any failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys

import corpus
import run
import tracing

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(spec["command"] == ["python3", "bench/run.py"]
          and spec["paths"] == ["bench"], "command and paths")
    check(isinstance(spec["run_seconds"], int)
          and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(run.WORKLOADS), "workloads match run.py")
    check(all(set(w) == {"name", "why"} and len(w["why"]) <= 200
              and "\n" not in w["why"] for w in spec["workloads"]),
          "each workload has a one-line why of at most 200 characters")
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    check(all(NAME.fullmatch(n) for n in all_names)
          and len(set(all_names)) == len(all_names),
          "names match [A-Za-z0-9_.-]+ and are unique")
    check(all(UNIT.fullmatch(m["unit"]) for m in metrics), "units")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]]
          == list(run.END_TO_END), "end_to_end metrics match run.py")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]]
          == [(n, u) for n, u, _ in tracing.PER_LAYER],
          "per_layer metrics match tracing.py")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(all(0 < b <= 0.25 for b in bounds.values())
          and bounds["setup_s"] == max(bounds.values()),
          "bounds within 0.25, setup_s has the largest")


def check_golden_overlap() -> None:
    golden = run.ROOT / "tests" / "golden"
    if not golden.is_dir():
        print("skip golden overlap: no tests/golden in this checkout")
        return
    jobs = (golden / "jobs.ndjson").read_text().splitlines()
    reports = (golden / "reports.ndjson").read_text().splitlines()
    by_key = {(tuple(j.curve), j.p, j.field, j.label): j
              for j in corpus.ISOGENY_LINES}
    matched = 0
    for raw, report in zip(jobs, reports):
        obj = json.loads(raw)
        job = by_key.get((tuple(obj["curve"]), obj["p"], obj["field"],
                          obj.get("label")))
        if job is not None:
            matched += 1
            check(run.check_line(job, 1, report) is None,
                  f"{job.label}@{job.p} {job.field} digest equals golden")
    check(matched > 0, "corpus overlaps tests/golden")


def check_corruption_detected() -> None:
    from fineselmer import cli, lambdabound
    from fineselmer.elliptic import WeierstrassModel

    job = corpus.ISOGENY_LINES[4]
    spec = cli.job_from_dict(job.as_dict(), job.label)
    report = lambdabound.compute_lambda_bound(WeierstrassModel(*job.curve),
                                              job.p, job.field)
    text = cli.render_json(report, spec, compact=True)
    i = len(text) // 2
    bad = text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]
    check(run.check_report(job, report, text) is None,
          "the true report passes")
    check(run.check_report(job, report, bad) is not None,
          "one corrupted report byte fails the library check")
    check(run.check_line(job, 1, bad) is not None,
          "one corrupted report byte fails the batch check")
    check(run.check_line(job, 1, None) is not None, "a lost line fails")
    msg = corpus.BATCH_MALFORMED[0][1]
    check(run.check_line(msg, 3, run.error_line(3, msg)) is None
          and run.check_line(msg, 3, run.error_line(4, msg)) is not None,
          "error lines are checked with their line number")


def run_minimal(workload: str, trace: int) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7",
                         "--seconds", "0", "--trace", str(trace)])
    last = out.getvalue().rstrip("\n").splitlines()[-1]
    result = json.loads(last)
    expected = ([n for n, _ in run.END_TO_END] if trace == 0
                else [n for n, _, _ in tracing.PER_LAYER])
    values = [m["value"] for m in result["metrics"].values()]
    check(code == 0 and set(result) == RESULT_KEYS
          and result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1
          and list(result["metrics"]) == expected
          and all(isinstance(v, (int, float)) and math.isfinite(v)
                  for v in values)
          and (trace == 1 or all(v > 0 for v in values)),
          f"{workload} at minimum size, trace {trace}")


def main() -> int:
    if not (run.SRC / "fineselmer" / "__init__.py").is_file():
        print("error: run from the root of a fineselmer checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    check_benchmark_json()
    check_golden_overlap()
    check_corruption_detected()
    # minimum size: the first job of each corpus, one copy of the batch pool
    for name in ("SURJECTIVE_P11", "ISOGENY_LINES", "INCONCLUSIVE_CM"):
        setattr(corpus, name, getattr(corpus, name)[:1])
    run.BATCH_CYCLES = 1
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            run_minimal(workload, trace)
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
