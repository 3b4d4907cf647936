#!/usr/bin/env python3
"""The fineselmer benchmark: four workloads, timed end to end and per layer.

Run from the root of a checkout; the package is imported from ``src/``,
so nothing needs installing:

    python3 bench/run.py --workload isogeny-lines --seed 1 --seconds 20 --trace 0

Every line but the last is a readable report.  The last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
measured with nothing wrapped; with ``--trace 1`` the run measures the
same jobs untraced and then traced, and the metrics are the per-layer
ones (see tracing.py).  End-to-end times are given at the reference
speed of the host, sampled while the work runs (see hostspeed.py), so
that they follow the code and not the load of other tenants of the host;
per-layer times are raw.  Every output is checked against the frozen
reference in corpus.py; a crash, a lost batch line, a wrong verdict or a
changed report byte counts as a failed job.  METRICS.md documents each
metric, each workload and the baseline numbers.

The harness is a closed loop with one client.  The library workloads
run their jobs one after another in this process; batch-mixed launches
``fineselmer.cli batch`` as a child (under sampled.py), at ``--jobs 1``
and at ``--jobs`` = the number of usable cores.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import corpus
import hostspeed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# (name, unit); every workload reports all of them
END_TO_END = (
    ("jobs_per_s", "jobs/s"),
    ("jobs_per_s.serial", "jobs/s"),
    ("job_s.p50", "s"),
    ("job_s.p90", "s"),
    ("first_result_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SETUP_REPEATS = 11
# the stage spans must account for the untraced job time within this share
COVERAGE_SHARE = 0.10
# copies of the batch pool in one batch file: 5 x 53 = 265 lines
BATCH_CYCLES = 5
# a batch child that outlives this is killed and its missing lines fail
CHILD_TIMEOUT_S = 120.0

# a cheap job run untimed first, to warm lazy imports and caches
WARM_JOB = corpus.ISOGENY_LINES[4]

_IMAGE_CLASSES = ("TwoStableSubgroups", "OneStableSubgroup",
                  "SurjectiveCertified", "Inconclusive")


class Outcome:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)


# ---------------------------------------------------------------------------
# reference checks
# ---------------------------------------------------------------------------


def _tag(job: corpus.Job) -> str:
    return f"{job.label}@{job.p} {job.field}"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def image_class(report) -> str:
    entry = next(e for e in report.ledger if e.id == "image-condition")
    head = entry.detail.split(":", 1)[0]
    return head if head in _IMAGE_CLASSES else "not-evaluated"


def check_report(job: corpus.Job, report, text: str) -> str | None:
    """None if verdict and report bytes match the reference, else why not."""
    got = (image_class(report), report.bound, report.strength, report.route)
    want = (job.image, job.bound, job.strength, job.route)
    if got != want:
        return f"{_tag(job)}: verdict {got}, expected {want}"
    if _digest(text) != job.sha256:
        return f"{_tag(job)}: report bytes differ from the reference"
    return None


def error_line(n: int, message: str) -> str:
    """The batch front end's output for a rejected line n."""
    return json.dumps({"error": f"line {n}: {message}", "line": n},
                      separators=(",", ":"))


def check_line(expected, n: int, line: str | None) -> str | None:
    """Check output line n of a batch: a report digest or an exact error."""
    if line is None:
        return f"line {n}: lost"
    if isinstance(expected, corpus.Job):
        if _digest(line) != expected.sha256:
            return f"line {n} ({_tag(expected)}): report bytes differ"
    elif line != error_line(n, expected):
        return f"line {n}: expected error {expected!r}, got {line[:80]!r}"
    return None


# ---------------------------------------------------------------------------
# statistics and resources
# ---------------------------------------------------------------------------


def p90(samples: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(samples)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill a child started in its own session, with any pool workers."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _sampled(speed: hostspeed.HostSpeed, where: str, module: str,
             *args: str) -> list[str]:
    """Command that runs `python3 -m module args` under sampled.py."""
    return [sys.executable, str(BENCH / "sampled.py"), str(speed.logs), where,
            module, *args]


def setup_seconds(corpus_name: str, workers: int,
                  speed: hostspeed.HostSpeed) -> float:
    """Median time of fresh processes that import and load (see
    setup_probe.py), at the reference host speed."""
    cmd = _sampled(speed, "main", "setup_probe", corpus_name, str(workers))
    times = []
    speed.burst()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                                start_new_session=True)
        # a blocking wait: Popen.wait(timeout) polls, which rounds the
        # exit time up by tens of milliseconds
        killer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc,))
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        end = time.perf_counter()
        speed.burst()
        speed.load()
        times.append(speed.seconds(start, end, subtract=False))
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
    return statistics.median(times)


@dataclass
class BatchRun:
    start: float          # perf_counter at launch, first line and exit
    first: float
    end: float
    lines: list[str]
    returncode: int
    stderr: str
    maxrss_mb: float


def run_cli_batch(path: Path, jobs: int, work: Path,
                  speed: hostspeed.HostSpeed) -> BatchRun:
    """Launch `fineselmer batch`, timing the first line and the whole run,
    with the processes that run the jobs sampled for host speed."""
    cmd = _sampled(speed, "main" if jobs == 1 else "workers",
                   "fineselmer.cli",
                   "batch", str(path), "--jobs", str(jobs))
    with tempfile.TemporaryFile(dir=work) as err:
        speed.burst()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                                stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True)
        killer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc,))
        killer.start()
        first = None
        lines = []
        try:
            for raw in proc.stdout:
                if first is None:
                    first = time.perf_counter()
                lines.append(raw.decode().rstrip("\n"))
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        except BaseException:
            _kill_group(proc)
            proc.wait()
            raise
        finally:
            killer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    speed.burst()
    speed.load()
    return BatchRun(start, end if first is None else first, end, lines,
                    proc.returncode, stderr, usage.ru_maxrss / 1024)


# ---------------------------------------------------------------------------
# library workloads: compute_lambda_bound + render_json in this process
# ---------------------------------------------------------------------------


def _library_job(job: corpus.Job, spec,
                 outcome: Outcome) -> tuple[float, float]:
    """Start and end of one job: compute_lambda_bound + render_json."""
    from fineselmer import cli, lambdabound
    from fineselmer.elliptic import WeierstrassModel

    start = time.perf_counter()
    try:
        report = lambdabound.compute_lambda_bound(
            WeierstrassModel(*job.curve), job.p, job.field)
        text = cli.render_json(report, spec, compact=True)
    except Exception as e:  # a crash fails this job, not the run
        outcome.record(f"{_tag(job)}: {type(e).__name__}: {e}")
        return start, time.perf_counter()
    end = time.perf_counter()
    outcome.record(check_report(job, report, text))
    return start, end


def _paired(run_one, items, tracer) -> tuple[list, list]:
    """Untraced (start, end) per item; with a tracer, each item runs
    again traced right after, so the pair sees the same machine state."""
    untraced, traced = [], []
    for item in items:
        untraced.append(run_one(item))
        if tracer is not None:
            with tracer:
                traced.append(run_one(item))
    return untraced, traced


def _passes(run_pass, seconds: float) -> list:
    """Whole passes while the next one, at the mean pass time so far,
    would end within `seconds`; at least one.  A run then takes about
    `seconds`, or one pass where a pass is longer."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_pass())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def _job_time_metrics(samples: list[float],
                      notes: list[str]) -> dict[str, float]:
    high = p90(samples)
    notes.append(f"job_s over {len(samples)} samples; "
                 f"{sum(s > high for s in samples)} lie beyond job_s.p90")
    return {"job_s.p50": statistics.median(samples), "job_s.p90": high}


def _wall(intervals) -> float:
    return sum(end - start for start, end in intervals)


def _trace_metrics(layers: dict, untraced_s: float, traced_s: float,
                   rounds: int) -> dict[str, float]:
    """Per-round per-layer values plus tracing overhead and coverage."""
    stages = layers.pop("stages_s")
    out = {k: v / rounds for k, v in layers.items()}
    out["trace.overhead_s"] = (traced_s - untraced_s) / rounds
    out["trace.coverage"] = stages / untraced_s
    return out


def _note_speed(speed: hostspeed.HostSpeed, notes: list[str]) -> None:
    notes.append(f"times at the reference host speed; one host-speed unit "
                 f"took {speed.median_unit_s() * 1e3:.3f} ms (median), "
                 f"{hostspeed.REF_UNIT_S * 1e3:.3f} ms at the reference")


def _note_missing(tracer: tracing.Tracer, notes: list[str]) -> None:
    if tracer.missing:
        notes.append("WARNING: call sites gone, their spans read 0: "
                     + ", ".join(sorted(tracer.missing)))


def library_workload(corpus_name: str):
    """The corpus runs in its fixed order; no input depends on the seed."""
    def run(seed: int, seconds: float, trace: bool, work: Path,
            outcome: Outcome, notes: list[str]) -> dict[str, float]:
        from fineselmer import cli

        jobs = getattr(corpus, corpus_name)
        speed = hostspeed.HostSpeed(work / "samples")
        setup = setup_seconds(corpus_name, 1, speed)
        specs = {j: cli.job_from_dict(j.as_dict(), j.label)
                 for j in jobs + (WARM_JOB,)}
        _library_job(WARM_JOB, specs[WARM_JOB], Outcome())
        tracer = tracing.Tracer() if trace else None

        def one_pass():
            start = time.perf_counter()
            untraced, traced = _paired(
                lambda job: _library_job(job, specs[job], outcome), jobs,
                tracer)
            return untraced, traced, (start, time.perf_counter())

        if trace:
            passes = _passes(one_pass, seconds)
            out = _trace_metrics(tracing.layer_totals(tracer.spans),
                                 sum(_wall(p[0]) for p in passes),
                                 sum(_wall(p[1]) for p in passes),
                                 len(passes))
            out["cli.pool_s"] = 0.0
            _note_missing(tracer, notes)
            return out
        with speed.sampling():
            passes = _passes(one_pass, seconds)
        samples = [speed.seconds(*job) for p in passes for job in p[0]]
        rate = len(samples) / sum(speed.seconds(*p[2]) for p in passes)
        notes.append(f"{len(samples)} jobs in {len(passes)} passes")
        _note_speed(speed, notes)
        return {
            "jobs_per_s": rate,
            "jobs_per_s.serial": rate,
            **_job_time_metrics(samples, notes),
            "first_result_s": statistics.median(
                speed.seconds(*p[0][0]) for p in passes),
            "setup_s": setup,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    return run


# ---------------------------------------------------------------------------
# batch-mixed: the CLI batch subcommand as a child process
# ---------------------------------------------------------------------------


def make_batch(seed: int) -> tuple[list[str], list]:
    """Batch lines and their expected outputs, shuffled by the seed.

    The multiset of lines is fixed (BATCH_CYCLES copies of the generic,
    blocked and malformed pools), so seeds change the order, not the
    amount of work.
    """
    pool = ([(json.dumps(j.as_dict()), j)
             for j in corpus.BATCH_GENERIC + corpus.BATCH_BLOCKED]
            + list(corpus.BATCH_MALFORMED))
    items = pool * BATCH_CYCLES
    random.Random(seed).shuffle(items)
    return [line for line, _ in items], [want for _, want in items]


def _batch_verdict(n: int, raw: str) -> str:
    """What `batch` prints for line n, through the public functions."""
    from fineselmer import cli

    try:
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as e:
            raise cli.CliError(f"not valid JSON ({e.msg})") from None
        job = cli.job_from_dict(obj, f"line {n}")
        _, report = cli.run_job(job)
        return cli.render_json(report, job, compact=True)
    except cli.CliError as e:
        msg = str(e)
        prefix = f"line {n}: "
        return error_line(n, msg[len(prefix):] if msg.startswith(prefix)
                          else msg)


def _inprocess_line(n: int, raw: str, want,
                    outcome: Outcome) -> tuple[float, float]:
    start = time.perf_counter()
    try:
        line = _batch_verdict(n, raw)
    except Exception as e:  # a crash fails this line, not the run
        outcome.record(f"line {n}: {type(e).__name__}: {e}")
        return start, time.perf_counter()
    end = time.perf_counter()
    outcome.record(check_line(want, n, line))
    return start, end


def _check_batch(run: BatchRun, expected, outcome: Outcome) -> None:
    for n, want in enumerate(expected, start=1):
        got = run.lines[n - 1] if n <= len(run.lines) else None
        outcome.record(check_line(want, n, got))
    if len(run.lines) > len(expected):
        outcome.record(f"batch printed {len(run.lines)} lines for "
                       f"{len(expected)} jobs")


def hostile_probe(work: Path, speed: hostspeed.HostSpeed,
                  notes: list[str]) -> None:
    """Run the > 4300-digit line among good ones; report what was lost.

    Not part of the timed work or of the failure count: today the line
    kills the whole batch (ROADMAP 5a), and the probe shows that defect
    rather than hiding it.  A fixed front end would print an error line
    for it and keep every other line, which reads here as lost = 0.
    """
    good = [corpus.BATCH_GENERIC[0], corpus.BATCH_GENERIC[2],
            corpus.BATCH_BLOCKED[0]]
    lines = [json.dumps(j.as_dict()) for j in good[:2]]
    lines += [corpus.hostile_line(), json.dumps(good[2].as_dict()),
              corpus.BATCH_MALFORMED[0][0]]
    expected = good[:2] + [None, good[2], corpus.BATCH_MALFORMED[0][1]]
    path = work / "hostile.ndjson"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    run = run_cli_batch(path, 1, work, speed)
    lost = wrong = 0
    for n, want in enumerate(expected, start=1):
        got = run.lines[n - 1] if n <= len(run.lines) else None
        if got is None:
            lost += 1
        elif want is None:  # any error line for n; its wording is free
            wrong += not (got.startswith('{"error":')
                          and got.endswith(f'"line":{n}}}'))
        else:
            wrong += check_line(want, n, got) is not None
    notes.append(
        f"hostile-input probe: {len(expected)} lines, {lost} lost, "
        f"{wrong} wrong, failed_ratio {(lost + wrong) / len(expected):.2f}, "
        f"exit {run.returncode}, traceback "
        f"{'yes' if 'Traceback' in run.stderr else 'no'}")


def batch_workload(seed: int, seconds: float, trace: bool, work: Path,
                   outcome: Outcome, notes: list[str]):
    workers = _nproc()
    speed = hostspeed.HostSpeed(work / "samples")
    setup = setup_seconds("BATCH_GENERIC", workers, speed)
    lines, expected = make_batch(seed)
    path = work / "batch.ndjson"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    items = list(enumerate(zip(lines, expected), start=1))

    def inprocess(tracer=None):
        return _paired(lambda item: _inprocess_line(item[0], *item[1], outcome),
                       items, tracer)

    # warm this process's imports and caches outside the timing
    for n, (raw, want) in items[:5]:
        _inprocess_line(n, raw, want, Outcome())

    if trace:
        tracer = tracing.Tracer()

        def one_round():
            untraced, traced = inprocess(tracer)
            parallel = run_cli_batch(path, workers, work, speed)
            _check_batch(parallel, expected, outcome)
            return (_wall(untraced), _wall(traced),
                    parallel.end - parallel.start - _wall(untraced) / workers)

        rounds = _passes(one_round, seconds)
        out = _trace_metrics(tracing.layer_totals(tracer.spans),
                             sum(r[0] for r in rounds),
                             sum(r[1] for r in rounds), len(rounds))
        out["cli.pool_s"] = statistics.median(r[2] for r in rounds)
        _note_missing(tracer, notes)
        return out

    # the first pool launched in a run was seen to take a third longer
    # than the ones after it; launch one untimed
    _check_batch(run_cli_batch(path, workers, work, speed), expected, outcome)

    # one in-process pass gives the job_s samples; the batch children
    # fill the rest of the run
    start = time.perf_counter()
    with speed.sampling():
        untraced = inprocess()[0]
    samples = [speed.seconds(*line) for line in untraced]

    def one_round():
        serial = run_cli_batch(path, 1, work, speed)
        _check_batch(serial, expected, outcome)
        parallel = run_cli_batch(path, workers, work, speed)
        _check_batch(parallel, expected, outcome)
        return serial, parallel

    def rate(run: BatchRun) -> float:
        return len(lines) / speed.seconds(run.start, run.end, subtract=False)

    rounds = _passes(one_round, seconds - (time.perf_counter() - start))
    hostile_probe(work, speed, notes)
    notes.append(f"{len(lines)} lines per batch, {len(rounds)} rounds at "
                 f"--jobs 1 and --jobs {workers}; job_s from one in-process "
                 "pass")
    _note_speed(speed, notes)
    return {
        "jobs_per_s": statistics.median(rate(r[1]) for r in rounds),
        "jobs_per_s.serial": statistics.median(rate(r[0]) for r in rounds),
        **_job_time_metrics(samples, notes),
        "first_result_s": statistics.median(
            speed.seconds(r[1].start, r[1].first, subtract=False)
            for r in rounds),
        "setup_s": setup,
        "peak_rss_mb": max(r[i].maxrss_mb for r in rounds for i in (0, 1)),
    }


WORKLOADS = {
    "surjective-p11": library_workload("SURJECTIVE_P11"),
    "isogeny-lines": library_workload("ISOGENY_LINES"),
    "inconclusive-cm": library_workload("INCONCLUSIVE_CM"),
    "batch-mixed": batch_workload,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _report(args, metrics: dict, units: dict, coverage: float | None,
            outcome: Outcome, notes: list[str]) -> None:
    print(f"fineselmer benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    moves = {name: m for name, _, m in tracing.PER_LAYER}
    for name, value in metrics.items():
        extra = f"  moves: {moves[name]}" if name in moves else ""
        print(f"  {name:<32} {value:>14.6g} {units[name]}{extra}")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"  {'failed_ratio':<32} {ratio:>14.6g} ratio "
          f"({outcome.failed} of {outcome.attempted})")
    if coverage is not None:
        verdict = ("ok" if abs(coverage - 1) <= COVERAGE_SHARE else
                   "WARNING: spans and untraced job time disagree")
        print(f"  stage spans cover {coverage:.1%} of the untraced job time "
              f"(allowed share {COVERAGE_SHARE:.0%}): {verdict}")
    for note in notes:
        print(f"  {note}")
    for problem in outcome.problems:
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fineselmer" / "__init__.py").is_file():
        print(f"error: no fineselmer sources under {SRC}; run from the root "
              "of a fineselmer checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    root = ROOT / ".bench_work"
    root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root))
    outcome = Outcome()
    notes: list[str] = []
    try:
        metrics = WORKLOADS[args.workload](args.seed, args.seconds,
                                           bool(args.trace), work, outcome,
                                           notes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            root.rmdir()
    units = ({n: u for n, u, _ in tracing.PER_LAYER} if args.trace
             else dict(END_TO_END))
    coverage = metrics.get("trace.coverage")
    metrics = {name: metrics[name] for name in units}
    _report(args, metrics, units, coverage, outcome, notes)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
