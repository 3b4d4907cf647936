"""Command-line driver: single runs, NDJSON batches, two output formats.

Run mode is implicit when the first argument is a flag:

    fineselmer --curve 0,-1,1,-7820,-263580 --p 5 --field Q

Batch mode takes a file of newline-delimited job objects and emits one
compact JSON report per line, in input order, each as soon as it and
every line before it are done, with a summary count on stderr.  Exit
codes: 0 = bound emitted, 2 = blocked (a required hypothesis is refuted),
3 = input error or a stdout closed before the output was written.  In
batch mode the worst per-job code is returned, but a bad job, a failing
job or a dead worker never costs another line.

The JSON report is byte-stable for a fixed input and package version:
keys appear in a fixed order, every integer is an exact decimal string,
and every computed number carries a provenance tag ("computed-exact",
"conservative", or "asserted").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .elliptic import LADDER_MAX, WeierstrassModel
from .lambdabound import (ASSUMPTION_TOKENS, LambdaBoundReport, LocalTerm,
                          compute_lambda_bound)
from .localdata import SUPPORTED_FIELDS

_FORMATS = ("json", "text", "both")

_JOB_KEYS = {"curve", "label", "p", "field", "g_table", "assume", "dim_y",
             "dim_z"}

_WEAKNESS = {"computed-exact": 0, "conservative": 1, "asserted": 2}


class CliError(Exception):
    """Bad input; rendered as a diagnostic and exit code 3."""


@dataclass(frozen=True)
class JobSpec:
    a_invariants: tuple[int, int, int, int, int]
    p: int
    field: str = "Q"
    label: str | None = None
    assume: tuple[str, ...] = ()
    dim_y: int | None = None
    dim_z: int | None = None
    g_table: tuple[dict, ...] | None = None


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------


def _parse_int(value, what: str) -> int:
    # bool is an int subclass, and True would otherwise pass silently
    if isinstance(value, bool):
        raise CliError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value.strip(), 10)
        except ValueError:
            raise CliError(f"{what} must be an integer, got {value!r}") from None
    raise CliError(f"{what} must be an integer, got {type(value).__name__}")


def parse_curve(spec) -> tuple[int, int, int, int, int]:
    """Five a-invariants from '0,-1,1,-7820,-263580' or a list."""
    if isinstance(spec, str):
        parts = [s for s in spec.split(",")]
    elif isinstance(spec, (list, tuple)):
        parts = list(spec)
    else:
        raise CliError(f"curve must be a comma string or a list, got {type(spec).__name__}")
    if len(parts) != 5:
        raise CliError(f"curve needs exactly 5 a-invariants, got {len(parts)}")
    return tuple(_parse_int(x, "a-invariant") for x in parts)  # type: ignore[return-value]


def _parse_g_table(rows, where: str) -> tuple[dict, ...]:
    if not isinstance(rows, list):
        raise CliError(f"{where}: g table must be a JSON list of rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or "residue_char" not in row or "g" not in row:
            raise CliError(f"{where}: row {i} needs residue_char and g")
        extra = set(row) - {"residue_char", "residue_degree", "g"}
        if extra:
            raise CliError(f"{where}: row {i} has unknown keys {sorted(extra)}")
        out.append({
            "residue_char": _parse_int(row["residue_char"], f"{where}: row {i} residue_char"),
            "residue_degree": _parse_int(row.get("residue_degree", 1),
                                         f"{where}: row {i} residue_degree"),
            "g": _parse_int(row["g"], f"{where}: row {i} g"),
        })
    return tuple(out)


def _load_json(data: bytes):
    """One JSON document from UTF-8 bytes; any way it fails is a CliError."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise CliError(f"not valid UTF-8 ({e.reason} at byte {e.start})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(f"not valid JSON ({e.msg})") from None
    except ValueError:  # json.loads raises it for an over-long integer
        raise CliError(
            f"not valid JSON (integer literal over "
            f"{sys.get_int_max_str_digits()} digits)") from None
    except RecursionError:
        raise CliError("not valid JSON (nested too deeply)") from None


def _load_g_table_file(path: str) -> tuple[dict, ...]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise CliError(f"cannot read g table {path}: {e}") from None
    try:
        rows = _load_json(data)
    except CliError as e:
        raise CliError(f"{path}: {e}") from None
    return _parse_g_table(rows, path)


def _validate_job(job: JobSpec) -> JobSpec:
    if job.field not in SUPPORTED_FIELDS:
        raise CliError(f"field must be one of {SUPPORTED_FIELDS}, got {job.field!r}")
    for token in job.assume:
        if token not in ASSUMPTION_TOKENS:
            raise CliError(f"unknown assumption {token!r}; known: "
                           + ", ".join(sorted(ASSUMPTION_TOKENS)))
    return job


def job_from_dict(raw: dict, where: str) -> JobSpec:
    """JobSpec from one parsed NDJSON object; strict about keys."""
    if not isinstance(raw, dict):
        raise CliError(f"{where}: job must be a JSON object")
    unknown = set(raw) - _JOB_KEYS
    if unknown:
        raise CliError(f"{where}: unknown job keys {sorted(unknown)}")
    if "curve" not in raw or "p" not in raw:
        raise CliError(f"{where}: job needs at least curve and p")
    g_table = raw.get("g_table")
    if isinstance(g_table, str):
        g_table = _load_g_table_file(g_table)
    elif g_table is not None:
        g_table = _parse_g_table(g_table, where)
    assume = raw.get("assume", [])
    if isinstance(assume, str):
        assume = [assume]
    if not isinstance(assume, list):
        raise CliError(f"{where}: assume must be a list of tokens")
    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise CliError(f"{where}: label must be a string")
    dim_y = raw.get("dim_y")
    dim_z = raw.get("dim_z")
    return _validate_job(JobSpec(
        a_invariants=parse_curve(raw["curve"]),
        p=_parse_int(raw["p"], f"{where}: p"),
        field=raw.get("field", "Q"),
        label=label,
        assume=tuple(str(t) for t in assume),
        dim_y=None if dim_y is None else _parse_int(dim_y, f"{where}: dim_y"),
        dim_z=None if dim_z is None else _parse_int(dim_z, f"{where}: dim_z"),
        g_table=g_table,
    ))


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def _num(value: int, provenance: str) -> dict:
    return {"value": str(value), "provenance": provenance}


def _public_provenance(raw: str) -> str:
    # the report vocabulary is fixed; internal "user-supplied" is a claim
    # the user made, which the schema calls asserted
    return "asserted" if raw == "user-supplied" else raw


def _term_provenance(term: LocalTerm) -> str:
    if term.role == "S0":
        return _public_provenance(term.g_provenance)
    if term.role == "S_p":
        return _public_provenance(term.delta_provenance)
    return "computed-exact"


def _place_entry(term: LocalTerm) -> dict:
    return {
        "label": term.label,
        "residue_char": str(term.residue_char),
        "residue_degree": str(term.residue_degree),
        "role": term.role,
        "reduction": term.reduction,
        "split": term.split,
        "g": _num(term.g, _public_provenance(term.g_provenance)),
        "delta": None if term.delta is None
        else _num(term.delta, _public_provenance(term.delta_provenance)),
        "contribution": _num(term.contribution, _term_provenance(term)),
    }


def report_to_dict(report: LambdaBoundReport, job: JobSpec) -> dict:
    """The JSON form: fixed key order, integers as decimal strings."""
    inv = report.global_invariants
    included = report.route == "with-global-dims"

    bound = None
    if report.bound is not None:
        prov = "computed-exact"
        for term in report.terms:
            if term.role == "S":
                continue
            p_ = _term_provenance(term)
            if _WEAKNESS[p_] > _WEAKNESS[prov]:
                prov = p_
        if included:
            prov = "asserted"
        bound = _num(report.bound, prov)

    if job.g_table is not None:
        extension = {"kind": "user", "g_table": [
            {"residue_char": str(r["residue_char"]),
             "residue_degree": str(r["residue_degree"]),
             "g": str(r["g"])} for r in job.g_table]}
    else:
        extension = {"kind": "cyclotomic"}

    return {
        "curve": {
            "a_invariants": [str(a) for a in job.a_invariants],
            "label": job.label,
        },
        "p": str(report.p),
        "field": report.field,
        "extension": extension,
        "places": [_place_entry(t) for t in report.terms],
        "global_invariants": {
            "dim_y": _num(inv.dim_y, "asserted"),
            "dim_z": _num(inv.dim_z, "asserted"),
            "origin": inv.provenance,
            "contribution": _num(2 * inv.dim_y + inv.dim_z, "asserted"),
            "included_in_bound": included,
        },
        "ledger": [{"id": e.id, "status": e.status, "detail": e.detail}
                   for e in report.ledger],
        "bound": bound,
        "strength": report.strength,
        "notes": list(report.notes)
        + ([f"bound assembled from the {report.route} route"]
           if report.route else []),
    }


def render_json(report: LambdaBoundReport, job: JobSpec, *,
                compact: bool = False) -> str:
    doc = report_to_dict(report, job)
    if compact:
        return json.dumps(doc, separators=(",", ":"))
    return json.dumps(doc, indent=2)


def render_text(report: LambdaBoundReport, job: JobSpec) -> str:
    lines = []
    curve = ",".join(str(a) for a in job.a_invariants)
    head = f"curve [{curve}]  p = {report.p}  field = {report.field}"
    if job.label:
        head += f"  ({job.label})"
    lines.append(head)
    if report.bound is None:
        lines.append("bound: blocked (no route applies)")
    else:
        lines.append(f"bound: lambda <= {report.bound}   "
                     f"[{report.strength}, {report.route} route]")
    lines.append("places:")
    lines.append("  label        role  reduction  split  g  delta  term")
    for t in report.terms:
        row = (f"  {t.label:<11}  {t.role:<4}  {t.reduction:<9}  "
               f"{_yn(t.split):<5}  {_dash(t.g)}  {_dash(t.delta):<5}  "
               f"{t.contribution}")
        lines.append(row)
    if not report.terms:
        lines.append("  (none)")
    inv = report.global_invariants
    lines.append(f"global: 2*dim_y + dim_z = {2 * inv.dim_y + inv.dim_z} "
                 f"({inv.provenance})")
    lines.append("hypotheses:")
    for e in report.ledger:
        lines.append(f"  {e.id:<26} {e.status:<12} {e.detail}")
    lines.append("notes:")
    for n in report.notes:
        lines.append(f"  - {n}")
    return "\n".join(lines)


def _yn(v: bool | None) -> str:
    return "-" if v is None else ("yes" if v else "no")


def _dash(v) -> str:
    return "-" if v is None else str(v)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def run_job(job: JobSpec) -> tuple[int, LambdaBoundReport]:
    """Execute one job; CliError propagates input problems (exit 3)."""
    try:
        model = WeierstrassModel(*job.a_invariants)
        report = compute_lambda_bound(
            model, job.p, job.field,
            dim_y=job.dim_y, dim_z=job.dim_z,
            assume=job.assume,
            g_table=job.g_table)
    except ValueError as e:
        raise CliError(str(e)) from None
    return (2 if report.strength == "blocked" else 0), report


def _emit(report: LambdaBoundReport, job: JobSpec, fmt: str,
          out=None) -> None:
    out = out if out is not None else sys.stdout
    if fmt in ("json", "both"):
        print(render_json(report, job), file=out)
    if fmt in ("text", "both"):
        # text goes to stderr under "both" so stdout stays machine-clean
        dest = sys.stderr if fmt == "both" else out
        print(render_text(report, job), file=dest)


def _line_error(n: int, msg: str) -> tuple[int, int, str]:
    return n, 3, json.dumps({"error": f"line {n}: {msg}", "line": n},
                            separators=(",", ":"))


def _batch_line(item: tuple[int, bytes]) -> tuple[int, int, str]:
    """Worker: (line number, raw bytes) -> (line number, code, output)."""
    n, raw = item
    try:
        job = job_from_dict(_load_json(raw), f"line {n}")
        code, report = run_job(job)
        return n, code, render_json(report, job, compact=True)
    except CliError as e:
        return _line_error(n, str(e).removeprefix(f"line {n}: "))
    except Exception as e:  # a defect in one job must not cost the others
        return _line_error(n, f"internal error ({type(e).__name__}: {e})")


def _write_line(result: tuple[int, int, str], counts: dict[int, int]) -> None:
    _, code, output = result
    # flushed per line, so a reader sees each result as soon as it and
    # every line before it are done
    print(output, flush=True)
    counts[code] += 1


def _stdout_to_devnull() -> None:
    # whatever stdout still holds, or is written to it later, is flushed
    # at interpreter exit; sent to devnull, that flush cannot raise a
    # second BrokenPipeError
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # not a file, nothing flushes to a pipe
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def run_batch(path: str, jobs: int) -> int:
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
    except OSError as e:
        raise CliError(f"cannot read batch file: {e}") from None
    # bytes split at \n, \r\n and \r alone, as text mode does; each line is
    # decoded on its own, so one that is not UTF-8 gets its own error line
    work = [(n, line) for n, line in enumerate(lines, start=1)
            if line.decode("utf-8", "replace").strip()]
    counts = {0: 0, 2: 0, 3: 0}
    try:
        if jobs > 1 and len(work) > 1:
            # imported here: it pulls in multiprocessing, pickle and socket,
            # which no other path needs
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            # the pool forks all its workers at the first submit: never
            # more than there are lines
            with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
                futures = [pool.submit(_batch_line, item) for item in work]
                try:
                    for (n, _), future in zip(work, futures):   # input order
                        try:
                            result = future.result()
                        except BrokenProcessPool:
                            result = _line_error(
                                n, "worker process died before this job "
                                   "finished")
                        _write_line(result, counts)
                except BrokenPipeError:
                    # leaving the with block would otherwise wait for every
                    # queued job
                    pool.shutdown(cancel_futures=True)
                    raise
        else:
            for item in work:
                _write_line(_batch_line(item), counts)
    except BrokenPipeError:
        _stdout_to_devnull()
        print("error: stdout closed before every result was written",
              file=sys.stderr)
        return 3
    print(f"{counts[0]} ok / {counts[2]} blocked / {counts[3]} error",
          file=sys.stderr)
    return max((code for code, k in counts.items() if k), default=0)


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _build_run_parser() -> _Parser:
    q = _Parser(prog="fineselmer", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    q.add_argument("--curve", required=True,
                   help="five comma-separated a-invariants")
    q.add_argument("--label", help="free-text curve label, echoed in output")
    q.add_argument("--p", required=True, help=f"odd prime, 3 <= p <= {LADDER_MAX}")
    q.add_argument("--field", default="Q", choices=SUPPORTED_FIELDS)
    q.add_argument("--g-table", dest="g_table", metavar="PATH",
                   help="JSON decomposition table of a user Z_p-extension; "
                        "without it the extension is cyclotomic")
    q.add_argument("--assume", action="append", default=[],
                   metavar="HYPOTHESIS",
                   help="accept responsibility for a hypothesis; repeatable")
    q.add_argument("--dim-y", dest="dim_y", help="residual dimension of Y")
    q.add_argument("--dim-z", dest="dim_z", help="residual dimension of Z")
    q.add_argument("--format", default="json", choices=_FORMATS)
    return q


def _build_batch_parser() -> _Parser:
    q = _Parser(prog="fineselmer batch",
                description="Run newline-delimited JSON jobs.")
    q.add_argument("file", help="NDJSON job file")
    q.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1)")
    return q


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "batch":
            ns = _build_batch_parser().parse_args(argv[1:])
            if ns.jobs < 1:
                raise CliError("--jobs must be at least 1")
            return run_batch(ns.file, ns.jobs)
        if argv and argv[0] == "run":
            argv = argv[1:]
        ns = _build_run_parser().parse_args(argv)
        job = _validate_job(JobSpec(
            a_invariants=parse_curve(ns.curve),
            p=_parse_int(ns.p, "p"),
            field=ns.field,
            label=ns.label,
            assume=tuple(ns.assume),
            dim_y=None if ns.dim_y is None else _parse_int(ns.dim_y, "dim_y"),
            dim_z=None if ns.dim_z is None else _parse_int(ns.dim_z, "dim_z"),
            g_table=_load_g_table_file(ns.g_table) if ns.g_table else None,
        ))
        code, report = run_job(job)
        try:
            _emit(report, job, ns.format)
            sys.stdout.flush()   # a closed pipe raises here, not at exit
        except BrokenPipeError:
            _stdout_to_devnull()
            print("error: stdout closed before the report was written",
                  file=sys.stderr)
            return 3
        return code
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
