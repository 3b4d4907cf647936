"""Command-line surface: argument handling, JSON schema, batch mode.

Every invocation goes through main(argv) in-process so exit codes and both
output streams are observable. The JSON layout is pinned byte-for-byte by
golden files; schema-level checks (key order, exact-decimal strings,
provenance vocabulary) run on freshly parsed output so a failure names the
violated rule rather than a byte offset.
"""

import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fineselmer
from fineselmer import cli, factorization, galoisimage, lambdabound, padic
from fineselmer.cli import CliError, main
from fineselmer.elliptic import WeierstrassModel

GOLDEN = Path(__file__).parent / "golden"
CURVE = "0,-1,1,-7820,-263580"
TOP_KEYS = [
    "curve", "p", "field", "extension", "places",
    "global_invariants", "ledger", "bound", "strength", "notes",
]
PROVENANCES = {"computed-exact", "conservative", "asserted"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(fineselmer.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def walk_numbers(node):
    """Yield every {value, provenance} leaf in a report."""
    if isinstance(node, dict):
        if set(node) == {"value", "provenance"}:
            yield node
        else:
            for v in node.values():
                yield from walk_numbers(v)
    elif isinstance(node, list):
        for v in node:
            yield from walk_numbers(v)


# --- run mode ---


def test_run_worked_example_schema(capsys):
    code, out, err = run_cli(capsys, "run", "--curve", CURVE, "--p", "5")
    assert code == 0
    report = json.loads(out)
    assert list(report) == TOP_KEYS
    assert report["p"] == "5"
    assert report["bound"]["value"] == "2"
    assert report["strength"] == "conditional"
    for leaf in walk_numbers(report):
        assert leaf["provenance"] in PROVENANCES
        int(leaf["value"])  # exact decimal string, no floats anywhere
    roles = [pl["role"] for pl in report["places"]]
    assert roles == ["S0", "S_p"]
    assert report["places"][0]["residue_char"] == "11"


def test_run_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "run", "--curve", CURVE, "--p", "5")
    _, second, _ = run_cli(capsys, "run", "--curve", CURVE, "--p", "5")
    assert first == second


def test_run_matches_golden_bytes(capsys):
    _, out, _ = run_cli(
        capsys, "run", "--curve", CURVE, "--label", "11a2", "--p", "5",
    )
    assert out == (GOLDEN / "run_Q.json").read_text()


def test_run_token_is_optional(capsys):
    code_with, out_with, _ = run_cli(capsys, "run", "--curve", CURVE, "--p", "5")
    code_without, out_without, _ = run_cli(capsys, "--curve", CURVE, "--p", "5")
    assert (code_with, out_with) == (code_without, out_without)


def test_text_format_matches_golden_bytes(capsys):
    # over Q(mu_7) the text table lists 2 and 13 once per place
    _, out, _ = run_cli(
        capsys, "run", "--curve", "1,-1,1,-3,3", "--label", "26b1", "--p", "7",
        "--field", "Q(mu_p)", "--format", "text",
    )
    assert out == (GOLDEN / "run_26b1_Qmu7.txt").read_text()


def test_text_format_goes_to_stdout(capsys):
    code, out, err = run_cli(
        capsys, "run", "--curve", CURVE, "--p", "5", "--format", "text",
    )
    assert code == 0
    assert "bound" in out and "{" not in out.splitlines()[0]
    assert err == ""


def test_both_format_splits_streams(capsys):
    code, out, err = run_cli(
        capsys, "run", "--curve", CURVE, "--p", "5", "--format", "both",
    )
    assert code == 0
    json.loads(out)  # stdout stays machine-clean
    assert "bound" in err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_run_closed_stdout_exits_three(fmt):
    # the reading end is closed before the child starts, so its first
    # write to stdout fails whatever the size of the report
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fineselmer.cli", "run", "--curve", CURVE,
             "--p", "5", "--field", "Q(mu_p)", "--format", fmt],
            env=src_env(), stdout=w, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(w)
    err = proc.stderr.decode()
    assert proc.returncode == 3
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.splitlines() == [
        "error: stdout closed before the report was written"]


def test_run_huge_p_exits_three_at_once():
    # 2^89 - 1 is prime but above the range where Miller-Rabin proves
    # it; the cap on p is checked first, so the error names the cap
    proc = subprocess.run(
        [sys.executable, "-m", "fineselmer.cli", "run", "--curve", "0,0,1,-1,0",
         "--p", str(2**89 - 1)],
        env=src_env(), capture_output=True, timeout=10)
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines() == [
        "error: p is capped at 13 by the division-polynomial ladder"]


@pytest.mark.parametrize("p", ["1", "4", "9"])
def test_run_with_p_not_an_odd_prime_names_it(capsys, p):
    code, out, err = run_cli(capsys, "run", "--curve", CURVE, "--p", p)
    assert (code, out) == (3, "")
    assert err.splitlines() == ["error: p must be an odd prime"]


def test_run_with_an_unfactorable_discriminant_exits_three():
    # up to sign the discriminant is 11 times a 119-bit composite with no
    # factor the Pollard-Brent budget finds; trial division did not return
    proc = subprocess.run(
        [sys.executable, "-m", "fineselmer.cli", "run", "--curve",
         "0,0,1,-1,100000000000000003", "--p", "5"],
        env=src_env(), capture_output=True, timeout=10)
    assert proc.returncode == 3
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot factor")


def test_discriminant_with_a_prime_above_2_64_gets_a_report(capsys, deadline):
    # up to sign the discriminant is 60623 * 71260082824314204181, the
    # second a prime between 2^64 and 3.3 * 10^24: Pollard-Brent splits
    # off 60623 and Miller-Rabin proves the rest prime.  The place above
    # p = 5 comes last
    with deadline(10):
        code, out, _ = run_cli(capsys, "run", "--curve", "0,0,1,-1,100000000012",
                               "--p", "5", "--format", "json")
    assert code in (0, 2)
    report = json.loads(out)
    assert [pl["residue_char"] for pl in report["places"]] == [
        "60623", "71260082824314204181", "5"]


def test_blocked_run_exits_two(capsys):
    code, out, _ = run_cli(capsys, "run", "--curve", CURVE, "--p", "11")
    assert code == 2
    report = json.loads(out)
    assert report["bound"] is None
    assert report["strength"] == "blocked"


def test_assumption_on_refuted_hypothesis_is_reported(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--curve", CURVE, "--p", "5",
        "--assume", "image-order-coprime",
    )
    assert code == 0
    report = json.loads(out)
    assert report["bound"]["value"] == "2"
    assert any("ignored" in note for note in report["notes"])
    ledger = {e["id"]: e["status"] for e in report["ledger"]}
    assert ledger["image-condition"] == "refuted"


def test_qmu5_field_itemizes_split_places(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--curve", CURVE, "--p", "5", "--field", "Q(mu_p)",
    )
    assert code == 0
    report = json.loads(out)
    assert report["bound"]["value"] == "10"
    labels = [pl["label"] for pl in report["places"]]
    assert labels == ["11.1", "11.2", "11.3", "11.4", "eta_5"]
    total = sum(int(pl["contribution"]["value"]) for pl in report["places"])
    assert total == 10


# --- input errors: exit 3 ---


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--curve", CURVE, "--p", "4"),
        ("run", "--curve", CURVE, "--p", "17"),
        ("run", "--curve", "0,0,0,0,0", "--p", "5"),  # singular
        ("run", "--curve", "1,2,3", "--p", "5"),  # wrong arity
        ("run", "--curve", CURVE, "--p", "5", "--assume", "nonsense"),
        ("run", "--curve", CURVE, "--p", "5", "--precision", "0"),
        ("run", "--curve", CURVE, "--p", "5", "--extension", "user"),  # no such flag
        ("run", "--p", "5"),  # missing curve
        ("run", "--curve", CURVE, "--p", "5", "--precision", "257"),
        ("run", "--curve", CURVE, "--p", "5", "--precision", "1000000000"),
        ("run", "--curve", CURVE, "--p", "5", "--precision", "32"),  # no such flag
        # 4 300 digits parse, but 2 dim_y would have too many to print
        ("run", "--curve", CURVE, "--p", "5", "--dim-y", "9" * 4300),
    ],
)
def test_bad_inputs_exit_three(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.startswith("error:") or "error" in err
    assert out == ""


def test_g_table_requires_user_extension(capsys):
    table = GOLDEN.parent / "tmp_gtable.json"
    table.write_text(json.dumps([{"residue_char": 11, "g": 7}]))
    try:
        code, out, _ = run_cli(
            capsys, "run", "--curve", CURVE, "--p", "5",
            "--g-table", str(table),
        )
        assert code == 0
        report = json.loads(out)
        assert report["bound"]["value"] == "14"
        assert report["extension"]["kind"] == "user"
        assert report["places"][0]["g"]["provenance"] == "asserted"
        # there is no --extension flag: the table alone names the extension
        code, _, err = run_cli(
            capsys, "run", "--curve", CURVE, "--p", "5",
            "--extension", "cyclotomic", "--g-table", str(table),
        )
        assert code == 3
    finally:
        table.unlink()


def test_g_table_missing_row_is_an_input_error(capsys):
    table = GOLDEN.parent / "tmp_gtable_missing.json"
    table.write_text(json.dumps([{"residue_char": 13, "g": 1}]))
    try:
        code, _, err = run_cli(
            capsys, "run", "--curve", CURVE, "--p", "5",
            "--g-table", str(table),
        )
        assert code == 3
        assert "11" in err
    finally:
        table.unlink()


def test_precision_variable_is_not_read(capsys, monkeypatch):
    # 0 was refused while the variable was read
    monkeypatch.setenv("FINESELMER_PRECISION", "0")
    code, out, err = run_cli(capsys, "run", "--curve", CURVE, "--label", "11a2", "--p", "5")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "run_Q.json").read_text()


def test_batch_precision_key_is_a_line_error(capsys, tmp_path):
    first, second = (GOLDEN / "jobs.ndjson").read_text().splitlines()
    with_precision = json.dumps({**json.loads(first), "precision": 32})
    f = tmp_path / "prec.ndjson"
    f.write_text("\n".join([first, with_precision, second]) + "\n")
    code, out, err = run_cli(capsys, "batch", str(f))
    assert code == 3
    reports = (GOLDEN / "reports.ndjson").read_text().splitlines()
    lines = out.splitlines()
    assert [lines[0], lines[2]] == reports
    assert json.loads(lines[1]) == {"error": "line 2: unknown job keys ['precision']",
                                    "line": 2}
    assert err.strip() == "2 ok / 0 blocked / 1 error"


# --- batch mode ---


def test_batch_matches_golden_bytes(capsys):
    code, out, err = run_cli(capsys, "batch", str(GOLDEN / "jobs.ndjson"))
    assert code == 0
    assert out == (GOLDEN / "reports.ndjson").read_text()
    assert err.strip() == "2 ok / 0 blocked / 0 error"


def test_batch_parallel_output_is_identical(capsys):
    _, serial, _ = run_cli(capsys, "batch", str(GOLDEN / "jobs.ndjson"))
    _, parallel, _ = run_cli(
        capsys, "batch", str(GOLDEN / "jobs.ndjson"), "--jobs", "4",
    )
    assert serial == parallel


def test_batch_mixed_outcomes(capsys, tmp_path):
    mixed = tmp_path / "mixed.ndjson"
    mixed.write_text(
        '{"curve": [0, -1, 1, -7820, -263580], "p": 5}\n'
        "\n"  # blank lines are skipped without renumbering
        '{"curve": [0, -1, 1, -7820, -263580], "p": 11}\n'
        '{"curve": [0, -1, 1, -7820, -263580], "p": 4}\n'
    )
    code, out, err = run_cli(capsys, "batch", str(mixed))
    assert code == 3  # worst of 0, 2, 3
    lines = out.splitlines()
    assert len(lines) == 3
    ok = json.loads(lines[0])
    blocked = json.loads(lines[1])
    failed = json.loads(lines[2])
    assert ok["bound"]["value"] == "2"
    assert blocked["bound"] is None and blocked["strength"] == "blocked"
    assert failed["line"] == 4  # physical line number, blank line counted
    assert failed["error"].startswith("line 4:")
    assert err.strip() == "1 ok / 1 blocked / 1 error"


def test_batch_malformed_json_line(capsys, tmp_path):
    bad = tmp_path / "bad.ndjson"
    bad.write_text("this is not json\n")
    code, out, err = run_cli(capsys, "batch", str(bad))
    assert code == 3
    entry = json.loads(out)
    assert entry["line"] == 1
    assert err.strip() == "0 ok / 0 blocked / 1 error"


def test_batch_oversized_integer_is_a_line_error(capsys, tmp_path):
    # json.loads raises a plain ValueError, not JSONDecodeError, for an
    # integer literal over 4300 digits; the batch must keep the other lines
    f = tmp_path / "big.ndjson"
    good = '{"curve": [0, -1, 1, -7820, -263580], "p": 5}'
    f.write_text(good + "\n"
                 + '{"curve": [0, 0, 1, -1, 1%s], "p": 5}\n' % ("0" * 4400)
                 + good + "\n")
    code, out, err = run_cli(capsys, "batch", str(f))
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0]) == json.loads(lines[2])
    assert json.loads(lines[0])["bound"]["value"] == "2"
    bad = json.loads(lines[1])
    assert bad["line"] == 2 and bad["error"].startswith("line 2: not valid JSON")
    assert bad["error"] == "line 2: not valid JSON (integer literal over 4300 digits)"
    assert "set_int_max_str_digits" not in bad["error"]
    assert "Traceback" not in err
    assert err.strip() == "2 ok / 0 blocked / 1 error"


def test_batch_unknown_job_key_rejected(capsys, tmp_path):
    f = tmp_path / "j.ndjson"
    f.write_text('{"curve": [0, -1, 1, -7820, -263580], "p": 5, "bogus": 1}\n')
    code, out, _ = run_cli(capsys, "batch", str(f))
    assert code == 3
    assert "bogus" in json.loads(out)["error"]


def test_batch_missing_file(capsys):
    code, _, err = run_cli(capsys, "batch", "/nonexistent/jobs.ndjson")
    assert code == 3
    assert "error" in err


def test_batch_inline_g_table(capsys, tmp_path):
    f = tmp_path / "j.ndjson"
    f.write_text(json.dumps({
        "curve": [0, -1, 1, -7820, -263580],
        "p": 5,
        "g_table": [{"residue_char": 11, "g": 7}],
    }) + "\n")
    code, out, _ = run_cli(capsys, "batch", str(f))
    assert code == 0
    report = json.loads(out)
    assert report["bound"]["value"] == "14"
    assert report["extension"]["g_table"] == [
        {"residue_char": "11", "residue_degree": "1", "g": "7"}
    ]


@pytest.mark.parametrize("key", ["residue_char", "residue_degree", "g"])
def test_g_table_row_error_names_its_source_once(capsys, tmp_path, key):
    row = {"residue_char": 11, "g": 7, key: "x"}
    f = tmp_path / "j.ndjson"
    f.write_text(json.dumps({"curve": [0, -1, 1, -7820, -263580], "p": 5,
                             "g_table": [row]}) + "\n")
    code, out, _ = run_cli(capsys, "batch", str(f))
    assert code == 3
    assert json.loads(out) == {
        "error": f"line 1: row 0 {key} must be an integer, got 'x'", "line": 1}
    table = tmp_path / "table.json"
    table.write_text(json.dumps([row]))
    code, out, err = run_cli(capsys, "run", "--curve", CURVE, "--p", "5",
                             "--g-table", str(table))
    assert (code, out) == (3, "")
    assert err == f"error: {table}: row 0 {key} must be an integer, got 'x'\n"


def test_batch_compact_json_has_no_spaces(capsys):
    code, out, _ = run_cli(capsys, "batch", str(GOLDEN / "jobs.ndjson"))
    first = out.splitlines()[0]
    assert '": ' not in first  # batch lines use compact separators
    assert json.loads(first)["bound"]["value"] == "2"


def test_cli_import_leaves_the_process_pool_out():
    # only a --jobs N batch starts a pool; every other process that imports
    # the CLI (run, batch --jobs 1, library users) must not pay for
    # multiprocessing, pickle and socket
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, fineselmer.cli; print('concurrent.futures' in sys.modules)"],
        env=src_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # the value records are NamedTuples, so no process start pays for the
    # dataclasses module or for inspect, which it imports
    out = subprocess.run(
        [sys.executable, "-c", "import sys, fineselmer.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=src_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# --- batch streaming and failure containment ---


GOLDEN_JOBS = (GOLDEN / "jobs.ndjson").read_text().splitlines()
GOLDEN_REPORTS = (GOLDEN / "reports.ndjson").read_text().splitlines()
GOOD_JOB = '{"curve": [0, -1, 1, -7820, -263580], "p": 5}'


def worker_died(n: int) -> str:
    return json.dumps({
        "error": f"line {n}: worker process died before this job finished",
        "line": n}, separators=(",", ":"))


class StdoutRecorder:
    """A stdout that logs each write and each flush into a shared list."""

    def __init__(self, events: list):
        self.events = events

    def write(self, text: str) -> int:
        self.events.append(("write", text))
        return len(text)

    def flush(self) -> None:
        self.events.append(("flush",))


def test_batch_streams_each_line_before_the_next_job(monkeypatch, tmp_path):
    f = tmp_path / "jobs.ndjson"
    f.write_text("\n".join(GOLDEN_JOBS + ["not json", GOLDEN_JOBS[0]]) + "\n")
    events = []
    real_batch_line = cli._batch_line

    def logged(item):
        events.append(("start", item[0]))
        return real_batch_line(item)

    monkeypatch.setattr(cli, "_batch_line", logged)
    monkeypatch.setattr(sys, "stdout", StdoutRecorder(events))
    assert main(["batch", str(f)]) == 3

    written = flushed = 0   # complete lines written, and flushed
    for event in events:
        if event[0] == "write":
            written += event[1].count("\n")
        elif event[0] == "flush":
            flushed = written
        else:   # job k + 1 starts only after line k reached the reader
            assert flushed == event[1] - 1, events
    assert flushed == written == 4


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched run_job reaches workers only by fork")
def test_batch_dead_worker_keeps_finished_lines(capsys, monkeypatch, tmp_path):
    # lines 1-2 finish; line 3 kills its worker once they have, and again
    # when it runs on its own in a fresh pool; lines 4-5 are still running
    # or queued when the pool first breaks, and get their reports after
    real_run_job = cli.run_job
    died = tmp_path / "died"

    def run_job(job):
        if job.label == "die":
            deadline = time.monotonic() + 30
            while (len(list(tmp_path.glob("done-*"))) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            time.sleep(0.2)   # let the last result reach the parent
            died.touch()
            os._exit(1)
        if job.label == "after":   # held until line 3 has killed a worker
            deadline = time.monotonic() + 30
            while not died.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        result = real_run_job(job)
        (tmp_path / f"done-{os.getpid()}-{time.monotonic_ns()}").touch()
        return result

    late = ['{"curve": [0, -1, 1, -7820, -263580], "p": 5, "label": "%s"}' % s
            for s in ("die", "after", "after")]
    after = [cli._batch_line((n, late[1].encode()))[2] for n in (4, 5)]
    monkeypatch.setattr(cli, "run_job", run_job)
    f = tmp_path / "jobs.ndjson"
    f.write_text("\n".join(GOLDEN_JOBS + late) + "\n")
    start = time.monotonic()
    code, out, err = run_cli(capsys, "batch", str(f), "--jobs", "2")
    assert time.monotonic() - start < 20
    assert code == 3
    assert out.splitlines() == GOLDEN_REPORTS + [worker_died(3)] + after
    assert err.strip() == "4 ok / 0 blocked / 1 error"


def test_batch_internal_error_is_a_line_error(capsys, monkeypatch, tmp_path):
    real_run_job = cli.run_job

    def run_job(job):
        if job.label == "bug":
            raise ZeroDivisionError("integer division or modulo by zero")
        return real_run_job(job)

    monkeypatch.setattr(cli, "run_job", run_job)
    f = tmp_path / "jobs.ndjson"
    f.write_text(GOLDEN_JOBS[0] + "\n"
                 + '{"curve": [0, -1, 1, -7820, -263580], "p": 5, "label": "bug"}\n'
                 + GOLDEN_JOBS[1] + "\n")
    code, out, err = run_cli(capsys, "batch", str(f))
    assert code == 3
    lines = out.splitlines()
    assert [lines[0], lines[2]] == GOLDEN_REPORTS
    assert json.loads(lines[1]) == {
        "error": "line 2: internal error (ZeroDivisionError: integer "
                 "division or modulo by zero)",
        "line": 2}
    assert err.strip() == "2 ok / 0 blocked / 1 error"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_deep_nesting_is_a_line_error(capsys, tmp_path, jobs):
    # json.loads raises RecursionError here, neither JSONDecodeError nor
    # ValueError
    f = tmp_path / "deep.ndjson"
    f.write_text(GOOD_JOB + "\n" + "[" * 100_000 + "\n" + GOOD_JOB + "\n")
    code, out, err = run_cli(capsys, "batch", str(f), "--jobs", jobs)
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 3 and lines[0] == lines[2]
    assert json.loads(lines[0])["bound"]["value"] == "2"
    assert json.loads(lines[1]) == {
        "error": "line 2: not valid JSON (nested too deeply)", "line": 2}
    assert "Traceback" not in err
    assert err.strip() == "2 ok / 0 blocked / 1 error"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_line_that_is_not_utf8_is_a_line_error(capsys, tmp_path, jobs):
    # the file is read as bytes and each line decoded on its own; line
    # numbers count \n, \r\n and \r alike, as text mode does
    f = tmp_path / "bytes.ndjson"
    good = GOOD_JOB.encode()
    f.write_bytes(good + b"\n\xff\xfe{}\n" + good + b"\r\n\r\n" + b'{"p": 5, "x": "\xc3"}\r'
                  + good + b"\n")
    code, out, err = run_cli(capsys, "batch", str(f), "--jobs", jobs)
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 5 and lines[0] == lines[2] == lines[4]
    assert json.loads(lines[0])["bound"]["value"] == "2"
    assert json.loads(lines[1]) == {
        "error": "line 2: not valid UTF-8 (invalid start byte at byte 0)", "line": 2}
    assert json.loads(lines[3]) == {
        "error": "line 5: not valid UTF-8 (invalid continuation byte at byte 15)",
        "line": 5}
    assert "Traceback" not in err
    assert err.strip() == "3 ok / 0 blocked / 2 error"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_closed_stdout_exits_three(tmp_path, jobs):
    # far more output than a pipe holds, so the batch is still writing
    # when the reader goes away
    f = tmp_path / "jobs.ndjson"
    f.write_text("\n".join([GOOD_JOB] * 3 + ["not json"] * 4000) + "\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "fineselmer.cli", "batch", str(f), "--jobs", jobs],
        env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    try:
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert code == 3
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.splitlines() == [
        "error: stdout closed before every result was written"]


class ClosedStdout:
    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self) -> None:
        pass


def test_batch_closed_stdout_cancels_queued_jobs(capsys, monkeypatch, tmp_path):
    def run_job(job):
        (tmp_path / f"ran-{os.getpid()}-{time.monotonic_ns()}").touch()
        time.sleep(0.05)
        raise CliError("not run")

    monkeypatch.setattr(cli, "run_job", run_job)
    f = tmp_path / "jobs.ndjson"
    f.write_text("\n".join([GOOD_JOB] * 40) + "\n")
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main(["batch", str(f), "--jobs", "2"]) == 3
    # the two running jobs and the few already handed to the pool finish;
    # the rest are cancelled
    assert len(list(tmp_path.glob("ran-*"))) < 10
    assert capsys.readouterr().err == (
        "error: stdout closed before every result was written\n")


def test_batch_pool_has_no_more_workers_than_lines(monkeypatch, tmp_path):
    # ProcessPoolExecutor forks all max_workers workers at its first
    # submit, so --jobs must not set the pool's size alone. The stand-in
    # records the size it is asked for and refuses before any process starts
    import concurrent.futures

    asked = []

    class RecordingPool:
        def __init__(self, max_workers=None, **kwargs):
            asked.append(max_workers)
            raise RuntimeError("no pool is started in this test")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    f = tmp_path / "jobs.ndjson"
    f.write_text(GOOD_JOB + "\n\n  \n" + GOOD_JOB + "\n")
    with pytest.raises(RuntimeError, match="no pool is started"):
        main(["batch", str(f), "--jobs", "1000000"])
    assert asked == [2]


# --- batches larger than the pool's first chunks ---


BLOCKED_JOB = '{"curve": [0, -1, 1, -7820, -263580], "p": 11}'


def big_batch(tmp_path: Path) -> tuple[Path, list[int]]:
    """A 252-line batch of golden, blocked, malformed and blank lines, and
    the line numbers of its 210 jobs: enough lines for multi-line chunks."""
    cycle = GOLDEN_JOBS + [BLOCKED_JOB, "not json", '{"p": 5}', ""]
    lines = cycle * 42
    f = tmp_path / "big.ndjson"
    f.write_text("\n".join(lines) + "\n")
    return f, [n for n, line in enumerate(lines, start=1) if line.strip()]


@pytest.mark.parametrize("workers", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("lines", [0, 1, 2, 7, 40, 210, 1000])
def test_chunk_plan_keeps_input_order_and_starts_each_worker_on_one_line(lines, workers):
    chunks = list(cli._chunks(list(range(lines)), workers))
    assert [n for chunk in chunks for n in chunk] == list(range(lines))
    assert all(chunks)
    assert all(len(chunk) == 1 for chunk in chunks[:workers])
    assert max(map(len, chunks), default=1) <= max(1, lines // (4 * workers))


def test_big_batch_gives_the_serial_bytes_at_any_worker_count(capsys, tmp_path):
    f, numbered = big_batch(tmp_path)
    code, serial, err = run_cli(capsys, "batch", str(f))
    assert code == 3 and len(serial.splitlines()) == len(numbered) == 210
    assert err.strip() == "84 ok / 42 blocked / 84 error"
    for jobs in ("2", "3"):
        assert run_cli(capsys, "batch", str(f), "--jobs", jobs) == (3, serial, err)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched run_job reaches workers only by fork")
def test_worker_dying_inside_a_chunk_costs_only_its_own_line(capsys, monkeypatch,
                                                             tmp_path):
    f, numbered = big_batch(tmp_path)
    # the middle line of the first chunk of the largest size kills its
    # worker each time it runs; the lines before it in that chunk have
    # finished in the same worker, and their results die with it
    chunks = list(cli._chunks(numbered, 2))
    chunk = next(c for c in chunks if len(c) == max(map(len, chunks)))
    assert len(chunk) > 2
    n = chunk[len(chunk) // 2]
    lines = f.read_text().splitlines()
    lines[n - 1] = '{"curve": [0, -1, 1, -7820, -263580], "p": 5, "label": "die"}'
    f.write_text("\n".join(lines) + "\n")
    _, serial, _ = run_cli(capsys, "batch", str(f))
    real_run_job = cli.run_job

    def run_job(job):
        if job.label == "die":
            os._exit(1)
        return real_run_job(job)

    monkeypatch.setattr(cli, "run_job", run_job)
    start = time.monotonic()
    code, out, err = run_cli(capsys, "batch", str(f), "--jobs", "2")
    assert time.monotonic() - start < 20
    want = serial.splitlines()
    want[numbered.index(n)] = worker_died(n)
    assert code == 3
    assert out.splitlines() == want
    blocked = sum('"strength":"blocked"' in line for line in want)
    errors = sum(line.startswith('{"error":') for line in want)
    assert err.strip() == (f"{len(want) - blocked - errors} ok / {blocked} blocked "
                           f"/ {errors} error")


# --- fuzzing the batch front end ---


CHEAP_CURVES = [[0, -1, 1, -10, -20], [0, -1, 1, 0, 0], [0, 0, 1, -1, 0],
                [1, -1, 1, -1, 0]]   # 11a1, 11a3, 37a1, 14a4: ~2 ms at p = 3
WORDS = st.text(alphabet="abcxyz -_", max_size=6)   # never an integer
NOT_JSON = st.text(max_size=12).filter(lambda t: "\n" not in t and "\r" not in t)
BAD_CURVE = st.one_of(
    st.integers(), WORDS, st.none(), st.booleans(),
    st.lists(st.integers(-3, 3), max_size=4),
    st.lists(WORDS, min_size=5, max_size=5),
    st.just([0, 0, 0, 0, 0]))                           # singular
BAD_P = st.one_of(WORDS, st.none(), st.booleans(), st.floats(),
                  st.integers(-5, 2), st.sampled_from([4, 9, 17, 10**30]))
VALID = st.builds(lambda c, field: {"curve": c, "p": 3, "field": field},
                  st.sampled_from(CHEAP_CURVES), st.sampled_from(["Q", "Q(mu_p)"]))


def _spoil(job: dict, data) -> dict:
    key, value = data
    return {**job, key: value}


BAD_JOB = st.one_of(
    st.builds(_spoil, VALID, st.tuples(st.just("curve"), BAD_CURVE)),
    st.builds(_spoil, VALID, st.tuples(st.just("p"), BAD_P)),
    st.builds(_spoil, VALID, st.tuples(
        st.sampled_from(["field", "extension", "assume", "label", "dim_y",
                         "precision", "g_table"]),
        st.one_of(WORDS, st.integers(-3, 3), st.lists(st.integers(), max_size=2),
                  st.dictionaries(WORDS, st.integers(), max_size=2)))),
    st.builds(_spoil, VALID, st.tuples(WORDS.filter(lambda k: k not in cli._JOB_KEYS),
                                       st.integers())),
    st.lists(st.integers(), max_size=3), st.integers(), WORDS)
BATCH_LINE = st.one_of(
    NOT_JSON,
    st.sampled_from([10, 100_000]).map(lambda k: "[" * k),
    BAD_JOB.map(json.dumps),
    VALID.map(json.dumps),
)


def check_batch(lines, *flags):
    """Run `fineselmer batch` on `lines` and check its one line per job."""
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "fuzz.ndjson"
        f.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["batch", str(f), *flags])
    assert code in {0, 2, 3}
    assert "Traceback" not in err.getvalue()
    numbered = [(n, line) for n, line in enumerate(lines, start=1) if line.strip()]
    got = out.getvalue().splitlines()
    assert len(got) == len(numbered)
    for (n, line), result in zip(numbered, got):
        doc = json.loads(result)
        if "error" in doc:
            assert doc["line"] == n and doc["error"].startswith(f"line {n}: ")
            assert "internal error" not in doc["error"]
        else:   # only a valid job gets a report, and it is that job's
            job = json.loads(line)
            assert doc["curve"]["a_invariants"] == [str(a) for a in job["curve"]]
            assert doc["field"] == job["field"]


@settings(max_examples=60, deadline=None)
@given(st.lists(BATCH_LINE, min_size=1, max_size=6))
def test_batch_fuzz_one_line_out_per_line_in(lines):
    check_batch(lines)


# each example starts a pool of two workers, so there are few of them
@settings(max_examples=6, deadline=None)
@given(st.lists(BATCH_LINE, min_size=2, max_size=6))
def test_batch_fuzz_with_two_workers(lines):
    check_batch(lines, "--jobs", "2")


# --- fuzzing the run front end ---


# file contents for --g-table; bytes are written as they are
G_TABLES = {
    "valid": '[{"residue_char": 11, "residue_degree": 1, "g": 1}]',
    "bad rows": '[{"residue_char": 11}, 5]',
    "not JSON": "[{",
    "g zero": '[{"residue_char": 2, "g": 0}, {"residue_char": 11, "g": 1}]',
    "deep": "[" * 100_000,
    "long integer": '[{"residue_char": 11, "g": 1%s}]' % ("0" * 5000),
    "not UTF-8": b'[{"residue_char": 11, "g": 1}, "\xff"]',
}
G_TABLE_ERRORS = {
    "bad rows": "row 0 needs residue_char and g",
    "not JSON": "not valid JSON (Expecting property name enclosed in double quotes)",
    "deep": "not valid JSON (nested too deeply)",
    "long integer": "not valid JSON (integer literal over 4300 digits)",
    "not UTF-8": "not valid UTF-8 (invalid start byte at byte 32)",
}


def write_g_table(path: Path, name: str) -> None:
    content = G_TABLES[name]
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")


@pytest.mark.parametrize("name", sorted(G_TABLE_ERRORS))
def test_bad_g_table_file_is_one_error_line(capsys, tmp_path, name):
    table = tmp_path / "table.json"
    write_g_table(table, name)
    code, out, err = run_cli(capsys, "run", "--curve", "0,-1,1,-10,-20", "--p", "5",
                             "--g-table", str(table))
    assert (code, out) == (3, "")
    assert err == f"error: {table}: {G_TABLE_ERRORS[name]}\n"
    # the same file named by a batch line costs that line alone
    f = tmp_path / "jobs.ndjson"
    f.write_text("\n".join([GOOD_JOB, json.dumps(
        {"curve": [0, -1, 1, -10, -20], "p": 5, "g_table": str(table)}), GOOD_JOB]) + "\n")
    code, out, err = run_cli(capsys, "batch", str(f), "--jobs", "1")
    lines = out.splitlines()
    assert code == 3 and len(lines) == 3 and lines[0] == lines[2]
    assert json.loads(lines[1]) == {
        "error": f"line 2: {table}: {G_TABLE_ERRORS[name]}", "line": 2}
    assert err.strip() == "2 ok / 0 blocked / 1 error"


@pytest.mark.parametrize("curve", ["0,-1,1,-10,-20", "1,0,1,4,-6"], ids=["11a1", "14a1"])
def test_g_table_row_below_one_is_refused_whatever_the_curve(capsys, tmp_path, curve):
    # 11a1 has no place above 2, so no place reads the first row; nor can
    # any place match a row whose residue_char is no provable prime, or
    # whose residue_degree is below 1. Each is one exit-3 line naming it
    table = tmp_path / "table.json"
    for row, message in (
            ('{"residue_char": 2, "g": 0}', "g must be a positive integer, got 0"),
            ('{"residue_char": 4, "g": 1}', "residue_char must be a prime, got 4"),
            ('{"residue_char": -37, "g": 1}', "residue_char must be a prime, got -37"),
            ('{"residue_char": 2, "residue_degree": 0, "g": 1}',
             "residue_degree must be a positive integer, got 0"),
            ('{"residue_char": 2, "residue_degree": -1, "g": 1}',
             "residue_degree must be a positive integer, got -1"),
            ('{"residue_char": %d, "g": 1}' % (2**127 - 1),
             "residue_char has 127 bits; a prime is proven only below 3.3 * 10^24"),
            # 4 300 digits parse, but the contribution 2 g would not print
            ('{"residue_char": 2, "g": %s}' % ("9" * 4300),
             f"g must be below 2^64, got {'9' * 4300}")):
        table.write_text(f'[{row}, {{"residue_char": 11, "g": 1}}]')
        code, out, err = run_cli(capsys, "run", "--curve", curve, "--p", "5",
                                 "--g-table", str(table))
        assert (code, out) == (3, "")
        assert err == f"error: g table row 0: {message}\n"
        code, out, err = run_cli(capsys, "batch", str(batch_around(tmp_path, {
            "curve": [int(a) for a in curve.split(",")], "p": 5,
            "g_table": json.loads(table.read_text())})))
        assert code == 3
        assert_one_line_error(out, err, f"g table row 0: {message}")


def batch_around(tmp_path: Path, job) -> Path:
    """A batch file: the first golden job, `job`, the second golden job."""
    f = tmp_path / "jobs.ndjson"
    f.write_text("\n".join([GOLDEN_JOBS[0], json.dumps(job), GOLDEN_JOBS[1]]) + "\n")
    return f


def assert_one_line_error(out: str, err: str, message: str) -> None:
    """Line 2 of a batch_around file is an exit-3 line; its neighbours keep their reports."""
    lines = out.splitlines()
    assert [lines[0], lines[2]] == GOLDEN_REPORTS
    assert json.loads(lines[1]) == {"error": f"line 2: {message}", "line": 2}
    assert err.strip() == "2 ok / 0 blocked / 1 error"


@pytest.mark.parametrize("gs", [(7, 1), (1, 7)], ids=["g 7 first", "g 1 first"])
@pytest.mark.parametrize("curve", [[0, -1, 1, -10, -20], [1, 0, 1, 4, -6]],
                         ids=["11a1", "14a1"])
def test_g_table_with_two_rows_for_one_place_is_refused(capsys, tmp_path, curve, gs):
    # 14a1 has no place above 11, so no place reads either row
    rows = [{"residue_char": 11, "g": gs[0]},
            {"residue_char": 11, "residue_degree": 1, "g": gs[1]}]
    message = "g table row 1: a second row for residue_char=11, f=1"
    table = tmp_path / "table.json"
    table.write_text(json.dumps(rows))
    code, out, err = run_cli(capsys, "run", "--curve", ",".join(map(str, curve)),
                             "--p", "5", "--g-table", str(table))
    assert (code, out, err) == (3, "", f"error: {message}\n")
    code, out, err = run_cli(capsys, "batch", str(batch_around(
        tmp_path, {"curve": curve, "p": 5, "g_table": rows})))
    assert code == 3
    assert_one_line_error(out, err, message)


# --- run and batch refuse a bad input with the library's one message ---


def run_argv_of(job: dict) -> list[str]:
    """The run-mode argv of a job whose values are strings or lists of them."""
    argv = ["run"]
    for key, value in job.items():
        for v in value if isinstance(value, list) else [value]:
            argv += [f"--{key}", str(v)]
    return argv


SINGLE_FAULTS = {
    "field": ({"field": "R"}, "field must be one of ('Q', 'Q(mu_p)'), got 'R'"),
    "assumption": ({"assume": ["x"]},
                   "unknown assumption 'x'; known: A-K-zero, Y-torsion-mu-zero, "
                   "image-order-coprime, unique-total-ramification"),
    "p 4": ({"p": "4"}, "p must be an odd prime"),
    "p 17": ({"p": "17"}, "p is capped at 13 by the division-polynomial ladder"),
    "p x": ({"p": "x"}, "p must be an integer, got 'x'"),
    "singular": ({"curve": "0,0,0,0,0"}, "singular model: discriminant is zero"),
    "four a-invariants": ({"curve": "0,0,1,-1"}, "curve needs exactly 5 a-invariants, got 4"),
}


@pytest.mark.parametrize("fault", list(SINGLE_FAULTS))
def test_run_and_batch_refuse_a_single_fault_with_one_message(capsys, tmp_path, fault):
    change, message = SINGLE_FAULTS[fault]
    job = {"curve": "0,0,1,-1,0", "p": "5", **change}
    code, out, err = run_cli(capsys, "batch", str(batch_around(tmp_path, job)))
    assert code == 3
    assert_one_line_error(out, err, message)
    code, out, err = run_cli(capsys, *run_argv_of(job))
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("job, message", [
    ({"curve": "0,0,0,0,0", "p": 5, "field": "R"}, "singular model: discriminant is zero"),
    ({"curve": "0,0,1,-1,0", "p": 4, "assume": ["x"]}, "p must be an odd prime"),
    ({"curve": "0,0,1,-1,0", "p": 17, "field": "R"},
     "p is capped at 13 by the division-polynomial ladder"),
], ids=["model before field", "p before assumptions", "cap before field"])
def test_a_job_with_several_faults_names_the_first(capsys, tmp_path, job, message):
    # the order is model, cap on p, p, field, assumptions, dimensions, rows,
    # in run mode and in batch alike
    code, out, err = run_cli(capsys, "batch", str(batch_around(tmp_path, job)))
    assert code == 3
    assert_one_line_error(out, err, message)
    code, out, err = run_cli(capsys, *run_argv_of(job))
    assert (code, out, err) == (3, "", f"error: {message}\n")


def _cli_reads(job) -> bool:
    try:
        cli.job_from_dict(job, "line 2")
    except CliError:
        return False
    return True


# the batch fuzz's jobs that the CLI reads into a JobSpec, so that every
# check of their values is left to the library
LIBRARY_JOB = st.one_of(BAD_JOB, VALID).filter(
    lambda job: isinstance(job, dict) and _cli_reads(job))


@settings(max_examples=80, deadline=None)
@given(LIBRARY_JOB)
def test_batch_error_line_is_the_library_message(job):
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "jobs.ndjson"
        f.write_text("\n" + json.dumps(job) + "\n")   # the job is line 2
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            main(["batch", str(f)])
    spec = cli.job_from_dict(job, "line 2")
    try:
        report = lambdabound.compute_lambda_bound(
            WeierstrassModel(*spec.a_invariants), spec.p, spec.field,
            dim_y=spec.dim_y, dim_z=spec.dim_z, assume=spec.assume,
            g_table=spec.g_table)
    except ValueError as e:
        assert json.loads(out.getvalue()) == {"error": f"line 2: {e}", "line": 2}
    else:
        assert out.getvalue() == cli.render_json(report, spec, compact=True) + "\n"


def test_g_table_alone_names_a_user_extension(capsys, tmp_path):
    table = tmp_path / "table.json"
    table.write_text('[{"residue_char": 11, "g": 7}]')
    code, out, _ = run_cli(capsys, "run", "--curve", "0,-1,1,-10,-20", "--label", "11a1",
                           "--p", "5", "--g-table", str(table))
    assert code == 0
    assert out == (GOLDEN / "run_user.json").read_text()


def test_extension_input_is_retired(capsys, tmp_path):
    table = tmp_path / "table.json"
    table.write_text('[{"residue_char": 11, "g": 7}]')
    code, out, err = run_cli(capsys, "run", "--curve", "0,-1,1,-10,-20", "--p", "5",
                             "--extension", "user", "--g-table", str(table))
    assert (code, out, err) == (3, "", "error: unrecognized arguments: --extension user\n")
    code, out, err = run_cli(capsys, "batch", str(batch_around(tmp_path, {
        "curve": [0, -1, 1, -10, -20], "p": 5, "extension": "user",
        "g_table": [{"residue_char": 11, "g": 7}]})))
    assert code == 3
    assert_one_line_error(out, err, "unknown job keys ['extension']")


def test_table_g_on_a_place_outside_s0_is_asserted(capsys, tmp_path):
    # [1,1,1,-30,-76] has additive reduction at 11, so 11 is in S but not S0
    table = tmp_path / "table.json"
    table.write_text('[{"residue_char": 11, "g": 3}]')
    code, out, _ = run_cli(capsys, "run", "--curve", "1,1,1,-30,-76", "--p", "5",
                           "--g-table", str(table))
    assert code == 0
    place = json.loads(out)["places"][0]
    assert (place["label"], place["role"]) == ("11", "S")
    assert place["g"] == {"value": "3", "provenance": "asserted"}
    assert place["contribution"] == {"value": "0", "provenance": "computed-exact"}


@pytest.mark.parametrize("curve", [[0, 0, 1, 0, -7], [1, 1, 0, -11, 0]],
                         ids=["27a1", "33a1"])
def test_no_good_prime_for_psi_exits_three_after_one_scan(capsys, monkeypatch,
                                                          tmp_path, curve):
    # below 5 the only candidate is 3, and psi_5 of each curve is not
    # squarefree mod 3; the golden jobs still have 3 as a good prime
    scans = []
    good_reduction = factorization.good_reduction

    def counting(coeffs, tries=None):
        scans.append(tries)
        return good_reduction(coeffs, tries)

    # every module that scans for a good prime calls it by this name
    for module in (factorization, galoisimage, padic):
        monkeypatch.setattr(module, "good_reduction", counting)
    monkeypatch.setattr(factorization, "GOOD_PRIME_BOUND", 5)
    message = "no good reduction prime below 5 for the 5-division polynomial"
    code, out, err = run_cli(capsys, "run", "--curve", ",".join(map(str, curve)),
                             "--p", "5")
    assert (code, out, err) == (3, "", f"error: {message}\n")
    assert scans == [None]   # find_stable_subgroups' scan, and no other
    code, out, err = run_cli(capsys, "batch", str(batch_around(
        tmp_path, {"curve": curve, "p": 5})))
    assert code == 3
    assert_one_line_error(out, err, message)
GOOD_OPTION = st.one_of(
    st.tuples(st.just("--field"), st.sampled_from(["Q", "Q(mu_p)"])),
    st.tuples(st.just("--assume"), st.sampled_from(sorted(lambdabound.ASSUMPTION_TOKENS))),
    st.tuples(st.sampled_from(["--dim-y", "--dim-z"]), st.integers(0, 3).map(str)),
    st.tuples(st.just("--format"), st.sampled_from(["json", "text", "both"])),
    st.tuples(st.just("--label"), WORDS.filter(lambda w: not w.startswith("-"))))
BAD_OPTION = st.one_of(
    st.tuples(st.just("--curve"), st.one_of(
        st.lists(st.integers(-3, 3), max_size=6).map(lambda c: ",".join(map(str, c))),
        WORDS)),
    st.tuples(st.just("--p"), st.one_of(
        st.sampled_from(["4", "9", "17", "-5", "1" * 40]), WORDS)),
    st.tuples(st.just("--field"), st.sampled_from(["R", ""])),
    st.tuples(st.just("--assume"), WORDS),
    st.tuples(st.sampled_from(["--dim-y", "--dim-z"]),
              st.one_of(st.integers(-3, 0).map(str), WORDS)),
    st.tuples(st.just("--precision"), st.one_of(st.integers(-3, 40).map(str), WORDS)),
    st.tuples(st.just("--format"), st.just("xml")),
    st.tuples(st.just("--extension"), st.sampled_from(["cyclotomic", "user", "x"])),
    st.tuples(st.just("--g-table"), st.sampled_from([*G_TABLES, "missing"])),
    st.tuples(st.just("--bogus"), WORDS),
    st.tuples(st.sampled_from(["--curve", "--p", "--format", "--assume"]), st.none()))


@st.composite
def run_argv(draw):
    """(with the run token, options as (flag, value or None) pairs).

    Half the draws are valid runs of a cheap curve at p = 3 or 5; the
    rest add one to three mostly bad options, and half of those also
    drop a required one.
    """
    curve = ",".join(map(str, draw(st.sampled_from(CHEAP_CURVES))))
    options = [("--curve", curve), ("--p", draw(st.sampled_from(["3", "5"])))]
    options += draw(st.lists(GOOD_OPTION, max_size=3))
    if draw(st.booleans()):
        options += draw(st.lists(BAD_OPTION, min_size=1, max_size=3))
        if draw(st.booleans()):
            del options[draw(st.integers(0, 1))]
    return draw(st.booleans()), draw(st.permutations(options))


@settings(max_examples=80, deadline=None)
@given(run_argv())
def test_run_fuzz_reports_or_exits_three(drawn):
    with_token, options = drawn
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["run"] if with_token else []
        for flag, value in options:
            if flag == "--g-table":
                path = Path(tmp) / value
                if value in G_TABLES:
                    write_g_table(path, value)
                value = str(path)
            argv += [flag] if value is None else [flag, value]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in {0, 2, 3}
    assert "Traceback" not in err.getvalue()
    if code == 3:   # one error line and no report
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert out.getvalue()
