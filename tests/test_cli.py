"""Command-line surface: argument handling, JSON schema, batch mode.

Every invocation goes through main(argv) in-process so exit codes and both
output streams are observable. The JSON layout is pinned byte-for-byte by
golden files; schema-level checks (key order, exact-decimal strings,
provenance vocabulary) run on freshly parsed output so a failure names the
violated rule rather than a byte offset.
"""

import json
import os
from pathlib import Path

import pytest

from fineselmer.cli import main

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
        ("run", "--curve", CURVE, "--p", "5", "--extension", "user"),  # no table
        ("run", "--p", "5"),  # missing curve
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
            "--extension", "user", "--g-table", str(table),
        )
        assert code == 0
        report = json.loads(out)
        assert report["bound"]["value"] == "14"
        assert report["extension"]["kind"] == "user"
        assert report["places"][0]["g"]["provenance"] == "asserted"
        # cyclotomic extension with a table attached is contradictory
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
            "--extension", "user", "--g-table", str(table),
        )
        assert code == 3
        assert "11" in err
    finally:
        table.unlink()


def test_precision_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("FINESELMER_PRECISION", "24")
    code, out, _ = run_cli(capsys, "run", "--curve", CURVE, "--p", "5")
    assert code == 0
    assert json.loads(out)["bound"]["value"] == "2"
    monkeypatch.setenv("FINESELMER_PRECISION", "zero")
    code, _, err = run_cli(capsys, "run", "--curve", CURVE, "--p", "5")
    assert code == 3


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
        "extension": "user",
        "g_table": [{"residue_char": 11, "g": 7}],
    }) + "\n")
    code, out, _ = run_cli(capsys, "batch", str(f))
    assert code == 0
    report = json.loads(out)
    assert report["bound"]["value"] == "14"
    assert report["extension"]["g_table"] == [
        {"residue_char": "11", "residue_degree": "1", "g": "7"}
    ]


def test_batch_compact_json_has_no_spaces(capsys):
    code, out, _ = run_cli(capsys, "batch", str(GOLDEN / "jobs.ndjson"))
    first = out.splitlines()[0]
    assert '": ' not in first  # batch lines use compact separators
    assert json.loads(first)["bound"]["value"] == "2"


def test_cli_import_leaves_the_process_pool_out():
    # only a --jobs N batch starts a pool; every other process that imports
    # the CLI (run, batch --jobs 1, library users) must not pay for
    # multiprocessing, pickle and socket
    import subprocess
    import sys

    import fineselmer

    src = str(Path(fineselmer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, fineselmer.cli; print('concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
