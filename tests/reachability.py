"""List the src/ functions that no pipeline run and no acceptance test reaches.

Run from the root of a checkout:

    python tests/reachability.py

It needs only the standard library. A sys.setprofile hook records every
Python function called while the package runs

  * the golden batch (tests/golden/jobs.ndjson),
  * every job of bench/corpus.py and its malformed and hostile lines, read
    as data by `fineselmer batch`,
  * one `fineselmer run --format both`, and
  * every test function of tests/test_acceptance.py,

all in this process. It then prints, as a Markdown list, each function
defined under src/ that none of them called, with its line count and the
reason it is kept, from REASONS below. A second list names each dataclass
field under src/ that no attribute read (`x.name`, found with ast) in
src/, tests/, demos/ or bench/ names: a field that is stored and never
read. Both lists are information, not a gate: a function that shows up
without a reason is a candidate for deletion, or for a reason here, and
so is an unread field. pytest does not collect this file.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "fineselmer"

# "module.qualname", or "module.Class" for all of its methods -> why it
# stays although nothing above reaches it
REASONS = {
    "cli._Parser.error": "argparse's hook for a bad argument; tests/test_cli.py drives it",
    "cli._load_g_table_file": "the g table of a user extension (--g-table), which no corpus job uses",
    "cli._parse_g_table": "the g table of a user extension (--g-table), which no corpus job uses",
    "cli._stdout_to_devnull": "a stdout closed mid-run; tests/test_cli.py drives it",
    "cyclotomic.bernoulli_table": "exported; a demo uses it, and it is the reference for the mod-p route",
    "elliptic.WeierstrassModel": "the value protocol of an immutable model, which the tests use",
    "elliptic.point_neg": "scalar_mul's branch for n < 0; the group-law tests use it",
    "factorization.NoGoodPrime": "psi_p with no good prime below GOOD_PRIME_BOUND; tests/test_cli.py lowers the bound to reach it",
    "finitefield.FiniteField": "part of a class that test_acceptance imports",
    "finitefield.FqElem": "part of a class that test_acceptance reaches through FiniteField",
    "finitefield.FqPoly": "part of a class that test_acceptance imports",
    "galoisimage.StableSubgroupWitness.__repr__": "a readable witness when a test fails",
    "modular._rho_split": "Pollard rho; only a discriminant with a large composite cofactor reaches it",
    "padic.PadicNumber": "the root value: immutable, compared by the tests, readable when one fails",
    "polynomial.QPoly.__hash__": "the value protocol of an immutable polynomial, which the tests use",
    "polynomial.QPoly.__setattr__": "the value protocol of an immutable polynomial, which the tests use",
    "polynomial.QPoly.__repr__": "a readable polynomial when a test fails",
    "polynomial.QPoly.gcd": "padic_roots' fallback for a polynomial with a repeated root",
    "polynomial.QPoly.squarefree_part": "padic_roots' fallback for a polynomial with a repeated root",
    "polynomial.QPoly.derivative": "squarefree_part, padic_roots' fallback, runs on it",
    "polynomial.QPoly.__floordiv__": "squarefree_part, padic_roots' fallback, runs on it",
    "polynomial.QPoly.__add__": "a ring operator the tests and the oracles build with; the stable-line search multiplies kernels on int lists",
    "polynomial.QPoly.__mul__": "a ring operator the tests and the oracles build with; the stable-line search multiplies kernels on int lists",
    "polynomial.QPoly.__pow__": "a ring operator the tests build inputs with",
    "polynomial.QPoly.__reduce__": "pickle and copy of an immutable polynomial, which the tests use",
    "polynomial.QPoly.one": "a constructor the tests build inputs with",
    "polynomial.QPoly.__sub__": "a ring operator the tests build inputs with",
    "polynomial.QPoly.constant": "a constructor the tests build inputs with",
    "polynomial.QPoly.x": "a constructor the tests build inputs with",
}


def defined_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> ("module.qualname", line count) for every
    function and method under src/fineselmer. The first line is that of
    the first decorator, as in the code object's co_firstlineno."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}{child.name}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = (f"{module}.{name}",
                                                 child.end_lineno - first + 1)
                    visit(child, f"{name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def unread_dataclass_fields() -> list[str]:
    """"module.Class.field" for each dataclass field under src/fineselmer
    whose name no attribute read in src/, tests/, demos/ or bench/ names."""
    read = set()
    for folder in ("src", "tests", "demos", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                unread += [f"{path.stem}.{node.name}.{item.target.id}"
                           for item in node.body if isinstance(item, ast.AnnAssign)
                           and item.target.id not in read]
    return unread


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module   # a dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


class Capsys:
    """The part of pytest's capsys fixture that test_acceptance uses."""

    def __init__(self, out: io.StringIO):
        self.out = out

    def readouterr(self):
        text = self.out.getvalue()
        self.out.seek(0)
        self.out.truncate()
        return types.SimpleNamespace(out=text, err="")


def pipeline_runs(work: Path) -> None:
    from fineselmer import cli

    corpus = load(ROOT / "bench" / "corpus.py", "bench_corpus")
    jobs = [job for value in vars(corpus).values() if isinstance(value, tuple)
            for job in value if isinstance(job, corpus.Job)]
    lines = ([json.dumps(job.as_dict()) for job in jobs]
             + [line for line, _ in corpus.BATCH_MALFORMED] + [corpus.hostile_line()])
    batch = work / "corpus.ndjson"
    batch.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        cli.main(["batch", str(ROOT / "tests" / "golden" / "jobs.ndjson")])
        cli.main(["batch", str(batch)])
        cli.main(["run", "--curve", "0,-1,1,-7820,-263580", "--label", "11a2",
                  "--p", "5", "--format", "both"])


def acceptance_tests() -> None:
    sys.path.insert(0, str(ROOT / "tests"))
    module = load(ROOT / "tests" / "test_acceptance.py", "test_acceptance")
    for name, test in vars(module).items():
        if name.startswith("test_") and callable(test):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                if test.__code__.co_argcount:
                    test(Capsys(out))
                else:
                    test()


def main() -> int:
    sys.path.insert(0, str(SRC))
    defined = defined_functions()
    reached: set[tuple[str, int]] = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(hook)
        try:
            pipeline_runs(Path(tmp))
            acceptance_tests()
        finally:
            sys.setprofile(None)

    unreached = sorted(defined[key] for key in defined if key not in reached)
    total = sum(lines for _, lines in unreached)
    print(f"src/ functions reached by no pipeline run and no acceptance test: "
          f"{len(unreached)} of {len(defined)}, {total} lines")
    print()
    used = set()
    for name, lines in unreached:
        key = name if name in REASONS else name.rsplit(".", 1)[0]
        used.add(key)
        print(f"- `{name}` ({lines} lines): {REASONS.get(key, 'no reason recorded')}")
    stale = sorted(set(REASONS) - used)
    if stale:
        print()
        print("Reasons kept for functions that are now reached or gone: "
              + ", ".join(f"`{name}`" for name in stale))
    unread = unread_dataclass_fields()
    print()
    print(f"src/ dataclass fields that no attribute read names: {len(unread)}")
    if unread:
        print()
        for name in unread:
            print(f"- `{name}`")
    return 0


if __name__ == "__main__":
    sys.exit(main())
