"""Golden CLI documents: stdout, stderr and exit code of fixed command lines.

The documents in ``golden/cli_documents.json`` pin the CLI byte for byte: every
command line of README's Command line block in all three formats, cohomology
tables that go through each node kind of the expression language, and engine
errors.  To rewrite them after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

import contextlib
import io
import json
import os
import re
import shlex
import sys
from pathlib import Path

import pytest

from sheafcalc.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_documents.json"
FORMATS = ("table", "csv", "json")
FILES = {"exprs.txt": "# one expression per line\nO(1)\ncoker(O(-2) -> Omega1(1))  # F\n"}

# (sheaf, twists): each node kind, alone and nested
SHEAVES = [
    ("twist(coker(O(-2) -> Omega1(1)), 3)", "-2..2"),
    ("rdual(coker(O(-1) -> TX(1)))", "-2..2"),
    ("rdual(ker(TX -> O(4)))", "-1..1"),
    ("dual(TX(-1) + O(2))", "-2..2"),
    ("twist(dual(Omega1(-1) + O(3)), 2)", "-6..3"),
    ("dual(coker(O(-2) -> Omega1(1)))", "-2..2"),
    ("dual(coker(O(-1) -> TX)) + O(1)", "-1..1"),
    ("O(1) + Omega1(2) + TX(-3)", "-3..1"),
    ("coker(O(-4) -> TX)", "-2..2"),
    ("ker(TX -> O(4))", "-2..2"),
    ("coker(rdual(coker(O(-1) -> TX)) -> twist(dual(Omega1), 1) + O(1))", "-2..2"),
    ("ker(dual(O(-1) + Omega1) -> O(3))", "-2..2"),
    # all three tables of the sequence are empty: '?' everywhere
    ("coker(dual(coker(O(-1) -> O(0) + O(0))) -> "
     "dual(coker(O(-2) -> O(0) + O(0) + O(0))))", "-2..2"),
    # an exact first term, a boxed middle and a free last term at 6 of its
    # 7 twists: the closed form for an exact end, whatever the middle
    ("ker(ker(TX(1) -> O(43)) -> O(42))", "-3..3"),
]
ERRORS = [
    ["cohomology", "--sheaf", "coker(O(1) -> O(0))", "--twists", "0..0"],
    ["cohomology", "--sheaf", "ker(O(0) -> O(0) + O(0))", "--twists", "0..0"],
    ["cohomology", "--sheaf", "rdual(O(1))", "--twists", "0..0"],
    ["spectrum", "--threefold", "quintic", "--r", "1"],
]


def readme_command_lines():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("sheafcalc ")
    ]


def with_format(argv, fmt):
    out = []
    args = iter(argv)
    for arg in args:
        if arg == "--format":
            next(args)
        else:
            out.append(arg)
    return out + ["--format", fmt]


def command_lines():
    lines = [with_format(argv, fmt) for argv in readme_command_lines() for fmt in FORMATS]
    lines += [
        ["cohomology", "--sheaf", sheaf, "--twists", twists, "--format", fmt]
        for sheaf, twists in SHEAVES
        for fmt in FORMATS
    ]
    return lines + ERRORS


def run(argv, workdir):
    """(exit code, stdout, stderr) of cli.main in workdir, FILES written there."""
    for name, text in FILES.items():
        (Path(workdir) / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def load_golden():
    return json.loads(GOLDEN.read_text())


def test_golden_set_covers_the_readme_and_the_sheaf_cases():
    assert [case["argv"] for case in load_golden()] == command_lines()


# an absent file fails the coverage test above; regenerating must not need it
@pytest.mark.parametrize(
    "case", load_golden() if GOLDEN.exists() else [], ids=lambda case: " ".join(case["argv"])
)
def test_cli_document_is_byte_identical(case, tmp_path):
    code, out, err = run(case["argv"], tmp_path)
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


if __name__ == "__main__":
    import tempfile

    cases = []
    with tempfile.TemporaryDirectory() as workdir:
        for argv in command_lines():
            code, out, err = run(argv, workdir)
            cases.append({"argv": argv, "code": code, "stdout": out, "stderr": err})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} documents to {GOLDEN}", file=sys.stderr)
