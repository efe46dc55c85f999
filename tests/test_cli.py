import contextlib
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafcalc.chow import P3, QUINTIC, chi_series, threefold_to_dict
from sheafcalc.cli import OutputDocument, _CohomDocument, main
from sheafcalc.cohomology import _MAX_SPAN, CohomTable, generic_dist_cohom
from sheafcalc.errors import EngineError
from sheafcalc.sheafdsl import chern_of, cohom_of, parse, pretty


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_moduli_json_payload(capsys):
    code, out, err = run_cli(capsys, "moduli", "--degree", "1", "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["dim_component"] == 19
    assert payload["chern"] == [1, 3, 5]
    assert payload["normalized_chern"] == [-1, 3, 5]
    assert payload["ext2"] == 0
    assert payload["curve_family"]["degree"] == 5
    assert payload["resolution"]["h0_twisted"] == 6
    # every numeric claim is traceable to the rule that produced it
    assert payload["sources"]["dim_component"] == "thmC"
    assert payload["sources"]["ext2"] == "eqKey"


def test_invariants_degree_two(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", "--threefold", "p3", "--degree", "2",
        "--generic", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chern"] == [0, 6, 20]
    assert payload["singular_length"] == 20
    assert payload["stability"]["status"] == "Stable"
    assert payload["sources"]["stability"] == "thmA"


def test_invariants_without_generic_flag_is_gated(capsys):
    code, out, err = run_cli(
        capsys, "invariants", "--threefold", "p3", "--degree", "2"
    )
    assert code == 3 and out == ""
    assert err.startswith("HypothesisError")


def test_cohomology_table_has_h1_at_d_minus_2(capsys):
    code, out, _ = run_cli(
        capsys, "cohomology", "--sheaf", "coker(O(-2) -> Omega1(1))",
        "--twists", "-1..1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["twist", "h0", "h1", "h2", "h3", "chi"]
    row = dict(zip(["twist", "h0", "h1", "h2", "h3", "chi"], lines[2].split()))
    assert row == {"twist": "-1", "h0": "0", "h1": "1", "h2": "0", "h3": "0",
                   "chi": "-1"}
    # an abbreviation argparse reads as --twists takes a negative range too
    for flag in ("--twist", "--tw"):
        assert run_cli(capsys, "cohomology", "--sheaf", "coker(O(-2) -> Omega1(1))",
                       flag, "-1..1") == (0, out, "")
    with pytest.raises(SystemExit) as exc:  # --threefold or --twists
        main(["cohomology", "--sheaf", "O(1)", "--t", "-1..1"])
    assert exc.value.code == 2


def test_cohomology_json_entry_statuses(capsys):
    code, out, _ = run_cli(
        capsys, "cohomology", "--sheaf", "ker(TX -> O(4))",
        "--twists", "0..0", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    row = payload["table"][0]
    assert row["h1"] == {"status": "bounded", "lo": 20, "hi": 35}
    assert row["h2"] == {"status": "known", "value": 0}


def test_spectrum_normalize(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--threefold", "quintic", "--r", "2",
        "--normalize", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chern"] == [-2, 70, 340]
    assert payload["normalized"] == [0, 65, 340]


def test_engine_error_exit_code_and_name(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--threefold", "quintic",
                             "--r", "1")
    assert code == 3 and out == ""
    assert err.startswith("HypothesisError")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--threefold", "quintic"])  # missing --r
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--threefold", "quintic", "--degree", "1",
              "--generic"])  # degree is a p3 notion
    assert exc.value.code == 2


def test_determinism_byte_identical(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "moduli", "--degree", "4", "--format", "json"
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "cohomology", "--sheaf", "TX(-2)", "--twists", "-3..3"
        )
        assert code == 0
        runs.append(out)
    assert runs[2] == runs[3]


def test_csv_output(capsys):
    code, out, _ = run_cli(
        capsys, "cohomology", "--sheaf", "O(1)", "--twists", "0..2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "twist,h0,h1,h2,h3,chi"
    assert lines[1] == "0,4,0,0,0,4"


def test_presets_list(capsys):
    code, out, _ = run_cli(capsys, "presets", "list", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    names = [rec["name"] for rec in payload["presets"]]
    assert names == ["p3", "quintic", "quadric"]


def test_threefold_from_file_and_env_dir(capsys, tmp_path, monkeypatch):
    doc = threefold_to_dict(QUINTIC)
    doc["name"] = "custom"
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(doc))

    code, out, _ = run_cli(
        capsys, "spectrum", "--threefold", str(path), "--r", "2",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["chern"] == [-2, 70, 340]

    monkeypatch.setenv("SHEAFCALC_PRESETS", str(tmp_path))
    code, out, _ = run_cli(
        capsys, "spectrum", "--threefold", "custom", "--r", "2",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["threefold"] == "custom"


def test_unknown_threefold(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--threefold", "nowhere",
                           "--r", "2")
    assert code == 3
    assert err.startswith("DomainError")


@pytest.mark.parametrize("content, reason", [
    (b'{"name": "\xff"}', "cannot read threefold file: "),
    (b"[" * 100_000 + b"]" * 100_000, "invalid JSON in threefold file: "),
    # a valid preset but for the second h3, which json.loads alone would keep
    (b'{"name": "dup", "h3": 1, "cX": 4, "c2TX_H": 6, "c3TX": 4, "rhoX": 2, "gammaX": 2, '
     b'"tx_stable": "stable", "h1_line_vanishing": true, "h3": 2}',
     "threefold document repeats key 'h3'"),
], ids=["not-utf-8", "nested-100000-deep", "repeated-key"])
def test_unreadable_preset_is_a_domain_error(content, reason, capsys, tmp_path, monkeypatch):
    (tmp_path / "bad.json").write_bytes(content)
    monkeypatch.setenv("SHEAFCALC_PRESETS", str(tmp_path))
    for threefold in (str(tmp_path / "bad.json"), "bad"):
        code, out, err = run_cli(capsys, "spectrum", "--threefold", threefold, "--r", "2")
        assert (code, out) == (3, "")
        assert err.startswith(f"DomainError: {reason}")


def test_non_utf8_batch_file_is_a_domain_error(capsys, tmp_path):
    batch = tmp_path / "exprs.txt"
    batch.write_bytes(b"O(1)\n\xff\xfe\n")
    code, out, err = run_cli(capsys, "cohomology", "--batch", str(batch), "--twists", "0..0")
    assert (code, out) == (3, "")
    assert err.startswith("DomainError: cannot read batch file: ")


def test_over_long_threefold_names_are_domain_errors(capsys, tmp_path, monkeypatch):
    # the path and the preset file name exceed NAME_MAX, which stat refuses
    name = "a" * 5_000
    argv = ["invariants", "--threefold", name, "--degree", "1", "--generic"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("DomainError: unknown threefold")
    monkeypatch.setenv("SHEAFCALC_PRESETS", str(tmp_path))
    code, out, err = run_cli(capsys, *argv[:2], "a" * 300, *argv[3:])
    assert (code, out) == (3, "")
    assert err.startswith("DomainError: unknown threefold")


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def _run_module(argv, **env):
    # python -m sheafcalc.cli in a fresh interpreter, under the given locale
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONIOENCODING", "LANG", "LANGUAGE") and not k.startswith("LC_")}
    env = dict(base, PYTHONPATH=os.pathsep.join([src, *sys.path]), **env)
    return subprocess.run([sys.executable, "-m", "sheafcalc.cli", *argv],
                          capture_output=True, env=env)


def _kahler_preset(tmp_path) -> str:
    # the p3 numbers under a non-ASCII name, written as UTF-8 bytes:
    # json.dumps alone would escape the name to ASCII
    doc = dict(threefold_to_dict(P3), name="k\u00e4hler")
    path = tmp_path / "kahler.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode())
    return str(path)


def test_utf8_files_read_the_same_in_an_ascii_locale(tmp_path):
    (tmp_path / "exprs.txt").write_bytes("# a K\u00e4hler twist\nO(1)\n".encode())
    runs = [
        ["invariants", "--threefold", _kahler_preset(tmp_path), "--degree", "1",
         "--generic", "--format", "json"],
        ["cohomology", "--batch", str(tmp_path / "exprs.txt"), "--twists", "-1..1",
         "--format", "json"],
    ]
    documents = []
    for argv in runs:
        utf8 = _run_module(argv, PYTHONUTF8="1")
        ascii_run = _run_module(argv, **ASCII_LOCALE)
        assert (utf8.returncode, utf8.stderr) == (0, b"")
        assert (ascii_run.returncode, ascii_run.stderr) == (0, b"")
        assert ascii_run.stdout == utf8.stdout
        documents.append(json.loads(utf8.stdout))
    assert documents[0]["threefold"] == "k\u00e4hler"
    assert [r["expression"] for r in documents[1]["results"]] == ["O(1)"]


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_unencodable_output_is_a_typed_error(fmt, tmp_path):
    child = _run_module(["invariants", "--threefold", _kahler_preset(tmp_path),
                         "--degree", "1", "--generic", "--format", fmt], **ASCII_LOCALE)
    assert (child.returncode, child.stdout) == (3, b"")
    assert child.stderr.startswith(b"NotComputable: ")


# Each subcommand with the sheafcalc modules it loads: its handler imports
# what it uses, and the package itself imports nothing until asked.
SUBCOMMAND_MODULES = [
    (["invariants", "--threefold", "p3", "--degree", "2", "--generic"], {"dist"}),
    (["moduli", "--degree", "1", "--format", "json"], {"modulispec", "dist"}),
    (["cohomology", "--sheaf", "coker(O(-2) -> Omega1(1))", "--twists", "-1..1",
      "--format", "csv"], {"sheafdsl", "cohomology"}),
    (["spectrum", "--threefold", "quintic", "--r", "2", "--normalize"], {"modulispec", "dist"}),
    (["subfoliation", "--threefold", "p3", "--c1", "1", "--tg", "-1", "--sing1f", "empty"],
     {"dist"}),
    (["conncomp", "--threefold", "p3", "--c1", "1", "--generic", "--c3", "5"],
     {"dist", "cohomology"}),
    (["presets", "list"], set()),
]
# runs the console-script entry point, sheafcalc.cli:main, in a fresh interpreter
_LOADED_MODULES = (
    "import json, sys\n"
    "from sheafcalc.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)\n"
)


@pytest.mark.parametrize("argv, modules", SUBCOMMAND_MODULES,
                         ids=[argv[0] for argv, _ in SUBCOMMAND_MODULES])
def test_subcommand_loads_only_the_modules_it_uses(argv, modules):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *sys.path]))
    child = subprocess.run([sys.executable, "-c", _LOADED_MODULES, *argv],
                           capture_output=True, text=True, env=env)
    code, loaded = json.loads(child.stderr.splitlines()[-1])
    assert code == 0 and child.stdout
    assert not {"dataclasses", "fractions", "inspect"} & set(loaded)
    ours = {m.split(".", 1)[1] for m in loaded if m.startswith("sheafcalc.")}
    assert ours == {"cli", "chow", "errors", "record"} | modules


def test_sing1f_choices_are_the_engine_kinds():
    # the parser lists them itself, so that building it loads no dist
    from sheafcalc import dist
    from sheafcalc.cli import SING1F_KINDS

    assert SING1F_KINDS == (dist.SING1_EMPTY, dist.SING1_IRREDUCIBLE_REDUCED, dist.SING1_OTHER)


def test_twist_width_cap_and_batch_lift(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--sheaf", "O(1)", "--twists", "0..500"])
    assert exc.value.code == 2

    batch = tmp_path / "exprs.txt"
    batch.write_text("# batch of two\nO(1)\nTX(-2)\n")
    code, out, _ = run_cli(
        capsys, "cohomology", "--batch", str(batch), "--twists", "-150..150",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["expression"] for r in payload["results"]] == ["O(1)", "TX(-2)"]
    assert len(payload["results"][0]["table"]) == 301


def test_batch_twist_width_cap(capsys, tmp_path):
    # a batch renders its whole document before printing, so width is capped
    batch = tmp_path / "exprs.txt"
    batch.write_text("O(1)\n")
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--batch", str(batch), "--twists", f"0..{_MAX_SPAN}"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"--twists width exceeds {_MAX_SPAN}" in err

    code, out, err = run_cli(
        capsys, "cohomology", "--batch", str(batch), "--twists",
        f"1..{_MAX_SPAN}", "--format", "csv",
    )
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1 + _MAX_SPAN


def test_conncomp_generic_substitution(capsys):
    code, out, _ = run_cli(
        capsys, "conncomp", "--threefold", "p3", "--c1", "1", "--generic",
        "--c3", "5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["h2"] == 4 and payload["h2_origin"] == "generic-case"
    assert payload["count"] == {"kind": "Exact", "value": 0}
    assert payload["sources"]["h2"] == "lemmaCohomology"


def test_conncomp_generic_answers_at_every_degree(capsys):
    for c1 in range(2, -9, -1):
        code, out, _ = run_cli(
            capsys, "conncomp", "--threefold", "p3", "--c1", str(c1), "--generic",
            "--c3", "0", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        d = 2 - c1
        h2 = generic_dist_cohom(d, c1 - 4)[2]
        assert h2.status == "known" and payload["h2"] == h2.lo
        assert (payload["sources"]["h2"] == "serreDuality") == (d >= 2)


def test_conncomp_interval_output(capsys):
    code, out, _ = run_cli(
        capsys, "conncomp", "--threefold", "p3", "--c1", "0", "--h2", "21",
        "--c3", "20", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == {"kind": "Interval", "lo": 1, "hi": 2}
    assert payload["sources"]["count"] == "corP3"


def test_subfoliation_table(capsys):
    code, out, _ = run_cli(
        capsys, "subfoliation", "--threefold", "p3", "--c1", "1", "--tg", "-1",
        "--sing1f", "empty",
    )
    assert code == 0
    assert "y_class" in out and "5" in out
    assert "Splits" in out


def _readme_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("sheafcalc ")
    ]


README_COMMANDS = _readme_commands()


def test_readme_lists_every_subcommand():
    assert {argv[0] for argv in README_COMMANDS} == {
        "invariants", "moduli", "cohomology", "spectrum", "subfoliation",
        "conncomp", "presets",
    }


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_line_examples_run(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exprs.txt").write_text(
        "# one expression per line\nO(1)\ncoker(O(-2) -> Omega1(1))  # F\n"
    )
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and out


def _without_format(argv):
    i = argv.index("--format") if "--format" in argv else len(argv)
    return argv[:i] + argv[i + 2:]


PARSER_REUSE_ARGVS = [
    [], ["--help"], ["bogus"], ["cohomology", "--help"],
    ["spectrum", "--threefold", "quintic"],  # missing --r
    ["moduli", "--degree", "x"],
    ["cohomology", "--sheaf", "O(1)", "--twists", "3..1"],  # refused by the handler
    ["invariants", "--threefold", "quintic", "--degree", "1", "--generic"],
    ["spectrum", "--threefold", "quintic", "--r", "1"],  # an engine error
] + [
    _without_format(argv) + ["--format", fmt]
    for argv in README_COMMANDS
    for fmt in ("table", "csv", "json")
]


def test_main_builds_one_parser_and_reuses_it(tmp_path, monkeypatch):
    # every answer of a reused parser, usage errors and help included, is
    # that of a parser built for the one call
    from sheafcalc import cli

    monkeypatch.chdir(tmp_path)
    (tmp_path / "exprs.txt").write_text("O(1)\ncoker(O(-2) -> Omega1(1))\n")
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    passes = [[_run_main(list(argv)) for argv in PARSER_REUSE_ARGVS] for _ in range(2)]
    assert len(built) == 1
    assert passes[0] == passes[1]
    fresh = []
    for argv in PARSER_REUSE_ARGVS:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(_run_main(list(argv)))
    assert fresh == passes[0]
    assert {code for code, _, _ in fresh} == {0, 2, 3}


def _engine_error_names(cls=EngineError):
    names = {cls.name}
    for sub in cls.__subclasses__():
        names |= _engine_error_names(sub)
    return names


ENGINE_ERROR_NAMES = _engine_error_names()


def _expression_text(depth):
    # expression text at most `depth` levels deep, with some faults mixed in
    leaf = st.one_of(
        st.integers(-6, 6).map("O({})".format),
        st.sampled_from(["TX", "Omega1", "mystery"]),
        st.tuples(st.sampled_from(["TX", "Omega1"]), st.integers(-6, 6)).map(
            lambda p: f"{p[0]}({p[1]})"
        ),
        # rank-2 shapes, so that some rduals are defined
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
            lambda p: f"rdual(O({p[0]}) + O({p[1]}))"
        ),
        st.integers(-3, 3).map("rdual(coker(O(-1) -> TX({})))".format),
    )
    if depth <= 4:  # the deepest leaf, rdual(coker(O(-1) -> TX(t))), has 4
        return leaf
    sub = _expression_text(depth - 1)
    # rdual of an arbitrary term is mostly UnsupportedRank, so it is rarer
    unary = st.sampled_from(
        ["twist({}, 1)", "twist({}, -3)", "dual({})", "dual({})", "rdual({})"]
    )
    return st.one_of(
        leaf,
        st.tuples(unary, sub).map(lambda p: p[0].format(p[1])),
        st.tuples(sub, sub).map(lambda p: f"coker({p[0]} -> {p[1]})"),
        st.tuples(sub, sub).map(lambda p: f"ker({p[0]} -> {p[1]})"),
        st.tuples(sub, sub).map(" + ".join),
    )


def _run_main(argv):
    # hypothesis runs many examples per test, so capsys cannot capture them
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argument vector
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _run_cohomology(sheaf):
    return _run_main(["cohomology", "--sheaf", sheaf, "--twists", "-2..2"])


def _assert_documented_exit(code, out, err):
    assert code in (0, 2, 3)
    if code == 0:
        assert err == "" and out
    if code == 3:
        # exactly one stderr line, the typed error name and its message
        assert out == ""
        line, newline, rest = err.partition("\n")
        assert newline and not rest
        name, sep, message = line.partition(": ")
        assert sep and message and name in ENGINE_ERROR_NAMES


@given(
    st.one_of(
        st.text(),
        st.text(alphabet=st.sampled_from(list("OTXmega1dulkrcotwis(),+->-0123 "))),
    )
)
@settings(max_examples=100, deadline=None)
def test_random_sheaf_text_exits_with_a_documented_code(sheaf):
    _assert_documented_exit(*_run_cohomology(sheaf))


@given(_expression_text(8))
@settings(max_examples=100, deadline=None)
def test_nested_expressions_exit_with_a_documented_code(sheaf):
    _assert_documented_exit(*_run_cohomology(sheaf))


def test_p3_numbers_under_another_name_give_the_p3_tables(capsys, tmp_path):
    # atom tables and the walk's own tables must meet in one chase
    doc = threefold_to_dict(P3)
    doc["name"] = "myp3"
    path = tmp_path / "myp3.json"
    path.write_text(json.dumps(doc))
    for sheaf in ("coker(O(-1) -> O(0))", "ker(TX -> O(4))", "rdual(coker(O(-1) -> TX))"):
        payloads = []
        for threefold in ("p3", str(path)):
            code, out, err = run_cli(
                capsys, "cohomology", "--threefold", threefold, "--sheaf", sheaf,
                "--twists", "-2..2", "--format", "json",
            )
            assert code == 0 and err == ""
            payloads.append(json.loads(out))
        assert payloads[1]["threefold"] == "myp3"
        assert payloads[1]["table"] == payloads[0]["table"]


# Python 3.10.7 and later refuse int <-> str conversions past a digit limit
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "9" * (DIGIT_LIMIT + 1)  # past the limit
CUBED = "9" * (DIGIT_LIMIT // 3 + 100)  # within it, but its cube is not


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python has no int digit limit")
@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["cohomology", "--sheaf", f"O({LONG})", "--twists", "0..0"], 3,
         f"SyntaxError: integer has more than {DIGIT_LIMIT} digits (at byte 2)"),
        (["cohomology", "--sheaf", "O(0)", "--twists", f"0..{LONG}"], 2,
         f"sheafcalc: error: --twists bounds have more than {DIGIT_LIMIT} digits"),
        (["cohomology", "--sheaf", f"O({CUBED})", "--twists", "0..0"], 3,
         f"NotComputable: an integer has more than {DIGIT_LIMIT} digits"),
        (["cohomology", "--sheaf", f"O({CUBED})", "--twists", "0..0", "--format", "json"], 3,
         f"NotComputable: an integer has more than {DIGIT_LIMIT} digits"),
        (["invariants", "--threefold", "p3", "--degree", CUBED, "--generic"], 3,
         f"NotComputable: an integer has more than {DIGIT_LIMIT} digits"),
        (["invariants", "--threefold", "p3", "--degree", LONG, "--generic"], 2,
         "sheafcalc invariants: error: argument --degree: invalid int value"),
    ],
    ids=["sheaf literal", "twists bound", "table cell", "json cell", "invariants", "argv int"],
)
def test_integers_past_the_digit_limit_exit_with_a_documented_code(argv, code, message, capsys):
    try:
        found = main(argv)
    except SystemExit as exc:  # argparse refuses the argument vector
        found = exc.code
    out, err = capsys.readouterr()
    assert found == code and out == ""
    assert err.splitlines()[-1].startswith(message)
    if code == 3:
        _assert_documented_exit(found, out, err)


@st.composite
def _extreme_int(draw, last_digit=None):
    # decimal text of 1 to DIGIT_LIMIT + 10 digits, either sign; the lengths
    # where a value, its square or its cube crosses the limit are drawn often
    near = [DIGIT_LIMIT // k + j for k in (1, 2, 3) for j in (-1, 0, 1, 10)]
    n = draw(st.one_of(st.integers(1, DIGIT_LIMIT + 10), st.sampled_from(near)))
    pattern = draw(st.text(alphabet="0123456789", min_size=1, max_size=3))
    digits = (draw(st.sampled_from("123456789")) + pattern * n)[:n]
    if last_digit is not None:
        digits = digits[:-1] + str(last_digit)
    return draw(st.sampled_from(["", "-"])) + digits


@st.composite
def _twist_range(draw):
    # both bounds extreme, lo <= hi, width 1 to 3: only the last digit differs
    width, last = draw(st.integers(1, 3)), draw(st.integers(0, 7))
    small = draw(_extreme_int(last))
    large = small[:-1] + str(last + width - 1)  # same sign, larger magnitude
    return f"{large}..{small}" if small.startswith("-") else f"{small}..{large}"


@st.composite
def _argv_with_extreme_ints(draw):
    def num():
        return draw(_extreme_int())

    threefold = draw(st.sampled_from(["p3", "quintic", "quadric"]))
    command = draw(st.sampled_from(
        ["invariants", "moduli", "cohomology", "spectrum", "subfoliation", "conncomp"]
    ))
    if command == "invariants":
        slot = draw(st.sampled_from(["--degree", "--c1"]))
        argv = ["invariants", "--threefold", "p3" if slot == "--degree" else threefold,
                slot, num()] + draw(st.sampled_from([[], ["--generic"]]))
    elif command == "moduli":
        argv = ["moduli", "--degree", num()]
    elif command == "cohomology":
        sheaf = draw(st.sampled_from([
            "O({})", "twist(TX, {})", "twist(Omega1, {})", "twist(coker(O(-1) -> TX), {})",
            "rdual(twist(O(1) + O(2), {}))",
        ]))
        if draw(st.booleans()):  # the extreme integer in the sheaf, or in both bounds
            sheaf, twists = sheaf.format(num()), "-1..1"
        else:
            sheaf, twists = sheaf.format(1), draw(_twist_range())
        argv = ["cohomology", "--threefold", threefold, "--sheaf", sheaf, "--twists", twists]
    elif command == "spectrum":
        argv = ["spectrum", "--threefold", threefold, "--r", num()] \
            + draw(st.sampled_from([[], ["--normalize"]]))
    elif command == "subfoliation":
        argv = ["subfoliation", "--threefold", threefold, "--c1", num(), "--tg", num(),
                "--sing1f", draw(st.sampled_from(["empty", "irred", "other"]))]
    else:
        h2 = draw(st.sampled_from([["--generic"], ["--h2", num()]]))
        argv = ["conncomp", "--threefold", threefold, "--c1", num()] + h2 + ["--c3", num()]
    return argv + ["--format", draw(st.sampled_from(["table", "csv", "json"]))]


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python has no int digit limit")
@given(_argv_with_extreme_ints())
@settings(max_examples=200, deadline=None)
def test_extreme_integers_exit_with_a_documented_code(argv):
    _assert_documented_exit(*_run_main(argv))


# ---------------------------------------------------------------------------
# JSON documents, against json.dumps(indent=2) as the reference.


def test_the_json_writer_writes_every_golden_payload():
    cases = json.loads((Path(__file__).parent / "golden" / "cli_documents.json").read_text())
    documents = [
        case["stdout"] for case in cases
        if case["code"] == 0 and case["argv"][-2:] == ["--format", "json"]
    ]
    assert len(documents) >= 15
    for document in documents:
        assert json.dumps(json.loads(document), indent=2) + "\n" == document


# ---------------------------------------------------------------------------
# Cohomology documents, written from templates, against the payload dicts
# that json.dumps writes.

json_strings = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\n\té \U0001f600𐏿'),
    st.characters(blacklist_categories=()),  # every code point, lone surrogates too
))


def _pair_json(pair):
    # a table's (lo, hi) pair: the unknown (0, None), known or bounded
    lo, hi = pair
    if hi is None:
        return {"status": "unknown"}
    if lo == hi:
        return {"status": "known", "value": lo}
    return {"status": "bounded", "lo": lo, "hi": hi}


def _oracle_payload(expr, threefold, table, lo, hi):
    # a cohomology result as the dicts json.dumps writes
    chis = chi_series(table.chern, lo, table.X)
    rows = []
    for t in range(lo, hi + 1):
        h0, h1, h2, h3 = table.column(t)
        rows.append({
            "twist": t,
            "h0": _pair_json(h0),
            "h1": _pair_json(h1),
            "h2": _pair_json(h2),
            "h3": _pair_json(h3),
            "chi": next(chis),
        })
    chern = table.chern
    return {
        "expression": pretty(expr),
        "threefold": threefold,
        "rank": chern.rank,
        "chern": [chern.c1, chern.n2, chern.n3],
        "twists": [lo, hi],
        "table": rows,
        "sources": {"chern": "dslWhitney", "table": "bottChase", "chi": "hrr"},
    }


def _result(expr, table, lo, hi):
    # a cohomology result as the handler builds it
    chis = chi_series(table.chern, lo, table.X)
    return pretty(expr), table.chern, [(t, table.column(t), next(chis)) for t in range(lo, hi + 1)]


HUGE = 10**330
table_pairs = st.one_of(
    st.just((0, None)),
    st.integers(0, HUGE).map(lambda n: (n, n)),
    st.tuples(st.integers(0, HUGE), st.integers(1, HUGE)).map(lambda p: (p[0], p[0] + p[1])),
)


@st.composite
def _cohom_documents(draw):
    # (threefold, lo, hi, tables, batch): 0-3 tables of a --batch document or
    # one of a --sheaf document, over twists of either sign; a table has drawn
    # columns or no columns, or is a sum with a side that has none
    lo = draw(st.integers(-10**6, 10**6))
    hi = lo + draw(st.integers(0, 5))
    batch = draw(st.booleans())
    tables = []
    for _ in range(draw(st.integers(0, 3)) if batch else 1):
        kind = draw(st.sampled_from(["drawn", "no columns", "sum"]))
        if kind == "drawn":
            expr = parse(f"O({draw(st.integers(-50, 50))})")
            column = st.tuples(table_pairs, table_pairs, table_pairs, table_pairs)
            columns = draw(st.lists(column, min_size=hi - lo + 1, max_size=hi - lo + 1))
            tables.append((expr, CohomTable.of_columns(P3, chern_of(expr), lo, columns)))
        else:
            expr = parse("dual(coker(O(-1) -> TX))" + (" + O(1)" if kind == "sum" else ""))
            tables.append((expr, cohom_of(expr, (lo, hi))))
    return draw(st.one_of(st.just("p3"), json_strings)), lo, hi, tables, batch


@given(_cohom_documents())
@settings(max_examples=300, deadline=None)
def test_cohomology_documents_are_written_as_json_dumps_writes_their_payloads(document):
    threefold, lo, hi, tables, batch = document
    results = [_result(expr, table, lo, hi) for expr, table in tables]
    oracles = [_oracle_payload(expr, threefold, table, lo, hi) for expr, table in tables]
    payload = _CohomDocument(threefold, lo, hi, results, batch)
    oracle = {"results": oracles} if batch else oracles[0]
    text = OutputDocument("json", payload, None).render()
    assert text == json.dumps(oracle, indent=2) + "\n"
    assert json.loads(text) == oracle


# ---------------------------------------------------------------------------
# JSON and CSV documents are built apart; one run's two documents must agree.

AGREEMENT_BATCHES = [
    # the golden batch file
    "# one expression per line\nO(1)\ncoker(O(-2) -> Omega1(1))  # F\n",
    # bounded entries, and tables of '?' alone
    "coker(rdual(coker(O(-1) -> TX)) -> twist(dual(Omega1), 1) + O(1))\n"
    "ker(dual(O(-1) + Omega1) -> O(3))\n"
    "coker(dual(coker(O(-1) -> O(0) + O(0))) -> dual(coker(O(-2) -> O(0) + O(0) + O(0))))\n"
    "dual(coker(O(-1) -> TX)) + O(1)\n",
    "twist(rdual(ker(TX -> O(4))), -2)\nO(1) + Omega1(2) + TX(-3)\n",
    "# no expression\n",
]


def _cell_text(cell):
    if cell["status"] == "known":
        return str(cell["value"])
    if cell["status"] == "bounded":
        return f"{cell['lo']}..{cell['hi']}"
    assert cell == {"status": "unknown"}
    return "?"


@pytest.mark.parametrize(
    "batch", AGREEMENT_BATCHES, ids=["golden", "bounded and unknown", "sums", "empty"]
)
def test_json_and_csv_documents_of_a_batch_agree(batch, capsys, tmp_path):
    path = tmp_path / "batch.txt"
    path.write_text(batch)
    documents = {}
    for fmt in ("json", "csv"):
        code, out, err = run_cli(
            capsys, "cohomology", "--batch", str(path), "--twists", "-4..3", "--format", fmt
        )
        assert code == 0 and err == ""
        documents[fmt] = out
    expected = [["expression", "twist", "h0", "h1", "h2", "h3", "chi"]] + [
        [result["expression"], str(row["twist"])]
        + [_cell_text(row[f"h{i}"]) for i in range(4)]
        + [str(row["chi"])]
        for result in json.loads(documents["json"])["results"]
        for row in result["table"]
    ]
    assert list(csv.reader(io.StringIO(documents["csv"]))) == expected


# --sheaf E runs as a batch of one; each format's two documents must agree.
SHEAF_AND_BATCH = [
    "dual(coker(O(-1) -> TX))",  # a table with no columns
    "coker(rdual(coker(O(-1) -> TX)) -> twist(dual(Omega1), 1) + O(1))",  # bounded entries
    "coker(O(1) -> O(0))",  # a refusal
]


@pytest.mark.parametrize("sheaf", SHEAF_AND_BATCH, ids=["no columns", "bounded", "refused"])
@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
def test_a_sheaf_document_is_a_batch_of_one(sheaf, fmt, capsys, tmp_path):
    path = tmp_path / "batch.txt"
    path.write_text(sheaf + "\n")
    tail = ["--twists", "-3..2", "--format", fmt]
    code, out, err = run_cli(capsys, "cohomology", "--sheaf", sheaf, *tail)
    batch = run_cli(capsys, "cohomology", "--batch", str(path), *tail)
    if code != 0:
        assert code == 3 and out == "" and err.startswith("Inconsistent: ")
        assert batch == (code, out, err)
        return
    assert err == "" and batch[0] == 0 and batch[2] == ""
    if fmt == "json":
        assert json.loads(batch[1]) == {"results": [json.loads(out)]}
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert list(csv.reader(io.StringIO(batch[1]))) == [["expression"] + rows[0]] + [
            [sheaf] + row for row in rows[1:]
        ]
    else:
        # the expression column, then the --sheaf document's own columns
        width = len(sheaf)
        lines, batch_lines = out.splitlines(), batch[1].splitlines()
        assert [line[:width + 2] for line in batch_lines] == [
            "expression".ljust(width + 2), "-" * width + "  "
        ] + [sheaf + "  "] * (len(lines) - 2)
        assert [line[width + 2:] for line in batch_lines] == lines
