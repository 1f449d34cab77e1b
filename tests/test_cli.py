"""End-to-end CLI behaviour: output contracts and exit codes."""

import io
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasitoric import (
    Omniorientation,
    PairDocument,
    all_signs,
    cp2_sum,
    cpn,
    decide_positive,
    hirzebruch,
    parse,
    product,
    serialize,
    vertex_cut,
)
from quasitoric import cli, invariants, positivity
from quasitoric.cli import main
from quasitoric.errors import TooLargeError
from quasitoric.positivity import PositivityResult
from support import random_valid_pair

CP2_TEXT = """\
dim 2
facets 3
vertex 0 1
vertex 0 2
vertex 1 2
lambda
1 0 -1
0 1 -1
"""

BROKEN_TEXT = """\
dim 2
facets 4
vertex 0 1
vertex 1 2
vertex 2 3
lambda
1 0 -1 0
0 1 -1 0
"""


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cp2_file(tmp_path):
    path = tmp_path / "cp2.qtm"
    path.write_text(CP2_TEXT)
    return str(path)


def test_validate(capsys, cp2_file):
    code, out, err = run(capsys, ["validate", cp2_file])
    assert code == 0
    assert out.splitlines()[0] == "valid"
    assert "f_vector 3 3" in out
    assert "h_vector 1 1 1" in out


def test_validate_invalid_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.qtm"
    path.write_text(BROKEN_TEXT)
    code, out, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert "error" in err


def test_parse_error_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.qtm"
    path.write_text("dim 2\nfrobnicate\n")
    code, out, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert "line 2" in err


def test_decide_sat_certificate(capsys, cp2_file):
    code, out, err = run(capsys, ["decide", cp2_file])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "SAT"
    assert lines[1] == "omniorientation +1 +1 +1 +1"


@pytest.mark.parametrize(
    "text, global_sign, facet_0",
    [
        (CP2_TEXT, 1, 1),
        (serialize(PairDocument.from_pair(cp2_sum(3))), 1, -1),
        (serialize(PairDocument.from_pair(vertex_cut(cpn(3), (0, 1, 2)))), -1, 1),
    ],
    ids=["cp2", "cp2_sum(3)", "vertex_cut(cpn(3))"],
)
def test_certificate_feeds_back_into_signs(
    capsys, monkeypatch, tmp_path, text, global_sign, facet_0
):
    """decide's SAT line is the document's omniorientation directive: appended
    to the document, it reads back as the certificate, whose signs (one of
    them -1 outside CP^2) make every fixed-point sign +1."""
    path = tmp_path / "pair.qtm"
    path.write_text(text)
    code, out, _ = run(capsys, ["decide", str(path)])
    assert code == 0
    cert_line = out.splitlines()[1]
    omni = parse(text + cert_line + "\n").omniorientation
    assert omni == decide_positive(parse(text).to_pair()).certificate
    assert (omni.global_sign, omni.facet_signs[0]) == (global_sign, facet_0)
    code, out, _ = run(
        capsys, ["signs", "-"], stdin_text=text + cert_line + "\n", monkeypatch=monkeypatch
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(parse(text).vertices)
    assert all(line.endswith(": +1") for line in lines)
    if text == CP2_TEXT:
        assert lines[0] == "vertex 0 1 : +1"


def test_signs_requires_omniorientation(capsys, cp2_file):
    code, out, err = run(capsys, ["signs", cp2_file])
    assert (code, out) == (2, "")
    assert err == "error: signs requires an omniorientation directive\n"


def test_missing_file_argument_prints_usage(capsys):
    code, out, err = run(capsys, ["report"])
    assert (code, out) == (3, "")
    assert err == (
        "usage: qtm report [-h] file\n"
        "qtm report: error: the following arguments are required: file\n"
    )


def test_construct_cp2k_pipe_decide_unsat(capsys, monkeypatch):
    code, out, _ = run(capsys, ["construct", "cp2k", "2"])
    assert code == 0
    code, out, err = run(capsys, ["decide", "-"], stdin_text=out, monkeypatch=monkeypatch)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "UNSAT"
    assert lines[1].startswith("witness ")
    assert len(lines[1].split()) >= 2


def test_invariants_cp2k5_todd(capsys, monkeypatch):
    code, doc, _ = run(capsys, ["construct", "cp2k", "5"])
    assert code == 0
    code, out, _ = run(capsys, ["invariants", "-"], stdin_text=doc, monkeypatch=monkeypatch)
    assert code == 0
    assert "todd = 3" in out
    assert "euler = 7" in out
    assert "signature = 5" in out
    assert "almost_complex_4d = true" in out


def test_invariants_non_integral_todd(capsys, monkeypatch):
    code, doc, _ = run(capsys, ["construct", "cp2k", "2"])
    code, out, _ = run(capsys, ["invariants", "-"], stdin_text=doc, monkeypatch=monkeypatch)
    assert code == 0
    assert "todd = 3/2" in out
    assert "almost_complex_4d = false" in out


def test_construct_to_file_and_validate(capsys, tmp_path):
    target = tmp_path / "h1.qtm"
    code, out, _ = run(capsys, ["construct", "hirzebruch", "1", "-o", str(target)])
    assert code == 0
    assert out == ""
    code, out, _ = run(capsys, ["validate", str(target)])
    assert code == 0


def test_construct_product_and_vertex_cut(capsys, tmp_path):
    a = tmp_path / "a.qtm"
    b = tmp_path / "b.qtm"
    run(capsys, ["construct", "cpn", "1", "-o", str(a)])
    run(capsys, ["construct", "cpn", "2", "-o", str(b)])
    code, out, _ = run(capsys, ["construct", "product", str(a), str(b)])
    assert code == 0
    assert "dim 3" in out
    code, out2, _ = run(capsys, ["construct", "vertex-cut", str(b), "0"])
    assert code == 0
    assert "facets 4" in out2


def test_report_runs_and_mirrors_decide_exit(capsys, monkeypatch, cp2_file):
    code, out, _ = run(capsys, ["report", cp2_file])
    assert code == 0
    assert "positive_count = 2" in out
    assert "todd = 1" in out
    code, doc, _ = run(capsys, ["construct", "cp2k", "2"])
    code, out, _ = run(capsys, ["report", "-"], stdin_text=doc, monkeypatch=monkeypatch)
    assert code == 1
    assert "positive_count = 0" in out


def test_report_lists_the_signs_of_a_carried_omniorientation(capsys, monkeypatch):
    pair = hirzebruch(1)
    omni = Omniorientation(1, (1, -1, 1, 1))
    doc = serialize(PairDocument.from_pair(pair, omni))
    code, out, _ = run(capsys, ["report", "-"], doc, monkeypatch)
    signs = all_signs(pair, omni)
    assert set(signs) == {1, -1}
    expected = [
        "vertex " + " ".join(map(str, v)) + (" : +1" if s == 1 else " : -1")
        for v, s in zip(pair.polytope.vertices, signs)
    ]
    lines = out.splitlines()
    assert code == 0
    assert lines[5 : 5 + len(expected)] == expected
    assert lines[5 + len(expected)] == "SAT"


def test_report_computes_the_documents_signs_once(capsys, monkeypatch):
    """One sign pass serves report's sign lines and invariants, with or
    without an omniorientation; the certificate check makes the other."""
    calls = []

    def counted(pair, omni):
        calls.append(omni)
        return all_signs(pair, omni)

    for module in (cli, invariants, positivity):
        monkeypatch.setattr(module, "all_signs", counted)
    pair = cp2_sum(33)
    omni = Omniorientation(-1, (1, -1) * 17 + (1,))
    certificate = decide_positive(pair).certificate
    for carried in (omni, None):
        calls.clear()
        code, out, _ = run(capsys, ["report", "-"],
                           serialize(PairDocument.from_pair(pair, carried)), monkeypatch)
        assert code == 0 and out
        assert calls == [carried or Omniorientation.all_positive(35), certificate]


def test_reports_deterministic(capsys, cp2_file):
    code1, out1, _ = run(capsys, ["report", cp2_file])
    code2, out2, _ = run(capsys, ["report", cp2_file])
    assert (code1, out1) == (code2, out2)


def test_usage_errors_exit_3(capsys, cp2_file):
    """A wrong name, a missing or extra parameter, a parameter that is not an
    integer or out of range: exit 3, nothing on stdout, a message on stderr."""
    for argv in (
        ["frobnicate"],
        ["decide"],
        ["construct", "nonsense", "1"],
        ["construct", "cpn"],
        ["construct", "cpn", "0"],
        ["construct", "cpn", "x"],
        ["construct", "cpn", "1_0"],  # int() reads these three
        ["construct", "hirzebruch", "\u0663"],
        ["construct", "cp2k", "\uff13"],
        ["construct", "cpn", "2", "3"],
        ["construct", "hirzebruch", "1", "2"],
        ["construct", "cp2k"],
        ["construct", "cp2k", "0"],
        ["construct", "product", cp2_file],
        ["construct", "vertex-cut"],
        ["construct", "vertex-cut", cp2_file, "3"],
        ["construct", "vertex-cut", cp2_file, "-1"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, ""), argv
        assert "error" in err, argv


def test_construct_writes_the_library_pair(capsys, tmp_path, cp2_file):
    """Every construction, signed integers and each place of -o/--output give
    the bytes of the library call, serialized."""
    cp2 = cpn(2)
    files = [str(tmp_path / f"out{i}.qtm") for i in range(3)]
    for argv, pair, target in (
        (["cpn", "+2"], cp2, None),
        (["hirzebruch", "-3"], hirzebruch(-3), None),
        (["cp2k", "3"], cp2_sum(3), None),
        (["product", cp2_file, cp2_file], product(cp2, cp2), None),
        (["vertex-cut", cp2_file, "1"], vertex_cut(cp2, cp2.polytope.vertices[1]), None),
        (["-o", files[0], "cpn", "2"], cp2, files[0]),
        (["cpn", "2", "-o", files[1]], cp2, files[1]),
        (["cpn", "2", f"--output={files[2]}"], cp2, files[2]),
    ):
        code, out, _ = run(capsys, ["construct", *argv])
        expected = serialize(PairDocument.from_pair(pair))
        if target is not None:
            assert out == ""
            out = Path(target).read_text()
        assert (code, out) == (0, expected), argv


def test_input_errors_exit_2(capsys, tmp_path):
    """Valid syntax, invalid data: exit 2 with nothing on stdout, whether the
    data arrives as a document or as a construction's input."""
    cp1 = tmp_path / "cp1.qtm"
    cp1.write_text(serialize(PairDocument.from_pair(cpn(1))))
    empty = tmp_path / "empty.qtm"
    empty.write_text("dim 1\nfacets 2\nlambda\n1 -1\n")
    underscore = tmp_path / "underscore.qtm"  # int() reads 1_0 as 10
    underscore.write_text(serialize(PairDocument.from_pair(hirzebruch(1))).replace(" 1 -1", " 1_0 -1"))
    for argv, message in (
        (["construct", "vertex-cut", str(cp1), "0"], "a vertex cut needs dim >= 2, got dim 1"),
        (["validate", str(empty)], "polytope has no vertices"),
        (["validate", str(underscore)], "error: line 9: not an integer: '1_0'\n"),
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert message in err


def test_missing_file_exit_2(capsys):
    code, out, err = run(capsys, ["decide", "/nonexistent/nope.qtm"])
    assert code == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_help_does_not_print_the_module_docstring(capsys, monkeypatch):
    """--help prints a short description, so the module's developer
    documentation can change without changing stdout."""
    code, out, _ = run(capsys, ["--help"])
    assert code == 0 and out.startswith("usage: qtm")
    words = " ".join(out.split())
    for sentence in cli.__doc__.split(". "):
        assert " ".join(sentence.split()) not in words
    monkeypatch.setattr(cli, "__doc__", "Edited documentation.")
    assert cli._build_parser.__wrapped__().format_help() == out


def test_reused_parser_leaks_no_state(capsys, tmp_path):
    """main reuses one parser per process: a repeated call gives the same exit
    code and the same stdout and stderr, byte for byte, as its first run."""
    target = str(tmp_path / "cp2.qtm")
    calls = [["report"], ["--help"], ["construct", "cpn", "2", "-o", target],
             ["report", target], ["report", target], ["report"]]
    # then the table path (report <file>) and argparse (everything else) in
    # turn, each after the other
    calls += [["report", "--", target], ["report", target], ["report", "-h"],
              ["report", target], ["report"], ["report", target], ["--help"]]
    results = [run(capsys, argv) for argv in calls]
    assert [code for code, _, _ in results] == [3, 0, 0, 0, 0, 3, 0, 0, 0, 0, 3, 0, 0]
    assert results[0][2].startswith("usage: qtm report")
    assert results[1][1].startswith("usage: qtm")
    assert results[3][1]
    assert results[4] == results[3]
    assert results[5] == results[0]
    assert results[6] == results[7] == results[9] == results[11] == results[3]
    assert results[8][1].startswith("usage: qtm report")
    assert results[10] == results[0]
    assert results[12] == results[1]


def test_import_does_not_load_numpy():
    """Only the brute-force oracle uses numpy, and it imports it itself."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import quasitoric.cli, sys; assert 'numpy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_import_does_not_load_dataclasses_or_inspect():
    """The records are plain slotted classes: dataclasses, the inspect module
    it imports and its decorators would add to every qtm process's start-up."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import quasitoric.cli, sys; "
            "assert not {'dataclasses', 'inspect'} & set(sys.modules), sys.modules.keys()")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


HELP_TEXT = """\
usage: qtm [-h] {validate,signs,decide,invariants,report,construct} ...

Validate, decide and compute invariants of quasitoric pairs (.qtm files, - for
stdin), or construct one. Exit codes: 0 success or SAT, 1 UNSAT, 2 invalid
input, 3 usage error.

positional arguments:
  {validate,signs,decide,invariants,report,construct}

options:
  -h, --help            show this help message and exit
"""


def test_the_table_path_never_builds_the_parser(tmp_path):
    """In a fresh process, `decide <file>` leaves argparse's parser unbuilt;
    construct and --help build it, once, and --help prints its pinned text
    (at 80 columns)."""
    path = tmp_path / "cp3.qtm"
    path.write_text(serialize(PairDocument.from_pair(cpn(3))), encoding="utf-8")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = """if True:
        import io, sys
        from contextlib import redirect_stdout
        from quasitoric import cli
        built = cli._build_parser.cache_info
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(["decide", sys.argv[1]]) == 0
        assert out.getvalue().startswith("SAT\\n")
        assert built().currsize == 0
        with redirect_stdout(io.StringIO()):
            assert cli.main(["construct", "cpn", "2"]) == 0
        assert built().currsize == 1
        with redirect_stdout(out):
            assert cli.main(["--help"]) == 0
        assert (built().currsize, built().misses) == (1, 1)
        sys.stdout.write(out.getvalue().split("\\n", 2)[2])
    """
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True,
                          timeout=60, capture_output=True, text=True)
    assert proc.stdout == HELP_TEXT


def _qtm(argv, stdout, stdin=None, unbuffered=False):
    """``python -m quasitoric argv``; with unbuffered, each write to stdout
    reaches the pipe at once (PYTHONUNBUFFERED), else at the flush."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "quasitoric", *argv],
        stdin=stdin, stdout=stdout, stderr=subprocess.PIPE, env=env,
    )


def test_a_closed_pipe_exits_141_quietly(tmp_path):
    """Every subcommand whose stdout has no reader left exits 141 (128 +
    SIGPIPE), with nothing on stderr: no traceback, no error line. So does
    --help, whose write argparse itself would swallow. Both hold whether
    stdout is buffered (the pipe error comes at the flush) or not (at the
    write)."""
    path = tmp_path / "cp2.qtm"
    path.write_text(CP2_TEXT + "omniorientation 1 1 1 1\n")
    argvs = [[cmd, str(path)] for cmd in ("validate", "signs", "decide", "invariants", "report")]
    argvs += [["construct", "cpn", "3"], ["--help"]]
    for argv in argvs:
        for unbuffered in (False, True):
            r, w = os.pipe()
            os.close(r)  # the reader is gone before anything is written
            proc = _qtm(argv, w, unbuffered=unbuffered)
            os.close(w)
            _, err = proc.communicate(timeout=60)
            assert (proc.returncode, err) == (141, b""), (argv, unbuffered)
    # a reader that takes one byte of a construction longer than the pipe's
    # buffer and closes: the rest must not be dropped with exit 0
    r, w = os.pipe()
    proc = _qtm(["construct", "cpn", "150"], w)
    os.close(w)
    assert len(os.read(r, 1)) == 1
    os.close(r)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def test_f_vector_refusal_leaves_stdout_empty(capsys, monkeypatch):
    """qtm construct cpn 40 | qtm validate - (or report -): the f-vector's
    41 * (2^40 - 1) subsets are refused up front, exit 2, nothing on stdout."""
    code, doc, _ = run(capsys, ["construct", "cpn", "40"])
    assert code == 0
    for command in ("validate", "report"):
        start = time.perf_counter()
        code, out, err = run(capsys, [command, "-"], stdin_text=doc, monkeypatch=monkeypatch)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "vertex subsets for the f-vector, over the limit of 16777216" in err


@pytest.mark.parametrize("command, last_step", [
    ("validate", "h_vector"),
    ("signs", "all_signs"),
    ("decide", "decide_positive"),
    ("invariants", "compute_invariants"),
    ("report", "_invariants_from_signs"),
])
def test_a_refusal_at_the_last_step_leaves_stdout_empty(capsys, monkeypatch, command, last_step):
    """Each read subcommand refused at the last step it computes, with every
    other line of its answer already known: exit 2, nothing on stdout."""

    def refuse(*args):
        raise TooLargeError("refused at the last step")

    monkeypatch.setattr(cli, last_step, refuse)
    text = CP2_TEXT + "omniorientation 1 1 1 1\n"
    code, out, err = run(capsys, [command, "-"], text, monkeypatch)
    assert (code, out, err) == (2, "", "error: refused at the last step\n")


def test_construct_names_the_digit_limit(capsys):
    token = "7" * 5000
    code, out, err = run(capsys, ["construct", "hirzebruch", token])
    assert code == 3
    assert "integer has 5000 digits, over the int/str limit of" in err
    assert token not in err


def test_singular_determinant_over_the_digit_limit_exit_2(capsys, monkeypatch):
    big = "1" + "0" * 3000
    text = CP2_TEXT.replace("1 0 -1\n0 1 -1", f"{big} 0 1\n0 {big} 1")
    code, out, err = run(capsys, ["validate", "-"], text, monkeypatch)
    assert code == 2
    assert "det=<6001-digit integer>" in err


def _mutate(text: str, data) -> str:
    """Drop or duplicate lines, perturb integers (some past the int/str
    digit limit) and swap entries between vertex lines."""
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        edit = data.draw(st.sampled_from(["drop", "duplicate", "integer", "swap"]))
        i = data.draw(st.integers(0, len(lines) - 1))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "integer":  # any integer token of the document, lambda's included
            slots = [
                (r, k)
                for r, line in enumerate(lines)
                for k, t in enumerate(line.split())
                if re.fullmatch(r"[+-]?\d{1,50}", t)
            ]
            if slots:
                r, k = data.draw(st.sampled_from(slots))
                tokens = lines[r].split()
                tokens[k] = data.draw(
                    st.sampled_from([str(int(tokens[k]) + 1), str(-int(tokens[k])), "0",
                                     "2", "-1", str(10**40), "9" * 5000])
                )
                lines[r] = " ".join(tokens)
        elif rows := [k for k, line in enumerate(lines) if line.startswith("vertex ")]:
            a, b = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
            ta, tb = lines[a].split(), lines[b].split()
            p, q = data.draw(st.integers(1, len(ta) - 1)), data.draw(st.integers(1, len(tb) - 1))
            if a == b:
                tb = ta
            ta[p], tb[q] = tb[q], ta[p]
            lines[a], lines[b] = " ".join(ta), " ".join(tb)
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_mutated_documents_never_raise(seed, data):
    """Every command on a mutated .qtm text ends in an exit code of 0, 1 or
    2: a result or a typed error, never a traceback."""
    rng = random.Random(seed)
    pair = random_valid_pair(rng, max_m=8)
    m = pair.polytope.num_facets
    omni = Omniorientation(rng.choice([1, -1]), tuple(rng.choice([1, -1]) for _ in range(m)))
    text = _mutate(serialize(PairDocument.from_pair(pair, omni)), data)
    command = data.draw(st.sampled_from(["validate", "signs", "decide", "invariants", "report"]))
    with mock.patch("sys.stdin", io.StringIO(text)):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main([command, "-"])
    assert code in (0, 1, 2)


def test_construction_over_the_budget_exits_2_at_once(capsys):
    """A few bytes of argv asking for a pair over CONSTRUCTION_MAX_ENTRIES
    (V*n + n*m entries and V*ceil(m/64) mask words) are refused before
    anything is built: exit 2, nothing on stdout, the entry count and the
    limit on stderr."""
    huge = "9" * 20
    cases = [
        (["cpn", "1024"], "1025 vertices and 1025 facets in dim 1024 mean 2099200 entries"),
        (["cpn", huge], "mean 19999999999999999999800000000000000000000 entries"),
        (["cp2k", "524287"], "524289 vertices and 524289 facets in dim 2 mean 2097156 entries"),
        (["cp2k", huge], "100000000000000000001 vertices"),
        (["cpn", "9" * 4000], "mean <8001-digit integer> entries"),
    ]
    for params, message in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, ["construct", *params])
        assert time.perf_counter() - start < 1.0, params
        assert (code, out) == (2, ""), params
        assert message in err, params
        assert "over the limit of 2097152; refusing" in err, params


def test_sign_and_decide_lines_match_str_formatting():
    """The facet names and sign texts come from lookups; the lines must be
    the ones str() gives, past the 1024 facets of any cached range and with
    negative signs."""
    pair = cp2_sum(1100)  # facets 0..1101
    rng = random.Random(7)
    m = pair.polytope.num_facets
    omni = Omniorientation(-1, tuple(rng.choice((1, -1)) for _ in range(m)))
    signs = all_signs(pair, omni)
    assert {1, -1} <= set(signs)
    assert cli._sign_lines(pair, signs) == [
        "vertex " + " ".join(str(j) for j in v) + " : " + ("+1" if s > 0 else "-1")
        for v, s in zip(pair.polytope.vertices, signs)
    ]
    assert cli._decide_lines(PositivityResult(True, omni, 1)) == [
        "SAT",
        "omniorientation -1 " + " ".join("+1" if s > 0 else "-1" for s in omni.facet_signs),
    ]
    witness = tuple(range(0, m, 3))
    assert cli._decide_lines(PositivityResult(False, witness=witness)) == [
        "UNSAT",
        "witness " + " ".join(str(i) for i in witness),
    ]


def test_report_on_a_sat_and_an_unsat_polygon(capsys, tmp_path):
    """report on a polygon decides and computes its invariants, SAT and
    UNSAT alike."""
    for k, expected in ((5, 0), (4, 1)):
        path = tmp_path / f"s{k}.qtm"
        path.write_text(serialize(PairDocument.from_pair(cp2_sum(k))))
        code, out, _ = run(capsys, ["report", str(path)])
        assert code == expected
        assert f"signature = {k}" in out.splitlines()


def _dispatch_corpus(tmp_path):
    """argv lists round the table path: each file command with every kind of
    second token, and argv lists of other lengths and other commands."""
    path = tmp_path / "cp2.qtm"
    path.write_text(CP2_TEXT + "omniorientation 1 1 1 1\n")
    spaced = tmp_path / "c p2.qtm"
    spaced.write_text(CP2_TEXT)
    missing = str(tmp_path / "missing.qtm")
    argvs = [[], ["report"], ["-h"], ["--help"], ["construct", "cpn", "2"],
             ["construct", "-o", "-", "cpn", "2"], ["frobnicate", str(path)],
             ["repor", str(path)], ["Report", str(path)], ["-h", str(path)],
             ["report", str(path), str(path)], ["report", "--", str(path)],
             ["report", "-", "-"], ["--", "report", str(path)]]
    for cmd in cli._FILE_COMMANDS:
        for token in ("-", str(path), "", str(spaced), "-1", "--", "-h", "--help",
                      "-x", missing, "--file", "-" + str(path)):
            argvs.append([cmd, token])
    return argvs


def _outcome(capsys, monkeypatch, argv):
    """main(argv) on fresh stdin: exit code, stdout and stderr."""
    monkeypatch.setattr("sys.stdin", io.StringIO(CP2_TEXT + "omniorientation -1 1 1 -1\n"))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _on_table(argv):
    """Whether main may skip argparse: `<file command> <file>`, with a file
    that is - or does not start with -."""
    return (len(argv) == 2 and argv[0] in cli._FILE_COMMANDS
            and (argv[1] == "-" or not argv[1].startswith("-")))


@pytest.fixture
def parsed(monkeypatch):
    """The argv of every _build_parser().parse_args call, in order."""
    calls = []
    parse_args = cli._build_parser().parse_args
    monkeypatch.setattr(
        cli._build_parser(), "parse_args",
        lambda args=None, namespace=None: calls.append(args) or parse_args(args, namespace),
    )
    return calls


def test_table_dispatch_matches_argparse(capsys, monkeypatch, tmp_path, parsed):
    """main gives the same exit code, stdout and stderr, byte for byte, with
    the file command table as with an empty one, which sends every argv
    through argparse; only `<file command> <file>` with a file that is - or
    does not start with - skips the parser."""
    skipped = 0
    for argv in _dispatch_corpus(tmp_path):
        parsed.clear()
        fast = _outcome(capsys, monkeypatch, argv)
        assert (not parsed) == _on_table(argv), argv
        skipped += not parsed
        with monkeypatch.context() as m:
            m.setattr(cli, "_FILE_COMMANDS", {})
            parsed.clear()
            assert _outcome(capsys, monkeypatch, argv) == fast, argv
            assert parsed == [argv], argv
    # -, a path, "", a path with a space and a missing file, per command
    assert skipped == 5 * len(cli._FILE_COMMANDS)


def test_table_namespace_is_argparses(capsys, monkeypatch, tmp_path):
    """Where the table path applies, the namespace it hands the command is
    the one _build_parser().parse_args returns for the same argv."""
    built = []

    class Recording(cli.argparse.Namespace):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            built.append(self)

    for argv in filter(_on_table, _dispatch_corpus(tmp_path)):
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(cli.argparse, "Namespace", Recording)
            _outcome(capsys, monkeypatch, argv)
        assert len(built) == 1, argv
        assert vars(built[0]) == vars(cli._build_parser().parse_args(argv)), argv
        assert built[0].func is cli._FILE_COMMANDS[argv[0]]


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch, tmp_path, parsed):
    """main(None) reads sys.argv[1:], and takes the same path, table or
    argparse, with the same exit code and output as main(sys.argv[1:])."""
    for argv in _dispatch_corpus(tmp_path):
        parsed.clear()
        given = _outcome(capsys, monkeypatch, argv)
        path = list(parsed)
        parsed.clear()
        monkeypatch.setattr("sys.argv", ["qtm", *argv])
        assert _outcome(capsys, monkeypatch, None) == given, argv
        assert parsed == path, argv
    # a tuple is read as its list, as argparse reads it
    parsed.clear()
    assert _outcome(capsys, monkeypatch, ("report", "-")) == _outcome(
        capsys, monkeypatch, ["report", "-"])
    assert parsed == []
