"""The runner of tests/scale_check.py must fail a row that differs from what
it expects, whatever the difference, and pass a row that matches."""

import os
import sys

import pytest
from scale_check import Failure, Row, run

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
QTM = [sys.executable, "-m", "quasitoric"]


def raises():
    raise AssertionError("a Python check that fails")


def passes():
    pass


def test_the_runner_fails_each_kind_of_mismatch(monkeypatch, tmp_path):
    monkeypatch.setenv("PYTHONPATH", SRC)
    tmp = str(tmp_path)
    assert run(Row("qtm construct -o cp2.qtm cpn 2"), QTM, tmp) == ""
    assert run(Row("qtm decide cp2.qtm", first="SAT", lines=["omniorientation +1 +1 +1 +1"]),
               QTM, tmp).startswith("SAT\n")
    assert run(Row(passes, timeout=60), QTM, tmp) == ""
    for row, reason in (
        (Row("qtm decide cp2.qtm", code=1), "exit 0, not 1"),
        (Row("qtm decide cp2.qtm", first="UNSAT"), "first line 'UNSAT'"),
        (Row("qtm decide cp2.qtm", lines=["SAT", "witness 0"]), "'witness 0'"),
        (Row("qtm decide cp2.qtm", test=lambda out, err: err != ""), "<lambda> fails"),
        (Row("qtm construct cpn 3 | qtm decide -", same=Row("qtm decide cp2.qtm")), "not that of"),
        (Row("qtm construct cpn 2 | qtm decide -", code=2), "exit 0, not 2"),
        (Row("qtm construct cpn 0 | qtm decide -"), "exit 3, not 0"),
        (Row("timeout 0.01 qtm construct cpn 2"), "timed out"),
        (Row(raises, timeout=60), "exit 1, not 0"),
    ):
        with pytest.raises(Failure, match=reason):
            run(row, QTM, tmp)
