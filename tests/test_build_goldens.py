"""``bellforge build`` reports equal their committed goldens, byte for byte.

Every recipe in ``tests/data/`` (each ``*.json`` that is not a
``*.report.json``) is built. They cover what the seed-7 table does not:
unsnapped coefficients (``ghz3`` with k = (0.6, 0, 0.8)), a complementary
decomposition at pivot 1, a chained recipe, the README's loop-5 recipe, two
graph recipes whose SOS search tries every pairing and fails (4 and 8
terms), and a 6-qubit path recipe, whose see-saw solves 64-row operators
and sums 5-party terms, each with and without the see-saw. The goldens were
written by ``bellforge build`` before the factor-table render, the
flat-offset vertex pass and the printer replaced the dict routes, and the
path recipe's before the see-saw reused one LAPACK solver per call;
regenerate them only in a change that means to alter a reported number, and
say so.
"""

from pathlib import Path

import pytest

from bellforge.cli import main as cli_main

DATA = Path(__file__).resolve().parent / "data"
# every recipe in tests/data/, so a new one cannot be left out
RECIPES = sorted(p.stem for p in DATA.glob("*.json") if not p.name.endswith(".report.json"))


@pytest.mark.parametrize("seesaw", [False, True], ids=["plain", "seesaw"])
@pytest.mark.parametrize("name", RECIPES)
def test_build_report_bytes(name, seesaw, capsys):
    argv = ["build", "--config", str(DATA / f"{name}.json")] + (["--seesaw"] if seesaw else [])
    assert cli_main(argv) == 0
    golden = DATA / f"{name}{'.seesaw' if seesaw else ''}.report.json"
    assert capsys.readouterr().out == golden.read_text()
