"""``bellforge build`` reports equal their committed goldens, byte for byte.

The recipes in ``tests/data/`` cover what the seed-7 table does not:
unsnapped coefficients (``ghz3`` with k = (0.6, 0, 0.8)), a complementary
decomposition at pivot 1, a chained recipe, the README's loop-5 recipe, and
two graph recipes whose SOS search tries every pairing and fails (4 and 8
terms), each with and without the see-saw. The goldens were written by ``bellforge
build`` before the factor-table render, the flat-offset vertex pass and the
printer replaced the dict routes; regenerate them only in a change that means
to alter a reported number, and say so.
"""

from pathlib import Path

import pytest

from bellforge.cli import main as cli_main

DATA = Path(__file__).resolve().parent / "data"
RECIPES = ("loop5", "bell-complementary", "ghz3-unsnapped", "chained3",
           "graph2-sos-failed", "empty4-sos-failed")


@pytest.mark.parametrize("seesaw", [False, True], ids=["plain", "seesaw"])
@pytest.mark.parametrize("name", RECIPES)
def test_build_report_bytes(name, seesaw, capsys):
    argv = ["build", "--config", str(DATA / f"{name}.json")] + (["--seesaw"] if seesaw else [])
    assert cli_main(argv) == 0
    golden = DATA / f"{name}{'.seesaw' if seesaw else ''}.report.json"
    assert capsys.readouterr().out == golden.read_text()
