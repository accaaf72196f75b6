"""Every narrative script in ``demos/`` runs to the end.

The demos call the library the way a reader would, so a renamed or deleted
function fails here rather than in front of that reader.  Each script runs
in this process, with its printed output captured.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
