"""Smoke test: the walkthrough demo runs against the current API."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_alamouti_ic_walkthrough_runs(capsys):
    runpy.run_path(str(DEMOS / "alamouti_ic_walkthrough.py"), run_name="__main__")
    out = capsys.readouterr().out
    sent = out.split("sent bits:")[1].splitlines()[0].strip()
    decided = out.split("decided bits:")[1].splitlines()[0].strip()
    assert sent == decided  # 20 dB, one clean draw: every bit recovered
