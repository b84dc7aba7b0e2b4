"""Golden CLI outputs: each reference command's stdout, byte for byte.

Every file in ``tests/golden`` other than the JSON input files (models and
scenario parameters) is the stdout of one command below, run in that
directory.  The test never writes a file; to
regenerate one, run its command there, e.g.

    cd tests/golden
    PYTHONPATH=../../src python -m misspec.cli tails --radial t:3 \\
        --a 1.5,2,4 --tau 1,10 --c 1e-6 > tails_t3.out

A change that alters a golden file regenerates it in the same commit and
lists every changed row, with its largest relative change, in CHANGES.md.
"""

from __future__ import annotations

import os
import shlex

import pytest

from misspec import cli

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

COMMANDS = {
    "analyze_m1.out": "analyze --model m1.json --d 1,2,3",
    "analyze_m2.out": "analyze --model m2.json --v 1,1 --level 0.9 --d 0.5,5",
    "coverage_normal.out": "coverage --reps 20000 --seed 3",
    "coverage_t5.out": "coverage --radial t:5 --reps 20000 --seed 4",
    "coverage_m2.out": "coverage --model m2.json --reps 5000 --seed 5",
    "coverage_many_blocks.out": "coverage --reps 200000 --seed 9",
    "pivot_normal.out": "pivot --reps 10000",
    "pivot_control.out": "pivot --negative-control --reps 5000",
    "pivot_t3.out": "pivot --radial t:3 --reps 5000",
    "pivot_t1.out": "pivot --radial t:1 --reps 5000 --seed 2",
    "concentration_m1_normal.out": "concentration --model m1.json --c-grid 1e-6,1e-4,1e-2,1 --eps 0.1",
    "concentration_m1_t5.out": "concentration --model m1.json --radial t:5 --c-grid 1e-6,1e-2,1 --eps 0.1",
    "concentration_m1_powerlaw2.out": "concentration --model m1.json --radial powerlaw:2 --c-grid 1e-2,1 --eps 0.1",
    "concentration_m2.out": "concentration --model m2.json --c-grid 1e-6,1e-4,1e-2 --eps 0.1",
    "contaminate_m1.out": "contaminate --model m1.json --phi 0.01 --c-grid 1e-6,1e-2 --contaminant-c 4",
    "contaminate_m1_t5.out": (
        "contaminate --model m1.json --radial t:5 --phi 0.01 --c-grid 1e-6,1e-2,1 --contaminant-c 4"
    ),
    "contaminate_m2.out": (
        "contaminate --model m2.json --phi 0.01 --c-grid 1e-6,1e-2,1 --contaminant-c 4"
    ),
    "tails_t3.out": "tails --radial t:3 --a 1.5,2,4 --tau 1,10 --c 1e-6",
    "tails_normal_k5.out": "tails --radial normal --k 5 --a 1.5,2,4 --tau 1,10 --c 1e-6,1e-2,1",
    "scenario_iv.out": "scenario iv --params iv.json",
    "scenario_iv_sample.out": "scenario iv --params iv.json --sample 2000 --seed 7",
    "scenario_logit.out": "scenario logit --params logit.json",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    code = cli.main(shlex.split(COMMANDS[name]))
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    with open(name, "rb") as fh:
        expected = fh.read()
    assert out.encode("utf-8") == expected


def test_every_golden_file_has_a_command():
    files = {name for name in os.listdir(GOLDEN_DIR) if not name.endswith(".json")}
    assert files == set(COMMANDS)
