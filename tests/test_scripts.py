"""The command-line scripts under ``scripts/``, each run as its own process."""

import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from polarwd import max_mixing_factor, max_mixing_factor_rate_half

from conftest import POLAR128_WD

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_128_64_dry_run_prints_coset_counts():
    proc = run_script("run_128_64_distribution.py", "--dry-run")
    assert (proc.returncode, proc.stdout) == (0, "")
    # 2^37 cosets on the direct route, 60,752,896 on the reduced one
    assert "direct: 137438953472 cosets" in proc.stderr
    assert "reduced: 60752896 cosets" in proc.stderr


def test_128_64_unwritable_out_fails_before_the_run(tmp_path):
    proc = run_script("run_128_64_distribution.py", "--out", str(tmp_path / "no" / "wd.json"))
    assert (proc.returncode, proc.stdout) == (1, "")
    # one line, before the coset counts and the run
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: cannot write output file")
    assert "cosets in" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.full128
def test_128_64_full_run_writes_the_distribution(tmp_path):
    out = tmp_path / "wd.json"
    proc = run_script("run_128_64_distribution.py", "--out", str(out))
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr
    payload = json.loads(out.read_text())
    # the elapsed time and peak RSS go to stderr only, so the file is
    # deterministic
    assert list(payload) == ["n", "k", "cosets_evaluated", "wef"]
    [line] = [line for line in proc.stderr.splitlines() if "cosets in" in line]
    assert re.fullmatch(r"60752896 cosets in \d+\.\d s, peak RSS \d+\.\d MB", line), line
    assert (payload["n"], payload["k"], payload["cosets_evaluated"]) == (128, 64, "60752896")
    assert {w: int(c) for w, c in payload["wef"]} == POLAR128_WD


def test_mixing_factor_tables():
    proc = run_script("reproduce_mixing_factor_tables.py", "--max-m", "5")
    assert proc.returncode == 0
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["m", "n", "gamma_max", "rate<=1/2"]
    assert [row.split() for row in rows] == [
        [str(m), str(1 << m), str(max_mixing_factor(m)[0]), str(max_mixing_factor_rate_half(m))]
        for m in range(1, 6)
    ]


def test_code_lines_skip_docstrings_comments_and_blanks(tmp_path):
    module = tmp_path / "fixture.py"
    module.write_text(
        textwrap.dedent(
            '''\
            """Module docstring,
            on two lines."""

            # a comment
            import os  # a trailing comment


            class Box:
                """Class docstring."""

                size = (
                    1,

                    2,
                )

                def area(self):
                    """Method docstring."""
                    "a second string statement is code"
                    return self.size[0] * self.size[1]


            async def later():
                \'\'\'Coroutine docstring.\'\'\'
                x = """not a docstring:
            an assignment"""
                return x
            '''
        )
    )
    proc = run_script("code_lines.py", str(module))
    assert proc.returncode == 0, proc.stderr
    # import, class, size (4 of its 5 lines), def, string, return, async
    # def, x (2 lines), return
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["13", str(module)],
        ["13", "total"],
    ]
