"""``run.py --check`` and ``compare.py`` as a pytest.

Not part of tier-1 (``testpaths`` is ``tests``); run it with
``PYTHONPATH=src python -m pytest benchmarks/perf -q``. Both scripts run
as subprocesses so the BLAS thread pins are set before NumPy loads.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(script, *args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, script), *args],
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_check_mode_and_self_comparison(tmp_path):
    record = str(tmp_path / "record.json")
    checked = _run("run.py", "--check", "--out", record)
    assert checked.returncode == 0, checked.stdout[-2000:] + checked.stderr[-2000:]
    assert checked.stdout.strip().endswith("check ok")

    compared = _run("compare.py", record, record)
    assert compared.returncode == 0, compared.stdout + compared.stderr
    assert "regressed" not in compared.stdout
    assert "unresolved" not in compared.stdout
