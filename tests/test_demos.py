"""Every demo script runs to completion.

The demos train small models and call ``scores``, ``predict`` and
``head_output`` on them, so running them checks the public API they
show.  Each runs in a fresh interpreter with its temporary files under
the test's own directory.
"""

import glob
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(REPO, "demos", "*.py")))


def test_every_demo_is_collected():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_exits_0(script, tmp_path):
    src = os.path.join(REPO, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
