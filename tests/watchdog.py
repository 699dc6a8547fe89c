"""Run a test scenario in a child interpreter under a deadline.

Scenarios that kill processes can hang the code under test: a pool
waiting forever on a worker that died.  Run in a child interpreter, such
a scenario fails its test at the deadline instead of hanging the suite.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def run_watched(script: str, timeout: float = 90.0):
    """Run ``script`` and return the JSON object on its last stdout line.

    The child gets its own session; at the deadline the whole group
    (child and every process it forked) is killed and the test fails.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        pytest.fail(f"scenario hung: still running after {timeout:g} s\n{err[-3000:]}")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # strays, e.g. orphaned workers
        except ProcessLookupError:
            pass
    assert proc.returncode == 0, err[-3000:]
    return json.loads(out.strip().splitlines()[-1])
