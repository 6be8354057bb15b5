"""What importing dualmixer does to the whole process: the modules it adds
(set-up time grows with them) and the glibc allocator options it sets."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_python(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports
    dualmixer from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


def on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def test_importing_the_cli_adds_only_its_own_modules():
    """After numpy and scipy.special, as the benchmark's set-up probe
    imports them, the CLI adds its own modules and the thread pool's, and
    nothing else."""
    added = json.loads(run_python(
        "import json, sys\n"
        "import numpy, scipy.special\n"
        "before = set(sys.modules)\n"
        "import dualmixer.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"))
    allowed = {"queue", "_queue", "concurrent.futures.thread"}
    assert "dualmixer.cli" in added
    assert [m for m in added if m not in allowed and m.split(".")[0] != "dualmixer"] == []


@pytest.mark.skipif(not sys.platform.startswith("linux") or not on_glibc(),
                    reason="reads /proc and needs glibc's allocator")
@pytest.mark.parametrize("imported", [True, False])
def test_a_freed_array_stays_resident_only_after_the_import(imported):
    """A freed 24 MiB array goes back to the OS by default, and stays in
    the process once dualmixer.numerics has set mallopt."""
    released = int(run_python(
        "import os\n"
        "import numpy as np\n"
        + ("import dualmixer.numerics\n" if imported else "")
        + "def resident():\n"
        "    with open('/proc/self/statm') as f:\n"
        "        return int(f.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
        "a = np.ones(3 << 20)\n"
        "held = resident()\n"
        "del a\n"
        "print(held - resident())\n"))
    mib = 1 << 20
    if imported:
        assert released < 4 * mib
    else:
        assert released > 20 * mib
