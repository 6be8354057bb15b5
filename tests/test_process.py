"""What importing dualmixer does to the whole process: the modules it adds
(set-up time grows with them), the glibc allocator options it sets, and
that its lane thread lets the interpreter exit."""

import json
import os
import sys

import pytest
from conftest import run_python


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


def test_an_interpreter_that_trained_sharded_steps_exits():
    """Two 4-shard training steps (240 windows at w8 d64) start the lane
    thread that descend keeps for the process; the interpreter still exits
    0 within 60 s, so the thread holds no run open."""
    out = run_python(
        "import numpy as np\n"
        "from dualmixer import model as dm, numerics as nx\n"
        "p = dm.make_variant(dm.ModelConfig(l=8, m_vars=3, d=64, n_layers=1), 'full')\n"
        "x = np.random.default_rng(0).uniform(size=(240, 8, 3))\n"
        "opt = nx.AdamState()\n"
        "def loss_of(shard):\n"
        "    _, preds = dm.forward_batch(p, x[shard], nx.Graph())\n"
        "    return nx.sum_all(nx.hadamard(preds, preds)), len(shard)\n"
        "for _ in range(2):\n"
        "    sizes = nx.descend(opt, p.arrays, list(range(240)), 8 * 64, loss_of, 240, 'a')[1]\n"
        "print(*sizes)\n", timeout=60)
    assert out.split() == ["60"] * 4
