"""The six demos print exactly what they printed when their digests were
recorded: SHA-256 of each demo's standard output, with the report's
``"elapsed_ms": <n>`` normalised to 0."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_DIGESTS = {
    "01_groups_and_characters.py": "6fbe9da3bc59cc7f083f2b763c7f161cfcdc3bba2f235ea54a5a7efb086f2cd9",
    "02_bohr_sets.py": "3a9d77332946fbcf79f14c853f7619af3ae461491dc56430405cae72ba13afcc",
    "03_coset_progressions.py": "0aa8d6e24b8bde1292e2daa7ff54517ba905c4b623d2cb682da1aa41fad62829",
    "04_lattice_spanning.py": "574d59ee1283944daa50dc3af3f220493d614f5b6608e546be462aeb9eaaecb4",
    "05_regularity_partition.py": "f88c2a67b525cb2f91a86d67f12005c31bce18b04f2eb927300787ddb98f8f48",
    "06_difference_containment.py": "21e15296fcc558ccfc95f352c34c0aff37c7478ede0fcb3a92c4222ceb15c8f1",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_digest(name):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', proc.stdout)
    assert hashlib.sha256(out.encode()).hexdigest() == DEMO_DIGESTS[name], proc.stdout
