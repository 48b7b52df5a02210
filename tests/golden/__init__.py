"""The identity ledger: ``identity.json`` pins the ``sha256[:16]`` of
seeded outputs, so a change that moves one fails a test instead of
passing on a run-twice comparison. Each row is checked inside the test
that already builds its output."""

import hashlib
import json
import platform
from pathlib import Path

import numpy

LEDGER = Path(__file__).with_name("identity.json")


def seeded_core_bytes(core: dict) -> bytes:
    """The canonical form a ``seeded_core()`` row hashes."""
    return json.dumps(core, sort_keys=True).encode()


def assert_identity(row: str, canonical: bytes) -> None:
    """Fail, naming *row* and the Python/NumPy versions the ledger was
    recorded with and runs under, unless *canonical* hashes to the
    recorded value."""
    ledger = json.loads(LEDGER.read_text())
    recorded = ledger["rows"][row]
    got = hashlib.sha256(canonical).hexdigest()[:16]
    made = ledger["made_with"]
    assert got == recorded["sha256_16"], (
        f"identity row {row!r} ({recorded['call']}): got {got}, recorded "
        f"{recorded['sha256_16']} under Python {made['python']} / NumPy "
        f"{made['numpy']}; this run is Python {platform.python_version()} / "
        f"NumPy {numpy.__version__}"
    )
