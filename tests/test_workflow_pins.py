"""The stdout pins of the tier-1 workflow, checked in process.

Each ``pin SHA ARGS...`` and ``pin_rss SHA MAX_MB ARGS...`` line of
``.github/workflows/tier1.yml`` runs ``halfcube ARGS --format json`` and
compares the SHA-256 of its stdout with the pin.  Here each runs through
``cli.main`` on empty lattice, held-matrix and basis caches, as a fresh
process would; the peak-RSS gates of ``pin_rss`` stay with the workflow.
"""

import contextlib
import hashlib
import io
import pathlib
import re

import pytest

from halfcube import cli, complexes, faces, symmetry

WORKFLOW = pathlib.Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"
PIN_LINE = re.compile(r"^\s*(pin|pin_rss) ([0-9a-f]{64}) (.*)$")

# invocations that take over a second in process
SLOW = {"verify --n-max 8", "betti --n 9 --k 4 --max-cells 40000", "orbits --n 10"}


def workflow_pins():
    """(args, pinned SHA-256) per pin or pin_rss line of the workflow, in file order."""
    pins = []
    for line in WORKFLOW.read_text().splitlines():
        m = PIN_LINE.match(line)
        if m:
            kind, pinned, rest = m.groups()
            args = rest.split()
            pins.append((args[1:] if kind == "pin_rss" else args, pinned))
    return pins


PINS = workflow_pins()


def test_the_workflow_pins_are_all_read():
    # the four betti --characters pins, the n = 10 orbits and every pin_rss
    # line are among them; a change to the shell helpers' syntax fails here
    names = [" ".join(args) for args, _ in PINS]
    assert len(names) == len(set(names)) == 14, names
    assert sum(name.startswith("betti") and "--characters" in name for name in names) == 4
    assert SLOW <= set(names)


@pytest.mark.parametrize(
    "args, pinned",
    [
        pytest.param(
            args,
            pinned,
            id="-".join(a.lstrip("-") for a in args),
            marks=[pytest.mark.slow] if " ".join(args) in SLOW else [],
        )
        for args, pinned in PINS
    ],
)
def test_workflow_stdout_pin(args, pinned, monkeypatch):
    monkeypatch.setattr(faces, "_lattice_cache", {})
    monkeypatch.setattr(complexes, "_held", {})
    monkeypatch.setattr(symmetry, "_basis_cache", {})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*args, "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == pinned
