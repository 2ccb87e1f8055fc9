"""Byte-identity of the CLI output across refactors.

One sha256 over the stdout and exit code of ``hh2``, ``cocycles`` and two
``deform`` runs on the six named fixtures and every graph of
``generated_family()``.  The digest was recorded before the sparse-row
linear algebra replaced the dense one; any change to a printed byte or an
exit code changes it.
"""

import hashlib

from bga.cli import main
from bga.fixtures import generated_family

NAMED = ("EX1", "DBL", "ANNULUS", "TORUS", "ANN2", "LOC_2")

RUNS = (
    ("hh2",),
    ("cocycles",),
    ("deform", "--deform-type", "A", "--t", "1", "--check-semisimple"),
    ("deform", "--deform-type", "A", "--t", "formal:4"),
)

GOLDEN = "c85e91e521ef6db7c357f7c99116c635765b5996d091469c7baad28acdd7eca2"


def _inputs(tmp_path):
    out = [(name, name) for name in NAMED]
    for label, doc in generated_family():
        path = tmp_path / f"{label}.json"
        path.write_text(doc, encoding="utf-8")
        out.append((label, str(path)))
    return out


def test_cli_output_digest_is_unchanged(tmp_path, capsys):
    digest = hashlib.sha256()
    for label, source in _inputs(tmp_path):
        for argv in RUNS:
            code = main([argv[0], "--input", source, *argv[1:]])
            out = capsys.readouterr().out
            digest.update(f"{label} {' '.join(argv)} -> {code}\n".encode())
            digest.update(out.encode())
    assert digest.hexdigest() == GOLDEN
