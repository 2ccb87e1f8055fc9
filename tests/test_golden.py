"""Byte-identity of the CLI output across refactors.

One sha256 over the stdout and exit code of ``hh2``, ``cocycles`` and two
``deform`` runs on the six named fixtures and every graph of
``generated_family()``.  The digest was recorded before the sparse-row
linear algebra replaced the dense one; any change to a printed byte or an
exit code changes it.

A second sha256 covers the commands the first one does not reach:
``validate``, ``info``, ``basis`` and ``diamond`` on the same inputs,
``selftest``, and ``diamond`` and ``hh2`` on a non-confluent ANNULUS rules
document.  It pins the diamond check (behind ``diamond``, ``selftest`` and
the two-cycle count of ``info``) and the multiplication table (behind
``basis``).  It was recorded before the overlap resolution moved onto the
normal-form memo.
"""

import hashlib
import json

from loaders import generated_family

from bga.cli import main

NAMED = ("EX1", "DBL", "ANNULUS", "TORUS", "ANN2", "LOC_2")

RUNS = (
    ("hh2",),
    ("cocycles",),
    ("deform", "--deform-type", "A", "--t", "1", "--check-semisimple"),
    ("deform", "--deform-type", "A", "--t", "formal:4"),
)

GOLDEN = "c85e91e521ef6db7c357f7c99116c635765b5996d091469c7baad28acdd7eca2"

STRUCTURE_RUNS = (("validate",), ("info",), ("basis",), ("diamond",))

# the two rules of test_non_confluent_rules_output_is_pinned
BROKEN_ANNULUS_RULES = {"rules": [
    {"tip": ["x", "y"], "rhs": [["1", []]]},
    {"tip": ["y", "x"], "rhs": []},
]}

STRUCTURE_GOLDEN = "8678990aa30a7de4f6b97226ecfc19bced3fcda6b8212b1df0fb10849eef8fdf"


def _inputs(tmp_path):
    out = [(name, name) for name in NAMED]
    for label, doc in generated_family():
        path = tmp_path / f"{label}.json"
        path.write_text(doc, encoding="utf-8")
        out.append((label, str(path)))
    return out


def _digest(capsys, runs):
    """sha256 over the label, the shown argv, the exit code and the stdout
    of every run; the shown argv leaves out the input paths, which change
    from run to run."""
    digest = hashlib.sha256()
    for label, shown, argv in runs:
        code = main(list(argv))
        out = capsys.readouterr().out
        digest.update(f"{label} {' '.join(shown)} -> {code}\n".encode())
        digest.update(out.encode())
    return digest.hexdigest()


def _input_runs(tmp_path, commands):
    return [(label, argv, (argv[0], "--input", source, *argv[1:]))
            for label, source in _inputs(tmp_path) for argv in commands]


def test_cli_output_digest_is_unchanged(tmp_path, capsys):
    assert _digest(capsys, _input_runs(tmp_path, RUNS)) == GOLDEN


def test_structure_commands_digest_is_unchanged(tmp_path, capsys):
    rules = tmp_path / "broken.json"
    rules.write_text(json.dumps(BROKEN_ANNULUS_RULES), encoding="utf-8")
    runs = _input_runs(tmp_path, STRUCTURE_RUNS)
    runs.append(("all", ("selftest",), ("selftest",)))
    for command in ("diamond", "hh2"):
        runs.append(("broken-ANNULUS", (command,),
                     (command, "--input", "ANNULUS", "--rules", str(rules))))
    assert _digest(capsys, runs) == STRUCTURE_GOLDEN
