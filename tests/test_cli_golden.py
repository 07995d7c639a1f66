"""Byte-for-byte CLI regression: stdout, stderr and exit code of fixed commands.

tests/golden/cli.json holds the recorded output of every command in
COMMANDS; the test runs each through cli.run in-process and compares, with
wall times masked.  After an intended output change, rerecord with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of the JSON file.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from arithfn.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

_BUILTINS = [
    "id_-2", "id_-1", "id_0", "id", "id_1", "id_2", "id_3",
    "one", "eps", "mu", "tau", "phi",
    "sigma", "sigma_0", "sigma_1", "sigma_2", "sigma_3",
    "delta", "ld", "big_omega", "delta_p:2", "delta_p:3", "delta_p:5",
    "mangoldt:delta", "mangoldt:ld", "mangoldt:big_omega",
    "mangoldt:delta_p:2", "mangoldt:delta_p:5",
]
_EVAL_TOKENS = ["delta", "ld", "big_omega", "delta_p:3", "mangoldt:ld", "tau"]
_MALFORMED = ["sqrt", "mangoldt:foo", "delta_p:9", "delta_p:x", "id_x", "sigma_-1", "mangoldt:", "1/0 . one"]
# signed expressions, whose rendered text carries a unary or binary minus
_SIGNED = ["-(one * mu)", "one - 2 . tau", "-2 . tau", "id * (-(2 . tau))", "one - (-mu)", "-1/2 . (tau . delta) + delta"]
# each series preset at the bound of its half-plane, which it rejects
_SERIES_BOUNDS = [
    ("lemma-Fld", "1"), ("thm3.3", "2"), ("cor-tau", "2"), ("cor-mu", "2"), ("cor-phi", "3"), ("cor-sigma", "3"),
]


def _commands() -> list[list[str]]:
    cmds: list[list[str]] = []
    for fmt in ("table", "csv", "json"):
        cmds.append(["list-identities", "--format", fmt])
        cmds.append(["verify", "all", "--limit", "60", "--format", fmt])
    for name in _BUILTINS:
        cmds.append(["convolve", name, "one", "--limit", "48", "--format", "csv"])
        cmds.append(["convolve", name, "one", "--at", "360"])
    for token in _EVAL_TOKENS:
        for n in ("1", "12", "360", "1001"):
            cmds.append(["eval", token, n])
        cmds.append(["eval", token, "--rational", "7/12", "--format", "json"])
    for name in _MALFORMED:
        cmds.append(["convolve", name, "one", "--limit", "10"])
        cmds.append(["eval", name, "12"])
    cmds.append(["series", "cor-sigmak", "--s", "3.5"])
    for name, bound in _SERIES_BOUNDS:
        cmds.append(["series", name, "--s", bound])
    for text in _SIGNED:
        cmds.append(["convolve", text, "one", "--limit", "12", "--format", "json"])
        cmds.append(["convolve", text, "one", "--at", "360"])
    # an expression starting with '-' and no space must follow '--'
    cmds.append(["convolve", "--limit", "12", "--format", "json", "--", "-mu", "one"])
    return cmds


_MASKS = [
    (re.compile(r"\(\d+\.\d\d s\)"), "(x.xx s)"),
    (re.compile(r'"elapsed_s": [-+.e\d]+'), '"elapsed_s": "x"'),
    # the last csv column of a verify row is elapsed_s
    (re.compile(r",\d+\.\d+(?:e-\d+)?(?=\r?$)", re.M), ",x"),
]


def _mask(text: str) -> str:
    for pattern, repl in _MASKS:
        text = pattern.sub(repl, text)
    return text


def run_captured(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"argv": argv, "code": code, "stdout": _mask(out.getvalue()), "stderr": _mask(err.getvalue())}


def _recorded() -> list[dict]:
    return json.loads(GOLDEN.read_text())["commands"]


def test_golden_covers_every_command():
    assert [c["argv"] for c in _recorded()] == _commands()


@pytest.mark.parametrize("expected", _recorded(), ids=lambda c: " ".join(c["argv"]))
def test_cli_output_unchanged(expected):
    assert run_captured(expected["argv"]) == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = [run_captured(argv) for argv in _commands()]
    GOLDEN.write_text(json.dumps({"commands": records}, indent=1) + "\n")
    print(f"recorded {len(records)} commands to {GOLDEN}")
