"""Replay the golden-output corpus through ``cli.main`` and compare what it prints.

``regen.py`` records the corpus and describes the three comparison modes.
"""

import json
import re

from regen import CORPUS, replay

# a JSON key, or a number with its sign; everything else is text to match byte for byte
_TOKEN = re.compile(r'"(?P<key>\w+)":|(?P<num>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)')
# keys whose numbers come from an eigensolver
_SPECTRAL_KEYS = ("eigen", "difference")


def _split(text: str) -> tuple:
    """The text with each number replaced by ``#``, and ``(number, key before it)`` per number."""
    skeleton, numbers, key, last = [], [], None, 0
    for m in _TOKEN.finditer(text):
        if m["key"]:
            key = m["key"]
            continue
        skeleton.append(text[last:m.start()] + "#")
        numbers.append((float(m["num"]), key))
        last = m.end()
    return "".join(skeleton) + text[last:], numbers


def _differences(mode: str, want: str, got: str) -> list:
    if mode == "shape":
        want_lines, got_lines = want.splitlines(), got.splitlines()
        if want_lines[:1] != got_lines[:1] or len(want_lines) != len(got_lines):
            return ["header or row count differs"]
        return []
    want_text, want_numbers = _split(want)
    got_text, got_numbers = _split(got)
    if want_text != got_text:
        return ["text between the numbers differs"]
    bad = []
    for (a, key), (b, _) in zip(want_numbers, got_numbers):
        if mode == "spectrum" or key in _SPECTRAL_KEYS:
            ok = abs(a - b) <= 1e-10
        else:
            ok = abs(a - b) <= 1e-12 * max(abs(a), abs(b))
        if not ok:
            bad.append(f"{key or 'number'}: {a!r} recorded, {b!r} now")
    return bad


def test_cli_output_matches_the_golden_corpus():
    mismatches = []
    for case in json.loads(CORPUS.read_text(encoding="utf-8")):
        code, out, err = replay(case["argv"], case.get("config"))
        found = [] if code == case["exit"] else [f"exit {case['exit']} recorded, {code} now"]
        found += [f"stdout: {d}" for d in _differences(case["mode"], case["stdout"], out)]
        found += [f"stderr: {d}" for d in _differences("text", case["stderr"], err)]
        if found:
            mismatches.append((" ".join(case["argv"])[:120], found[:3]))
    assert not mismatches, mismatches
