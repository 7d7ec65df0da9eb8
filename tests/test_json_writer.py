"""The CLI's JSON writer: byte for byte the retired pure-Python writer
(tests/json_reference.py) on any payload, every CLI report under tests/golden
rewritten unchanged, and reports written in bounded pieces, never whole."""
import argparse
import json
import math
import os
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from turandet import cli
from json_reference import json_chunks

GOLDEN = Path(__file__).parent / "golden"

# Text that the encoder must escape, or that spells what a non-finite float,
# a key separator or a row boundary looks like in the output.
_TOKENS = ("NaN", "-Infinity", "Infinity", "inf", ": ", "},", "}]", "},\n    {", '"', "\\",
           "\n", "\t", "é", "≥", "\U0001d6fc", "{", "[")
text = st.lists(st.sampled_from(_TOKENS) | st.text(max_size=3), max_size=4).map("".join)
non_finite = st.sampled_from([math.inf, -math.inf, math.nan])
scalars = st.one_of(st.integers(), st.booleans(), st.none(), st.fractions(),
                    st.floats(), non_finite, text)
# flat row tables, as the reports carry them, empty rows included
rows = st.dictionaries(text, scalars, max_size=5)
tables = st.lists(rows, max_size=12)
values = st.recursive(
    scalars | tables,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=4),
    max_leaves=25)


def _written(payload) -> str:
    return "".join(cli._json_pieces(payload))


@settings(max_examples=300, deadline=None)
@given(payload=values, batch=st.sampled_from([1, 2, 3, cli._BATCH]))
def test_writer_matches_the_pure_python_reference(payload, batch):
    with mock.patch.object(cli, "_BATCH", batch):
        assert _written(payload) == "".join(json_chunks(payload))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_floats_are_strings_wherever_they_sit(value):
    payload = {"scalar": value, "list": [1.5, value], "rows": [{"x": value, "y": "NaN"}] * 3}
    assert _written(payload) == "".join(json_chunks(payload))
    spelled = json.loads(_written(payload))
    assert spelled["scalar"] == spelled["list"][1] == spelled["rows"][2]["x"]
    assert spelled["scalar"] in ("inf", "-inf", "nan") and spelled["rows"][0]["y"] == "NaN"


# eval_polys.json is written by json.dumps at indent=1, not by the CLI
@pytest.mark.parametrize("path", sorted(p.name for p in GOLDEN.glob("*.json")
                                        if p.name != "eval_polys.json"))
def test_golden_reports_are_rewritten_unchanged(path):
    text = (GOLDEN / path).read_text(encoding="utf-8")
    assert _written(json.loads(text)) + "\n" == text


def _payload(argv):
    """The payload that ``main(argv)`` hands to the writer."""
    captured = []
    with mock.patch.object(cli, "_emit_json", lambda payload, ns: captured.append(payload)):
        cli.main([*argv, "--reproducible"])
    (payload,) = captured
    return payload


# A scan report at n_max = 5000 is about 0.56 MB of text, and a ratios report
# at N = 3000 about 0.53 MB; joining either takes more than 1 MB.
@pytest.mark.parametrize("argv", [
    ["scan", "--family", "Legendre", "--n-max", "5000"],
    ["ratios", "--family", '{"kind": "Example3", "params": {"a": 2}}', "--N", "3000"],
], ids=["scan", "ratios"])
def test_the_writer_streams(argv):
    payload = _payload(argv)
    lengths = [len(piece) for piece in cli._json_pieces(payload)]
    assert len(lengths) > 1 and sum(lengths) > 400_000
    assert max(lengths) <= 64 * 1024
    tracemalloc.start()
    try:
        cli._emit_json(payload, argparse.Namespace(reproducible=True, output=os.devnull))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6
