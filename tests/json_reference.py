"""The pure-Python JSON writer the CLI used before its reports were written by
the C encoder, kept as the reference that ``cli._json_pieces`` must match
byte for byte.

``JSONEncoder(indent=2).iterencode`` always takes the pure-Python encoder. It
yields a non-finite float as a bare token at the end of its chunk, where no
other value can end in those letters (a string chunk ends in a quote), so the
token is quoted chunk by chunk.
"""
import itertools
import json
from fractions import Fraction

from turandet.arith import format_number

# How the encoder spells a non-finite float, and the string that replaces it.
_NON_FINITE = (("-Infinity", '"-inf"'), ("Infinity", '"inf"'), ("NaN", '"nan"'))


def _default(obj):
    if isinstance(obj, Fraction):
        return format_number(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _quote_non_finite(chunk: str) -> str:
    for token, text in _NON_FINITE:
        if chunk.endswith(token):
            return chunk[:-len(token)] + text
    return chunk


def json_chunks(payload):
    """The indented JSON text of ``payload`` in pieces of 4096 encoder chunks,
    without the final newline: Fractions become "num/den" strings and
    non-finite floats the strings "inf", "-inf" and "nan"."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True, default=_default).iterencode(payload)
    while piece := list(itertools.islice(chunks, 4096)):
        text = "".join(piece)
        if "Infinity" in text or "NaN" in text:
            text = "".join(map(_quote_non_finite, piece))
        yield text
