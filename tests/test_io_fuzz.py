"""Input hardening: mutated PGM and CSV inputs fail only with the
documented error types, and descriptor rows round-trip bit for bit."""

import io
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitpool.descriptor import Descriptor, Keypoint, read_rows, write_rows
from orbitpool.image import ImageBuffer, ImageDataError, ImageFormatError, load_image

# what a caller, and so the CLI's exit code 2, is promised
DOCUMENTED = (ImageDataError, ImageFormatError, ValueError)

RASTER = bytes(range(0, 240, 40))  # 6 pixels
PGM_SEEDS = [
    b"P5\n3 2\n255\n" + RASTER,
    b"P5\n# a comment\n3 2\n# another\n255\n" + RASTER,
    b"P5 3 2 7\n" + RASTER,
    b"P5\n3 2\n65535\n" + RASTER + RASTER,
    b"P5\n999999999 999999999\n255\n" + RASTER,
    b"P5\n3",
]

# (position, operation, value): position wraps to the data's length
EDITS = st.lists(
    st.tuples(st.integers(0, 2**16), st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 255)),
    max_size=8,
)
CUTS = st.one_of(st.none(), st.integers(0, 2**16))
TEXT_ALPHABET = ",=\n\r\"0123456789.-+eEinfaNx \x00"


def mutate(data, edits, cut, piece):
    """Apply single-element replacements, insertions and deletions, then an optional truncation."""
    for position, operation, value in edits:
        i = position % (len(data) + 1)
        if operation == "insert":
            data = data[:i] + piece(value) + data[i:]
        elif operation == "replace" and i < len(data):
            data = data[:i] + piece(value) + data[i + 1 :]
        elif operation == "delete":
            data = data[:i] + data[i + 1 :]
    if cut is not None:
        data = data[: cut % (len(data) + 1)]
    return data


def byte(value):
    return bytes([value])


def char(value):
    return TEXT_ALPHABET[value % len(TEXT_ALPHABET)]


@pytest.fixture(scope="module")
def pgm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.pgm"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PGM_SEEDS), EDITS, CUTS)
def test_mutated_pgm_raises_only_documented_errors(pgm_path, seed, edits, cut):
    pgm_path.write_bytes(mutate(seed, edits, cut, byte))
    try:
        img = load_image(pgm_path)
    except DOCUMENTED:
        return
    assert isinstance(img, ImageBuffer)


@pytest.mark.parametrize(
    "data",
    [b"P5 3 2 7\n" + RASTER, b"P5\n2 1\n1\n\x01\x02", b"P5\n1 1\n254\n\xff"],
)
def test_pixel_above_maxval_raises(pgm_path, data):
    pgm_path.write_bytes(data)
    with pytest.raises(ImageDataError, match="above maxval"):
        load_image(pgm_path)


def test_pixel_at_maxval_loads_as_one(pgm_path):
    pgm_path.write_bytes(b"P5\n3 1\n7\n\x00\x03\x07")
    assert load_image(pgm_path).values.tolist() == [[0.0, 3 / 7, 1.0]]


def rows_text():
    kps = (Keypoint(31.5, 31.5, 6.6), Keypoint(-0.0, 2.5, 1e-3, 6.2))
    descriptors = tuple(Descriptor(np.full(4, 0.25), 1, 4, kp) for kp in kps)
    buf = io.StringIO()
    header = {"source": "t", "n": 2, "cells": 1, "bins": 4, "metric": "affinity"}
    write_rows(buf, header, ((d.keypoint, d.degenerate, d.values) for d in descriptors))
    return buf.getvalue()


TEMPLATE = rows_text()


@settings(max_examples=300, deadline=None)
@given(EDITS, CUTS)
@example([(TEMPLATE.index("n="), "delete", 0)], None)
@example([(TEMPLATE.index("cells="), "replace", TEXT_ALPHABET.index("x"))], None)
@example([(TEMPLATE.index("\n") + 5, "insert", TEXT_ALPHABET.index("\r"))], None)
def test_mutated_rows_raise_only_value_errors(edits, cut):
    text = mutate(TEMPLATE, edits, cut, char)
    try:
        read_rows(io.StringIO(text))
    except ValueError:
        pass


def float_bits(x):
    return struct.pack("<d", x)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGE_VALUES = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
KEYPOINTS = st.builds(
    Keypoint, FINITE, FINITE, st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), FINITE
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(KEYPOINTS, st.booleans(), st.lists(FINITE, min_size=1, max_size=8)), max_size=5))
@example([(Keypoint(-0.0, 5e-324, 1e308, -1e308), True, EDGE_VALUES)])
def test_rows_round_trip_bit_for_bit(rows):
    buf = io.StringIO()
    write_rows(buf, {"kind": "fuzz", "n": len(rows)}, rows)
    buf.seek(0)
    fields, back = read_rows(buf)
    assert fields == {"kind": "fuzz", "n": str(len(rows))}
    assert len(back) == len(rows)
    for (kp, flag, values), (kp2, flag2, values2) in zip(rows, back):
        for name in ("u", "v", "base_size", "orientation"):
            assert float_bits(getattr(kp2, name)) == float_bits(getattr(kp, name))
        assert flag2 is flag
        assert values2.tobytes() == np.asarray(values, dtype=float).tobytes()
