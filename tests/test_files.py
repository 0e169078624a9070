"""Malformed NWMEDIUM / NWPERC files: every defect is a NashwalkError, and
the CLI turns it into exit code 2."""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from nashwalk.cli import main
from nashwalk.container import pack_container, unpack_container
from nashwalk.errors import IncompleteTable, NashwalkError
from nashwalk.medium import MEDIUM_MAGIC, Medium, MediumParams, _validate_params, build_medium
from nashwalk.percolation import PERC_MAGIC, PercolationGraph, sample_percolation

MEDIUM_BLOB = build_medium(5, 0.4, 21).dump_bytes()
PERC_BLOB = sample_percolation(5, 0.3, 22).dump_bytes()


def _with_header(blob: bytes, magic: bytes, edit) -> bytes:
    header, payload = unpack_container(blob, magic)
    return pack_container(magic, edit(dict(header)), payload)


def _drop(key):
    def edit(header):
        del header[key]
        return header
    return edit


def _set(key, value):
    def edit(header):
        header[key] = value
        return header
    return edit


def _raw_header(magic: bytes, text: bytes, payload: bytes) -> bytes:
    return magic + struct.pack("<I", len(text)) + text + payload


# ---------------------------------------------------------------------------
# NWMEDIUM


def test_medium_header_without_n_players():
    with pytest.raises(IncompleteTable, match="missing"):
        Medium.load_bytes(_with_header(MEDIUM_BLOB, MEDIUM_MAGIC, _drop("n_players")))


def test_medium_header_that_is_a_json_array():
    _, payload = unpack_container(MEDIUM_BLOB, MEDIUM_MAGIC)
    with pytest.raises(IncompleteTable, match="JSON object"):
        Medium.load_bytes(_raw_header(MEDIUM_MAGIC, b"[5, 0.4]", payload))


def test_medium_header_that_is_not_json():
    _, payload = unpack_container(MEDIUM_BLOB, MEDIUM_MAGIC)
    with pytest.raises(IncompleteTable, match="unreadable"):
        Medium.load_bytes(_raw_header(MEDIUM_MAGIC, b"{\xff", payload))


def test_medium_lazy_header_over_table_payload():
    with pytest.raises(IncompleteTable, match="exhaustive"):
        Medium.load_bytes(_with_header(MEDIUM_BLOB, MEDIUM_MAGIC, _set("mode", "lazy")))


def test_medium_trailing_payload_bytes():
    with pytest.raises(IncompleteTable, match="payload"):
        Medium.load_bytes(MEDIUM_BLOB + b"\x00")


@pytest.mark.parametrize("key, value", [
    ("n_players", "5"), ("n_players", 5.0), ("n_players", True), ("alpha", "0.4"),
    ("alpha", None), ("seed", 21.0), ("seed", -1), ("seed", 1 << 64),
    ("mode", 0), ("format_version", 2), ("format_version", "1"),
])
def test_medium_header_field_types_and_values(key, value):
    with pytest.raises(IncompleteTable):
        Medium.load_bytes(_with_header(MEDIUM_BLOB, MEDIUM_MAGIC, _set(key, value)))


def test_medium_header_with_unexpected_field():
    with pytest.raises(IncompleteTable, match="unexpected"):
        Medium.load_bytes(_with_header(MEDIUM_BLOB, MEDIUM_MAGIC, _set("extra", 1)))


def test_medium_header_dimension_and_alpha_are_validated():
    with pytest.raises(NashwalkError):
        Medium.load_bytes(_with_header(MEDIUM_BLOB, MEDIUM_MAGIC, _set("n_players", 0)))
    with pytest.raises(NashwalkError):
        Medium.load_bytes(_with_header(MEDIUM_BLOB, MEDIUM_MAGIC, _set("alpha", 1.5)))


def test_unknown_mode_is_reported_before_the_cap():
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        _validate_params(MediumParams(70, 0.5, 0, "bogus"))


# ---------------------------------------------------------------------------
# NWPERC


def test_perc_header_without_n():
    with pytest.raises(IncompleteTable, match="missing"):
        PercolationGraph.load_bytes(_with_header(PERC_BLOB, PERC_MAGIC, _drop("n")))


def test_perc_header_that_is_a_json_array():
    _, payload = unpack_container(PERC_BLOB, PERC_MAGIC)
    with pytest.raises(IncompleteTable, match="JSON object"):
        PercolationGraph.load_bytes(_raw_header(PERC_MAGIC, b"[]", payload))


def test_perc_trailing_payload_bytes():
    with pytest.raises(IncompleteTable, match="payload"):
        PercolationGraph.load_bytes(PERC_BLOB + b"\x00")


@pytest.mark.parametrize("key, value", [
    ("n", "5"), ("n", 0), ("n", 40), ("beta", "0.3"), ("beta", 2.0),
    ("seed", 1.5), ("seed", -3), ("format_version", 7),
])
def test_perc_header_field_types_and_values(key, value):
    with pytest.raises(NashwalkError):
        PercolationGraph.load_bytes(_with_header(PERC_BLOB, PERC_MAGIC, _set(key, value)))


def test_perc_header_allows_null_beta_and_seed():
    blob = _with_header(PERC_BLOB, PERC_MAGIC,
                        lambda h: dict(h, beta=None, seed=None))
    back = PercolationGraph.load_bytes(blob)
    assert back.beta is None and back.seed is None


# ---------------------------------------------------------------------------
# both formats


@pytest.mark.parametrize("blob, load, bits", [
    (sample_percolation(1, 0.5, 3).dump_bytes(), PercolationGraph.load_bytes, 0xFE),
    (build_medium(1, 0.5, 6).dump_bytes(), Medium.load_bytes, 0xFC),
    (sample_percolation(2, 0.5, 3).dump_bytes(), PercolationGraph.load_bytes, 0xF0),
], ids=["perc-n1", "medium-n1", "perc-n2"])
def test_set_spare_bits_in_the_last_byte(blob, load, bits):
    # the writer clears the spare bits of the last payload byte; a reader
    # that ignored them would load (and re-dump) a file it never wrote
    load(blob)
    with pytest.raises(IncompleteTable, match="spare bits"):
        load(blob[:-1] + bytes([blob[-1] | bits]))


# ---------------------------------------------------------------------------
# fuzz: any corruption either loads or raises a NashwalkError


def _corruptions(blob: bytes):
    return st.one_of(
        st.integers(0, len(blob)).map(lambda k: blob[:k]),
        st.binary(min_size=1, max_size=8).map(lambda tail: blob + tail),
        st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)).map(
            lambda p: blob[: p[0]] + bytes([p[1]]) + blob[p[0] + 1 :]
        ),
    )


@settings(max_examples=200)
@given(_corruptions(MEDIUM_BLOB))
def test_corrupted_medium_files_raise_package_errors(blob):
    try:
        Medium.load_bytes(blob)
    except NashwalkError:
        pass


@settings(max_examples=200)
@given(_corruptions(PERC_BLOB))
def test_corrupted_percolation_files_raise_package_errors(blob):
    try:
        PercolationGraph.load_bytes(blob)
    except NashwalkError:
        pass


# ---------------------------------------------------------------------------
# CLI


@pytest.mark.parametrize("edit", [
    _drop("n_players"),
    lambda h: list(h.values()),
    _set("mode", "lazy"),
])
def test_analyze_malformed_header_exits_2(tmp_path, edit):
    header, payload = unpack_container(MEDIUM_BLOB, MEDIUM_MAGIC)
    path = tmp_path / "bad.bin"
    path.write_bytes(_raw_header(MEDIUM_MAGIC, json.dumps(edit(header)).encode(), payload))
    assert main(["analyze", "--n", "5", "--alpha", "0.4", "--in", str(path)]) == 2


def test_analyze_trailing_bytes_exits_2(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(MEDIUM_BLOB + b"\x01")
    assert main(["analyze", "--n", "5", "--alpha", "0.4", "--in", str(path)]) == 2
