"""Unit tests for Matrix Market I/O."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.formats import (
    COOMatrix,
    CSRMatrix,
    read_matrix_market,
    write_matrix_market,
)

from ..conftest import assert_same_matrix, random_dense

GENERAL = """%%MatrixMarket matrix coordinate real general
% a comment line
3 4 3
1 1 2.5
2 3 -1.0
3 4 7.25
"""

SYMMETRIC = """%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 1.0
2 1 2.0
3 2 3.0
"""

SKEW = """%%MatrixMarket matrix coordinate real skew-symmetric
3 3 2
2 1 2.0
3 2 3.0
"""

PATTERN = """%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
"""


class TestRead:
    def test_general(self):
        coo = read_matrix_market(GENERAL)
        dense = coo.to_dense()
        assert coo.shape == (3, 4)
        assert dense[0, 0] == pytest.approx(2.5)
        assert dense[1, 2] == pytest.approx(-1.0)
        assert dense[2, 3] == pytest.approx(7.25)

    def test_symmetric_mirrored(self):
        dense = read_matrix_market(SYMMETRIC).to_dense()
        assert dense[0, 1] == dense[1, 0] == pytest.approx(2.0)
        assert dense[1, 2] == dense[2, 1] == pytest.approx(3.0)
        assert dense[0, 0] == pytest.approx(1.0)  # diagonal not duplicated

    def test_skew_symmetric_negated(self):
        dense = read_matrix_market(SKEW).to_dense()
        assert dense[1, 0] == pytest.approx(2.0)
        assert dense[0, 1] == pytest.approx(-2.0)

    def test_pattern_gets_values(self):
        coo = read_matrix_market(PATTERN, pattern_seed=1)
        assert coo.nnz == 2
        assert np.all(coo.values > 0)

    def test_pattern_deterministic(self):
        a = read_matrix_market(PATTERN, pattern_seed=3)
        b = read_matrix_market(PATTERN, pattern_seed=3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_file_object(self):
        coo = read_matrix_market(io.StringIO(GENERAL))
        assert coo.nnz == 3

    def test_bad_header(self):
        with pytest.raises(FormatError, match="header"):
            read_matrix_market("not a header\n1 1 1\n")

    def test_array_format_rejected(self):
        with pytest.raises(FormatError, match="coordinate"):
            read_matrix_market("%%MatrixMarket matrix array real general\n2 2\n")

    def test_complex_field_rejected(self):
        with pytest.raises(FormatError, match="field"):
            read_matrix_market(
                "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n"
            )

    def test_nnz_mismatch(self):
        with pytest.raises(FormatError, match="nnz"):
            read_matrix_market(
                "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n"
            )

    def test_excess_entries(self):
        with pytest.raises(FormatError, match="more entries"):
            read_matrix_market(
                "%%MatrixMarket matrix coordinate real general\n"
                "2 2 1\n1 1 1.0\n2 2 2.0\n"
            )

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="no such file"):
            read_matrix_market(str(tmp_path / "nope.mtx"))

    def test_empty_input(self):
        with pytest.raises(FormatError, match="empty"):
            read_matrix_market("")


HEADERS = [
    f"%%MatrixMarket matrix coordinate {field} {symmetry}\n".encode()
    for field in ("real", "integer", "pattern")
    for symmetry in ("general", "symmetric", "skew-symmetric")
]
#: entry and size-line tokens, malformed ones included
TOKENS = st.sampled_from([
    b"1", b"2", b"3", b"0", b"-1", b"x", b"3.0", b"1e999", b"nan",
    b"10000000000000", b"9" * 30, b"%", b"\xff", b"\xc3",
])


@st.composite
def matrix_market_bytes(draw):
    """Raw bytes: arbitrary, or a valid header over lines of tokens."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=120))
    lines = draw(st.lists(st.lists(TOKENS, max_size=4).map(b" ".join),
                          max_size=8))
    return draw(st.sampled_from(HEADERS)) + b"\n".join(lines) + b"\n"


class TestMalformedInput:
    @pytest.mark.parametrize("body", [
        b"2 2 1\n1 x 3.0\n",  # non-integer index
        b"2 2 1\n1 1 y\n",  # non-numeric value
        b"2 2 -1\n",  # negative declared nnz
        b"2 2 10000000000000\n1 1 1.0\n",  # absurd nnz, no allocation
        b"2 2 1\n99999999999999999999 1 1.0\n",  # index past int64
        b"99999999999999999999 2 1\n9999999999999999999 1 1.0\n",  # shape too
        b"2 2 1\n\xff\xfe 1 1.0\n",  # not UTF-8
    ])
    def test_bad_bytes_give_format_error(self, tmp_path, body):
        path = tmp_path / "bad.mtx"
        path.write_bytes(HEADERS[0] + body)
        with pytest.raises(FormatError):
            read_matrix_market(str(path))

    @settings(max_examples=200)
    @given(data=matrix_market_bytes())
    def test_any_bytes_give_matrix_or_format_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.mtx"
        path.write_bytes(data)
        try:
            coo = read_matrix_market(str(path))
        except FormatError:
            return
        assert isinstance(coo, COOMatrix)


class TestWriteRoundtrip:
    def test_roundtrip_via_buffer(self, small_dense):
        csr = CSRMatrix.from_dense(small_dense)
        buf = io.StringIO()
        write_matrix_market(csr, buf)
        again = read_matrix_market(buf.getvalue())
        assert_same_matrix(again, small_dense, atol=1e-5)

    def test_roundtrip_via_file(self, tmp_path):
        dense = random_dense((20, 30), 0.1, seed=13)
        path = tmp_path / "m.mtx"
        write_matrix_market(CSRMatrix.from_dense(dense), path)
        again = read_matrix_market(str(path))
        assert_same_matrix(again, dense, atol=1e-5)

    def test_header_written(self, small_dense):
        buf = io.StringIO()
        write_matrix_market(CSRMatrix.from_dense(small_dense), buf)
        assert buf.getvalue().startswith("%%MatrixMarket matrix coordinate real")
