"""Format layer of the trace corpus: round-trips, detection, hardening.

The hypothesis properties assert the subsystem's core contract: any
canonical ms trace written in any supported format reads back exactly,
through any pair of formats.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellular import TraceFormatError
from repro.traces import (
    FORMATS,
    as_milliseconds,
    as_seconds,
    convert,
    detect_format,
    read_trace_ms,
    read_trace_seconds,
    write_trace_ms,
)
from repro.traces.formats import write_mahimahi

EXT = {"mahimahi": ".pps", "seconds": ".sec", "csv": ".csv"}

#: Sorted, non-negative integer-ms traces (repeats allowed — mahimahi
#: delivery-opportunity convention).
ms_traces = st.lists(st.integers(min_value=0, max_value=100_000),
                     min_size=1, max_size=200).map(
    lambda xs: np.asarray(sorted(xs), dtype=np.int64))


class TestRoundTrips:
    @settings(max_examples=50, deadline=None)
    @given(times_ms=ms_traces, fmt=st.sampled_from(FORMATS))
    def test_write_read_identity(self, times_ms, fmt, tmp_path_factory):
        path = tmp_path_factory.mktemp("fmt") / f"trace{EXT[fmt]}"
        write_trace_ms(path, times_ms, fmt)
        np.testing.assert_array_equal(read_trace_ms(path, fmt), times_ms)
        # Auto-detection must agree with the declared format.
        assert detect_format(path) == fmt
        np.testing.assert_array_equal(read_trace_ms(path), times_ms)

    @settings(max_examples=30, deadline=None)
    @given(times_ms=ms_traces,
           src_fmt=st.sampled_from(FORMATS),
           dst_fmt=st.sampled_from(FORMATS))
    def test_convert_any_pair_lossless(self, times_ms, src_fmt, dst_fmt,
                                       tmp_path_factory):
        root = tmp_path_factory.mktemp("conv")
        src = root / f"src{EXT[src_fmt]}"
        dst = root / f"dst{EXT[dst_fmt]}"
        write_trace_ms(src, times_ms, src_fmt)
        count = convert(src, dst, from_fmt=src_fmt, to_fmt=dst_fmt)
        assert count == times_ms.size
        np.testing.assert_array_equal(read_trace_ms(dst, dst_fmt), times_ms)

    @settings(max_examples=50, deadline=None)
    @given(times_ms=ms_traces)
    def test_seconds_domain_is_exact(self, times_ms):
        """ms -> seconds -> ms must be the identity (the seconds writer
        emits exact ms-precision decimals for the same reason)."""
        np.testing.assert_array_equal(
            as_milliseconds(as_seconds(times_ms)), times_ms)

    def test_native_trace_io_interoperates(self, tmp_path):
        """A seconds trace written the way ``repro trace`` writes it is a
        valid mahimahi corpus file and reads back as the same seconds."""
        path = tmp_path / "native.pps"
        times_s = np.array([0.001, 0.002, 0.002, 0.050])
        write_mahimahi(path, as_milliseconds(times_s))
        assert detect_format(path) == "mahimahi"
        np.testing.assert_array_equal(read_trace_ms(path),
                                      [1, 2, 2, 50])
        np.testing.assert_allclose(read_trace_seconds(path), times_s)


class TestDetection:
    def test_extension_hints(self, tmp_path):
        for ext, fmt in ((".pps", "mahimahi"), (".up", "mahimahi"),
                         (".down", "mahimahi"), (".csv", "csv"),
                         (".sec", "seconds")):
            path = tmp_path / f"t{ext}"
            path.write_text("1\n")
            assert detect_format(path) == fmt

    def test_content_sniffing(self, tmp_path):
        cases = (("10\n20\n", "mahimahi"),
                 ("0.010\n0.020\n", "seconds"),
                 ("time_ms,packets\n10,2\n", "csv"),
                 ("# comment\n\n0.5\n", "seconds"),
                 ("", "mahimahi"))
        for body, expected in cases:
            path = tmp_path / "t.trace"
            path.write_text(body)
            assert detect_format(path) == expected, body

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "t.pps"
        path.write_text("1\n")
        with pytest.raises(TraceFormatError):
            read_trace_ms(path, fmt="parquet")
        with pytest.raises(TraceFormatError):
            write_trace_ms(path, np.array([1]), fmt="parquet")


class TestHardening:
    """TraceFormatError for every malformed input.  Files load through
    ``read_trace_seconds``; arrays save through ``as_milliseconds`` and
    ``write_mahimahi``, as ``repro trace`` does."""

    def test_load_trace_rejects_unsorted_file(self, tmp_path):
        """Regression: an unsorted file must raise, not silently produce
        a TraceLink that walks backwards."""
        path = tmp_path / "unsorted.pps"
        path.write_text("20\n10\n30\n")
        with pytest.raises(TraceFormatError, match="not sorted"):
            read_trace_seconds(path)

    @pytest.mark.parametrize("body,match", [
        ("nan\n", "bad mahimahi line 1"),
        ("1.5\n", "bad mahimahi line 1"),
        ("10\nbogus\n", "bad mahimahi line 2"),
        ("-5\n", "non-negative"),
    ])
    def test_load_trace_rejects_malformed(self, tmp_path, body, match):
        path = tmp_path / "bad.pps"
        path.write_text(body)
        with pytest.raises(TraceFormatError, match=match):
            read_trace_seconds(path)

    def test_load_trace_error_is_valueerror(self, tmp_path):
        """Existing ``except ValueError`` call sites keep working."""
        path = tmp_path / "bad.pps"
        path.write_text("x\n")
        with pytest.raises(ValueError):
            read_trace_seconds(path)

    def test_save_trace_rejects_bad_arrays(self, tmp_path):
        path = tmp_path / "out.pps"
        with pytest.raises(TraceFormatError, match="NaN"):
            write_mahimahi(path, as_milliseconds(np.array([0.1, np.nan])))
        with pytest.raises(TraceFormatError, match="not sorted"):
            write_mahimahi(path, as_milliseconds(np.array([0.2, 0.1])))
        with pytest.raises(TraceFormatError, match="non-negative"):
            write_mahimahi(path, as_milliseconds(np.array([-0.1, 0.2])))

    def test_format_readers_reject_malformed(self, tmp_path):
        sec = tmp_path / "bad.sec"
        sec.write_text("0.1\ninf\n")
        with pytest.raises(TraceFormatError):
            read_trace_ms(sec, "seconds")
        csv = tmp_path / "bad.csv"
        csv.write_text("time_ms,packets\n10,2\n5,1\n")
        with pytest.raises(TraceFormatError, match="strictly increasing"):
            read_trace_ms(csv, "csv")
        csv.write_text("time_ms,packets\n10,-1\n")
        with pytest.raises(TraceFormatError, match="negative packet"):
            read_trace_ms(csv, "csv")
