"""Unit tests for unit helpers."""

import pytest

from repro.units import (
    GiB,
    KiB,
    MiB,
    format_bytes,
    format_seconds,
)


class TestFormatBytes:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, "0 B"),
            (512, "512 B"),
            (1 * KiB, "1.00 KiB"),
            (1536, "1.50 KiB"),
            (3 * MiB, "3.00 MiB"),
            (2.5 * GiB, "2.50 GiB"),
            (-1 * MiB, "-1.00 MiB"),
        ],
    )
    def test_examples(self, value, expected):
        assert format_bytes(value) == expected


class TestFormatSeconds:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (7200, "2.00 h"),
            (90, "1.50 min"),
            (2.5, "2.50 s"),
            (0.25, "250.00 ms"),
            (2e-5, "20.00 us"),
            (-90, "-1.50 min"),
        ],
    )
    def test_examples(self, value, expected):
        assert format_seconds(value) == expected
