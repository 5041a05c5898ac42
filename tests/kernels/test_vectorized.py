"""Shifted stream construction is exact: a translated stream equals
the one built directly at the shifted base."""

import numpy as np
import pytest

from repro.kernels.vectorized import shift_stream
from repro.machine.config import SUBPAGE_BYTES
from repro.memory.streams import gather, sequential, strided


class TestShiftStream:
    @pytest.mark.parametrize("frames", [1, 7])
    def test_matches_direct_construction(self, frames):
        delta = frames * SUBPAGE_BYTES
        cases = [
            (sequential(0, 3000, write_fraction=0.5), lambda d: sequential(d, 3000, write_fraction=0.5)),
            (strided(0, 400, 19), lambda d: strided(d, 400, 19)),
            (
                gather(0, np.arange(0, 2048, 3)),
                lambda d: gather(d, np.arange(0, 2048, 3)),
            ),
        ]
        for base, build in cases:
            shifted = shift_stream(base, delta)
            direct = build(delta)
            assert np.array_equal(shifted.subpages, direct.subpages)
            assert np.array_equal(shifted.weights, direct.weights)
            assert shifted.write_fraction == direct.write_fraction

    def test_unaligned_delta_returns_none(self):
        assert shift_stream(sequential(0, 100), SUBPAGE_BYTES - 8) is None

    def test_zero_delta_returns_the_stream(self):
        stream = sequential(0, 100)
        assert shift_stream(stream, 0) is stream

    def test_negative_shift_below_zero_returns_none(self):
        assert shift_stream(sequential(0, 100), -SUBPAGE_BYTES) is None

    def test_negative_shift_in_range_is_exact(self):
        base = sequential(16 * SUBPAGE_BYTES, 500)
        shifted = shift_stream(base, -4 * SUBPAGE_BYTES)
        direct = sequential(12 * SUBPAGE_BYTES, 500)
        assert np.array_equal(shifted.subpages, direct.subpages)
