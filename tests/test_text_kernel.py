"""The bulk text kernel of the CLI writers: every value it formats reads
exactly as ``"%.17g" % v`` (or ``"%d" % v``) does, stratum by stratum."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from helix4 import numtext


def kernel_lines(conv, values):
    """The kernel's text of each value, one line each."""
    return numtext.joined(["", "\n"], [numtext.texts(conv, values)]).split("\n")[:-1]


def assert_exact(conv, values):
    got = kernel_lines(conv, values)
    want = [conv % v for v in np.asarray(values).tolist()]
    wrong = [(v, g, w) for v, g, w in zip(np.asarray(values).tolist(), got, want) if g != w]
    assert len(got) == len(want) and wrong == []


def ulp_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])


def digit_group_boundaries():
    """Values whose 17 digits D sit at, and 1 either side of, multiples of
    10^4, 10^8 and 10^16 below 10^17 (as near as a double gets), where the
    digit groups of D and the trailing zeros change, at fixed and
    exponential exponents."""
    rng = np.random.default_rng(31)
    D = np.concatenate([10**16 * np.arange(1, 10), [10**17 - 1],
                        10**8 * rng.integers(10**8, 10**9, 60),
                        10**4 * rng.integers(10**12, 10**13, 60)])
    D = np.concatenate([D - 1, D, D + 1])
    D = D[(D >= 10**16) & (D < 10**17)]
    values = [float(f"{d}e{E - 16}") for d in D.tolist() for E in (-5, -1, 0, 7, 16, 17, 120)]
    return np.concatenate([ulp_neighbours(values), -ulp_neighbours(values)])


def strata():
    rng = np.random.default_rng(28)
    n = 20_000
    powers = [10.0 ** k for k in range(-45, 46)] + [float(f"1e{k}") for k in range(-45, 46)]
    carries = [99999999999999999.0, 9.9999999999999999e22, 0.99999999999999999,
               9.9999999999999995e-5, 999999999999999.9, 9.999999999999999e-5]
    return {
        "normal": rng.standard_normal(n),
        "uniform-1e-3": rng.uniform(-1e-3, 1e-3, n),
        "log-uniform-120-decades": rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-120, 120, n),
        "integers": rng.integers(-10**9, 10**9, n).astype(float),
        "decimals-3-places": np.round(rng.uniform(-1e4, 1e4, n), 3),
        "random-bits": rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        "powers-of-ten-and-ulps": np.concatenate([ulp_neighbours(powers),
                                                  -ulp_neighbours(powers)]),
        "carry-to-1e17": ulp_neighbours(carries),
        "digit-group-boundaries": digit_group_boundaries(),
        "odd-k-over-2^17": np.arange(1, 2**18, 2) / 2**17,
        "specials": np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                              -2.225073858507201e-308, sys.float_info.max, -sys.float_info.max,
                              math.nan, math.inf, -math.inf, 1e-300, 1e300, 1e-290, 1e290]),
        "float32": rng.standard_normal(1000).astype(np.float32),
    }


STRATA = strata()


@pytest.mark.parametrize("name", STRATA)
def test_the_kernel_prints_what_percent_prints(name):
    assert_exact("%.17g", STRATA[name])


def test_exact_ties_go_to_the_fallback():
    # k / 2^17 in (1, 2) has 18 significant digits ending in 5: a tie at 17,
    # which "%.17g" rounds half to even; the kernel leaves each to "%.17g"
    ties = STRATA["odd-k-over-2^17"][2**16:]
    assert ties[0] == 131073 / 131072 and ties[-1] < 2
    assert numtext._float_digits(ties)[4].all()
    assert kernel_lines("%.17g", ties[:1]) == ["1.0000076293945312"]


def test_non_finite_and_out_of_range_values_go_to_the_fallback():
    *_, fallback = numtext._float_digits(STRATA["specials"])
    assert fallback.tolist() == [False, False, True, True, True, True, True, True,
                                 True, True, True, True, True, False, False]


@pytest.mark.parametrize("values", [
    [0, 1, -1, 9, 10, -10, 99, 100, 12345, 10**16, 10**17, -(10**18)],
    [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0],
    np.random.default_rng(28).integers(-2**62, 2**62, 5_000),
    np.arange(1, 1000),
], ids=["digit-counts", "int64-range", "random", "small"])
def test_the_integer_half_prints_what_percent_d_prints(values):
    assert_exact("%d", np.asarray(values, dtype=np.int64))


def test_joined_peaks_no_higher_than_a_mask_and_compress():
    # an 8-cell CSV block of ROW_BLOCK rows; dropping the zero bytes with a
    # mask and np.compress peaked at 5.71 times the block's slot bytes (the
    # mask, compress's index array and the text), one bytes.translate pass
    # over a copy of the slots at 2.0 times
    n = 1024
    chars = numtext.texts("%.17g", np.random.default_rng(31).standard_normal(8 * n))
    cells = list(chars.reshape(n, 8, -1).transpose(1, 0, 2))
    tracemalloc.start()
    try:
        numtext.joined([""] + [","] * 7 + ["\n"], cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.71 * n * (8 * chars.shape[1] + 8)
