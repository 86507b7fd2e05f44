"""The bulk text kernel of the CLI writers: every value it formats reads
exactly as ``"%.17g" % v`` (or ``"%d" % v``) does, stratum by stratum."""

import math
import sys

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
