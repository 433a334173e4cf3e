import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from offlang.erf import BLOCK, erf

DIGITS = 60
# Where fdlibm's branches meet: 2^-28, 0.84375, 1.25, the erfc split at the
# high word 0x4006DB6E (about 1 / 0.35) and 6.
ERFC_SPLIT = float(np.array(0x4006DB6E00000000, dtype=np.uint64).view(np.float64))
BOUNDARIES = (2.0**-28, 0.84375, 1.25, ERFC_SPLIT, 6.0)


def _arctan_inverse(n: int, eps: Decimal) -> Decimal:
    """arctan(1 / n) by its Taylor series."""
    x = Decimal(1) / n
    term, total, k = x, x, 1
    while abs(term) > eps:
        term *= -x * x
        k += 2
        total += term / k
    return total


def reference_erf(x: float) -> float:
    """erf(x) to DIGITS digits, rounded once to the nearest float:
    erf(x) = 2 / sqrt(pi) * exp(-x^2) * sum 2^n x^(2n+1) / (1 * 3 * ... * (2n+1)),
    a series of positive terms, so no digits cancel."""
    if x == 0 or math.isinf(x):
        return math.copysign(0.0 if x == 0 else 1.0, x)
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        eps = Decimal(10) ** -(DIGITS + 10)
        pi = 16 * _arctan_inverse(5, eps) - 4 * _arctan_inverse(239, eps)
        d = abs(Decimal(x))
        term, total, n = d, d, 0
        while term > total * eps:
            n += 1
            term = term * 2 * d * d / (2 * n + 1)
            total += term
        value = float(2 / pi.sqrt() * (-d * d).exp() * total)
    return math.copysign(value, x)


def ulps_apart(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The number of floats between a and b, for finite floats of one sign."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_reference_agrees_with_the_math_module():
    for x in (0.1, 0.5, 1.0, 2.5, 4.0):
        assert abs(reference_erf(x) - math.erf(x)) <= 2 * math.ulp(math.erf(x))


class TestAccuracy:
    def test_within_one_ulp_of_the_reference(self):
        rng = np.random.default_rng(2020)
        x = np.concatenate([
            rng.uniform(-6.5, 6.5, 1500),
            np.exp2(rng.uniform(-40.0, 3.0, 500)) * rng.choice([-1.0, 1.0], 500),
        ])
        ref = np.array([reference_erf(v) for v in x])
        assert ulps_apart(erf(x), ref).max() <= 1

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_within_one_ulp_on_both_sides_of_each_branch_boundary(self, boundary):
        below, above = np.nextafter(boundary, 0.0), np.nextafter(boundary, np.inf)
        x = np.array([below, boundary, above])
        x = np.concatenate([x, -x])
        ref = np.array([reference_erf(v) for v in x])
        assert ulps_apart(erf(x), ref).max() <= 1

    def test_exact_on_zeros_subnormals_infinities_and_nan(self):
        x = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320, 2.0**-1022, np.inf, -np.inf])
        got = erf(x)
        assert got.tobytes() == np.array([reference_erf(v) for v in x]).tobytes()
        assert np.signbit(got[1]) and got[-2:].tolist() == [1.0, -1.0]
        assert np.isnan(erf(np.array([np.nan]))).all()

    def test_one_from_six_on(self):
        x = np.array([6.0, 7.5, 27.0, 1e300, np.finfo(float).max])
        assert erf(x).tolist() == [1.0] * 5
        assert erf(-x).tolist() == [-1.0] * 5


class TestShapes:
    def test_odd_function_bitwise(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.normal(0, 2, 5000), [0.0, 5e-324, 2.0**-30, np.inf, 6.0]])
        assert erf(-x).tobytes() == (-erf(x)).tobytes()

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_any_split_of_the_array_gives_the_same_bits(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(0.0, 1.5, n)
        # Elements of every branch, on both sides of the block edges.
        for i, v in zip((0, BLOCK - 1, BLOCK, n - 1), (2.0**-40, 1.0, 2.0, -4.0)):
            if 0 <= i < n:
                x[i] = v
        whole = erf(x)
        assert whole.shape == (n,)
        pieces = np.concatenate([erf(x[:7]), erf(x[7 : BLOCK + 2]), erf(x[BLOCK + 2 :])])
        assert whole.tobytes() == pieces.tobytes()
        # In place, each block's special inputs are read before it is overwritten.
        in_place = x.copy()
        assert erf(in_place, out=in_place) is in_place
        assert in_place.tobytes() == whole.tobytes()

    def test_non_contiguous_input(self):
        x = np.random.default_rng(1).normal(0.0, 1.5, (40, 30))
        for view in (x[::3], x.T, x[:, 5], np.asfortranarray(x)):
            got = erf(view)
            assert got.shape == view.shape
            assert got.tobytes() == erf(np.ascontiguousarray(view)).tobytes()

    def test_out_must_be_a_contiguous_float64_array_of_the_shape(self):
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        out = np.empty((3, 4))
        assert erf(x, out=out) is out and out.tobytes() == erf(x).tobytes()
        for bad in (np.empty(12), np.empty((3, 4), np.float32), np.empty((4, 3)).T):
            with pytest.raises(ValueError, match="out must be"):
                erf(x, out=bad)

    def test_empty_input(self):
        assert erf(np.empty(0)).shape == (0,)
        assert erf(np.empty((0, 4))).shape == (0, 4)
