"""The error function in numpy: a port of fdlibm's s_erf.c.

The branches, coefficients and evaluation order are fdlibm's (FreeBSD
msun/src/s_erf.c), so every result is the one the C routine computes with
IEEE double arithmetic, except that the two `exp` calls of the
1.25 <= |x| < 6 branch are numpy's and may round differently. Against a
60-digit reference every sampled result is within 1 ulp, and ±0,
subnormals, ±inf and nan come out exact (tests/test_erf.py).

fdlibm carries this notice, preserved here:

    Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.

    Developed at SunPro, a Sun Microsystems, Inc. business.
    Permission to use, copy, modify, and distribute this
    software is freely granted, provided that this notice
    is preserved.

numpy pays about a microsecond per call on top of the arithmetic, so the
work is shaped around the inputs the encoder's GELU sees, where nearly
every |x| is below 0.84375. That branch runs over the whole array in
blocks of BLOCK elements, which keeps its temporaries in the L2 cache.
The other branches run once per call on the gathered elements that need
them: [0.84375, 1.25) over the gathered elements, then the `exp` branch
only over those at or above 1.25.

`erf(x, out=x)` overwrites x with its erf, bit for bit what `erf(x)`
returns, with no extra pass: each block's elements outside the small
branch are gathered before the block's last add writes its results, and
only the small branch's x * pp / qq needs a block-sized buffer of its own.
The encoder's GELU uses it on its own x / sqrt 2 array.
"""

from __future__ import annotations

import numpy as np

BLOCK = 16384
_TINY = 2.0**-28  # below it, erf(x) = x + efx * x to within an ulp
_SMALL_Z = 0.84375**2  # x * x >= _SMALL_Z exactly when |x| >= 0.84375
_ERX = 8.45062911510467529297e-01  # 0.84506291151 rounded to 24 bits; pa / qa fit erf - erx
_EFX8 = 1.02703333676410069053e00  # 8 * (2 / sqrt(pi) - 1)
# fdlibm picks the erfc coefficients by the high word 0x4006DB6E, about 1 / 0.35.
_ERFC_SPLIT = float(np.array(0x4006DB6E00000000, dtype=np.uint64).view(np.float64))

# Polynomial coefficients, lowest degree first.
# |x| < 0.84375: erf(x) = x + x * pp(x^2) / qq(x^2)
_PP = (1.28379167095512558561e-01, -3.25042107247001499370e-01, -2.84817495755985104766e-02,
       -5.77027029648944159157e-03, -2.37630166566501626084e-05)
_QQ = (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02, 5.08130628187576562776e-03,
       1.32494738004321644526e-04, -3.96022827877536812320e-06)
# 0.84375 <= |x| < 1.25: erf(x) = erx + pa(s) / qa(s), s = |x| - 1
_PA = (-2.36211856075265944077e-03, 4.14856118683748331666e-01, -3.72207876035701323847e-01,
       3.18346619901161753674e-01, -1.10894694282396677476e-01, 3.54783043256182359371e-02,
       -2.16637559486879084300e-03)
_QA = (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01, 7.18286544141962662868e-02,
       1.26171219808761642112e-01, 1.36370839120290507362e-02, 1.19844998467991074170e-02)
# 1.25 <= |x| < 1/0.35: erfc(x) = exp(-x^2 - 0.5625 + ra(t) / sa(t)) / x, t = 1 / x^2
_RA = (-9.86494403484714822705e-03, -6.93858572707181764372e-01, -1.05586262253232909814e01,
       -6.23753324503260060396e01, -1.62396669462573470355e02, -1.84605092906711035994e02,
       -8.12874355063065934246e01, -9.81432934416914548592e00)
_SA = (1.0, 1.96512716674392571292e01, 1.37657754143519042600e02, 4.34565877475229228821e02,
       6.45387271733267880336e02, 4.29008140027567833386e02, 1.08635005541779435134e02,
       6.57024977031928170135e00, -6.04244152148580987438e-02)
# 1/0.35 <= |x| < 6: the same with rb and sb
_RB = (-9.86494292470009928597e-03, -7.99283237680523006574e-01, -1.77579549177547519889e01,
       -1.60636384855821916062e02, -6.37566443368389627722e02, -1.02509513161107724954e03,
       -4.83519191608651397019e02)
_SB = (1.0, 3.03380607434824582924e01, 3.25792512996573918826e02, 1.53672958608443695994e03,
       3.19985821950859553908e03, 2.55305040643316442583e03, 4.74528541206955367215e02,
       -2.24409524465858183362e01)


def _stacked(num, den, width):
    """(width, 2, 1): the numerator and denominator coefficients side by
    side, zero-padded to `width`. Horner's rule over a zero leading
    coefficient is exact (0 * t + c == c), so the padding changes no bit."""
    return np.array([c + (0.0,) * (width - len(c)) for c in (num, den)]).T[:, :, None]


# Padded to one width, so that np.where can pick either set per element.
_RS_A, _RS_B = _stacked(_RA, _SA, len(_SA)), _stacked(_RB, _SB, len(_SA))
# One comparison finds the elements outside the small branch: as unsigned
# integers, bits(x * x) - bits(2^-56) wraps around when x * x < 2^-56 (that
# is, |x| < 2^-28), is at least _Z_SPAN when |x| >= 0.84375, and nan's bits
# lie above both.
_Z_LO = int(np.array(2.0**-56).view(np.int64))
_Z_SPAN = int(np.array(_SMALL_Z).view(np.int64)) - _Z_LO


def _horner(coefs, t, acc):
    """sum(coefs[j] * t**j) into acc, in fdlibm's order: c0 + t * (c1 + t * (...))."""
    np.multiply(t, coefs[-1], out=acc)
    for c in coefs[-2:0:-1]:
        acc += c
        acc *= t
    acc += coefs[0]
    return acc


def erf(x, out=None) -> np.ndarray:
    """erf of every element of x, into `out` or a new float64 array of x's
    shape. `out` may be x itself; otherwise it must not overlap x."""
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    elif out.shape != x.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float64 array of x's shape")
    flat, dest = x.reshape(-1), out.reshape(-1)
    n = flat.size
    # x * pp / qq has a block of its own, so that out may be x.
    z, s, q = np.empty(min(n, BLOCK)), np.empty(min(n, BLOCK)), np.empty(min(n, BLOCK))
    special = np.empty(z.size, dtype=bool)  # |x| < 2^-28, |x| >= 0.84375 or nan
    rest, held = [], []  # the special elements' positions and inputs
    # inf and nan inputs make inf - inf and 0 / 0 in the small branch, whose
    # results the other branches replace.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, n, BLOCK):
            xb, ob = flat[start : start + BLOCK], dest[start : start + BLOCK]
            if xb.size < z.size:
                z, s, q, special = z[: xb.size], s[: xb.size], q[: xb.size], special[: xb.size]
            np.multiply(xb, xb, out=z)
            bits = s.view(np.int64)
            np.subtract(z.view(np.int64), _Z_LO, out=bits)
            np.greater_equal(bits.view(np.uint64), _Z_SPAN, out=special)
            # Gathered before the add below, which may overwrite xb.
            idx = np.flatnonzero(special)
            if idx.size:
                rest.append(idx + start)
                held.append(xb[idx])
            # x + x * pp / qq
            r = _horner(_PP, z, q)
            r /= _horner(_QQ, z, s)
            r *= xb
            np.add(r, xb, out=ob)
        if rest:
            dest[np.concatenate(rest)] = _outside_small(np.concatenate(held))
    return out


def _outside_small(x: np.ndarray) -> np.ndarray:
    """erf for |x| < 2^-28, |x| >= 0.84375 and nan."""
    a = np.abs(x)
    s = a - 1.0
    v = _horner(_PA, s, np.empty_like(s))
    v /= _horner(_QA, s, np.empty_like(s))
    v += _ERX
    tail = np.flatnonzero(a >= 1.25)
    if tail.size:
        # At |x| >= 6, erfc(6) < 2^-54 rounds 1 - erfc to 1, so clamping to 6
        # gives fdlibm's 1 - tiny.
        c = np.minimum(a[tail], 6.0)
        t = c * c
        np.divide(1.0, t, out=t)
        coefs = np.where(c < _ERFC_SPLIT, _RS_A, _RS_B)
        rs = _horner(coefs, t, np.empty((2, c.size)))
        hi = (c.view(np.uint64) & np.uint64(0xFFFFFFFF00000000)).view(np.float64)
        e = np.exp(-hi * hi - 0.5625) * np.exp((hi - c) * (hi + c) + rs[0] / rs[1])
        v[tail] = 1.0 - e / c
    np.copysign(v, x, out=v)
    tiny = np.flatnonzero(a < _TINY)
    if tiny.size:
        xt = x[tiny]
        v[tiny] = 0.125 * (8.0 * xt + _EFX8 * xt)  # scaled so that subnormals do not underflow
    return v
