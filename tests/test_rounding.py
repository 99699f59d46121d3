"""The one rounding model, specfun._rounding, against the summation each site runs.

c(n) is pinned against numpy's pairwise sum by a literal port of it, and
every certified sum is run on an adversarial input the way its code runs
it (strided views, axis reductions, block by block): its stated
allowance must cover the gap to math.fsum.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from pinchtrace import counting, specfun, trace, xform
from pinchtrace.policy import DEFAULT_POLICY
from pinchtrace.specfun import _rounding

_EPS = float(np.finfo(float).eps)
_DELTA = 0.5 * _EPS * (1.0 + 2.0**-10)  # just over half an ulp of a sum in [1, 2)


def _pairwise(a, lo, n):
    """numpy's float64 pairwise sum of a[lo:lo + n] (loops_utils.h), in Python floats."""
    if n < 8:
        res = -0.0
        for i in range(lo, lo + n):
            res += a[i]
        return res
    if n <= 128:
        r = a[lo:lo + 8]
        i = 8
        while i < n - n % 8:
            r = [r[j] + a[lo + i + j] for j in range(8)]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for k in range(lo + i, lo + n):
            res += a[k]
        return res
    half = n // 2 - (n // 2) % 8
    return _pairwise(a, lo, half) + _pairwise(a, lo + half, n - half)


def _deepest(lo, n):
    """(the position of a deepest term of that sum, and for each addition on its
    way up, in order, a position in the other operand)."""
    if n < 8:
        return lo, list(range(lo + 1, lo + n))
    if n <= 128:
        m = n - n % 8  # lane 0's head passes its lane, the 3 tree levels, the leftovers
        return lo, [lo + 8 * r for r in range(1, m // 8)] + [lo + 1, lo + 2, lo + 4] + list(
            range(lo + m, lo + n))
    half = n // 2 - (n // 2) % 8
    (head, left), (other, right) = _deepest(lo, half), _deepest(lo + half, n - half)
    if len(left) >= len(right):
        return head, left + [lo + half]
    return other, right + [lo]


@lru_cache(maxsize=None)
def _depth(n, lanes=8):
    """Additions on the deepest way through np.sum of n float terms (8 lanes,
    blocks of 128), or through one part of n complex ones (4 lanes, 64)."""
    if n < lanes:
        return max(n - 1, 0)
    if n <= 16 * lanes:  # a lane head, the lane tree, the leftovers
        return n // lanes - 1 + lanes.bit_length() - 1 + n % lanes
    half = n // 2 - (n // 2) % 8 if lanes == 8 else (n - n % 8) // 2
    return 1 + max(_depth(half, lanes), _depth(n - half, lanes))


_SIZES = sorted(set(range(1, 9)) | {127, 128, 129, 135} | {
    2**k + d for k in range(2, 21) for d in (-1, 1)})


@pytest.mark.parametrize("n", _SIZES)
def test_c_of_n_bounds_the_deepest_pairwise_sum_and_is_reached(n):
    # one term of 1 at the deepest place, and in every other operand on its
    # way up one just over half an ulp: each addition rounds up by almost
    # eps/2, so the sum is off by almost depth eps/2, which c(n) must cover
    head, others = _deepest(0, n)
    a = np.zeros(n)
    a[head], a[others] = 1.0, _DELTA
    mass = math.fsum(a)
    gap = _gap(float(np.sum(a)), a)
    assert gap <= _rounding(mass, n)
    assert gap >= 0.5 * len(others) * _EPS * (1.0 - 2.0**-9)
    if n < 8 or n == 127:  # where the bound is reached
        assert len(others) == (n - 1 if n < 8 else 24)
        assert _rounding(mass, n) <= 0.5 * (len(others) + 0.25) * _EPS * mass


@pytest.mark.parametrize("n", [n for n in _SIZES if n <= 4097])
def test_the_port_is_the_sum_numpy_runs(n):
    # bit for bit on random data, through a contiguous array, a strided
    # .real view and an axis=1 reduction, as the certified sums use them
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * np.exp(rng.uniform(-30.0, 30.0, n))
    z = x + 1j * rng.standard_normal(n)
    rows = np.stack([x, x[::-1]])
    assert float(np.sum(x)) == _pairwise(x.tolist(), 0, n)
    assert float(np.sum(z.real)) == _pairwise(x.tolist(), 0, n)
    assert rows.sum(axis=1).tolist() == [_pairwise(r.tolist(), 0, n) for r in rows]


def test_c_of_n_covers_every_length():
    # log2 n + 17.2 additions at most, for the float tree and for each part
    # of a complex sum, whose deepest leaf (63 terms, 19 additions) falls
    # at lengths where the float tree's is shallower
    for n in range(1, 5000):
        assert max(_depth(n), _depth(n, 4)) <= math.log2(n) + 17.2
    for n in _SIZES:
        assert max(_depth(n), _depth(n, 4)) <= math.log2(n) + 17.2
    for levels in range(1, 14):  # where a leaf of 127 first sits that many levels down
        n = 112 * 2**levels + 15
        assert _depth(n) == 24 + levels <= math.log2(n) + 17.2
        assert _depth(n - 1) < 24 + levels


def _adversarial(n=36_000):
    """A pair of 1.0 every 4096 terms, the rest just over half an ulp of them."""
    a = np.full(n, 0.5 * _EPS * (1.0 + 2.0**-10))
    a[::4096] = a[1::4096] = 1.0
    return a


def _gap(got, terms):
    """|got - sum(terms)|, exact but for one rounding."""
    return abs(math.fsum([got, *(-np.asarray(terms))]))


def _covers(got, terms, allowance):
    assert _gap(got, terms) <= allowance


def test_bromwich_sums_block_by_block(monkeypatch):
    # _rule_sums on 1091 panels (36,003 nodes) in blocks of 124 rows (4092
    # nodes): complex np.sum per block and a Python accumulation of the
    # blocks, the real part charged; the Gauss terms likewise
    monkeypatch.setattr(xform, "_EVAL_BLOCK", 124)
    xform._kernels.clear()
    centres, offsets, wk, wg = xform._grid(0.0, 1.0, 1091)
    z = np.empty((centres.size, offsets.size), dtype=complex)
    z.real, z.imag = 0.0, centres[:, None] + offsets
    kernel = (np.exp(z) * wk).ravel()  # the Kronrod kernel w e^{zT} at T = 1
    target = _adversarial(kernel.size)
    done = [0]

    def F(zb):  # the Kronrod terms F(z) w e^{zT} come within a few ulps of the input
        lo, done[0] = done[0], done[0] + zb.size
        return target[lo:done[0]] / kernel[lo:done[0]]

    (total, mass), (rough, rough_mass) = xform._rule_sums(F, 0.0, 1.0, 0.0, 1.0, 1091)
    terms = (target / kernel) * kernel
    blocks = -(-centres.size // 124)
    _covers(total.real, terms.real, _rounding(mass, 124 * offsets.size, 0.0, blocks))
    gauss = np.flatnonzero(wg)
    rough_terms = terms.reshape(z.shape)[:, gauss] * (wg[gauss] / wk[gauss])
    _covers(rough.real, rough_terms.ravel().real,
            _rounding(rough_mass, 124 * gauss.size, 0.0, blocks))


def test_gauss_rule_sums_one_np_sum():
    # heat_kernel and heat_kernel_origin: one np.sum of the n rule terms
    a = _adversarial()
    _covers(float(np.sum(a)), a, _rounding(math.fsum(a), a.size))


def test_cylinder_sums_rows_of_rules():
    # the s-rule along axis 2, the outer rule along axis 1 and np.sum of the
    # rows: each level's allowance is charged in its own share
    a = _adversarial().reshape(10, 36, 100)
    kern = np.sum(a, axis=2)
    rows = np.sum(kern, axis=1)
    mass = math.fsum(a.ravel())
    allowance = _rounding(mass, 100) + _rounding(mass, 36) + _rounding(mass, 10)
    _covers(float(np.sum(rows)), a.ravel(), allowance)


def test_taylor_build_sums_pairwise_along_rows():
    # _coefficients at y = 0: every Poisson factor is 1, so B_0 is the sum of
    # the t_i = e^{log c_i}, taken along one row of the buffer it multiplies
    log_c = np.log(_adversarial())
    t = np.exp(log_c)
    coeffs = trace._coefficients(lambda: [(log_c, np.zeros_like(log_c))], 0j, 1.0, 1e-6, 4)
    assert len(coeffs) == 1 and coeffs[0].imag == 0.0
    _covers(coeffs[0].real, t, _rounding(math.fsum(t), t.size))


def test_direct_trace_charges_its_blas_products():
    # _term_sum: coef @ e^{-sq/z} by chunks of _N_CHUNK terms, added up
    # node by node; _direct_rounding charges any order of each product
    a = _adversarial()
    total = np.zeros(3, dtype=complex)
    for lo in range(0, a.size, trace._N_CHUNK):
        chunk = a[lo:lo + trace._N_CHUNK]
        total += chunk @ np.ones((chunk.size, 3), dtype=complex)
    chunks = -(-a.size // trace._N_CHUNK)
    allowance = math.sqrt(2.0) * _rounding(math.fsum(a), 1, 0.0, trace._N_CHUNK + chunks - 1)
    for got in total:
        _covers(got.real, a, allowance)


@pytest.mark.parametrize("charge", [True, False])
def test_series_sum_charges_its_blocks(monkeypatch, charge):
    # 36,000 terms of one length in the collar's blocks of 4096; with charge
    # False (R's sum) each block is measured against math.fsum
    monkeypatch.setattr(specfun, "_BLOCK", 4096)
    a = _adversarial()

    def terms(ell, n):
        t = a[n.astype(int) - 1]
        return t, lambda: (np.zeros_like(t), t, np.zeros_like(t))

    total, bound = counting._direct((1.0,), terms, lambda x: 0.0 if x <= a.size else math.inf,
                                    lambda s: 1.0, 10**6, charge)
    _covers(total, a, bound)


def test_expansion_route_charges_its_sum_in_turn():
    # S(ell) = pole + R - sum_k b_k ell^2k, added one term at a time: the
    # build's rate per unit size covers J + 2 adversarial terms
    rate = counting._series(2.0, 0.75, DEFAULT_POLICY).table[-1]
    a = [1.0] + [_DELTA] * (counting._LAURENT_TERMS + 1)
    s = a[0] + a[1]
    for t in a[2:]:
        s -= -t
    _covers(s, a, rate * math.fsum(a))
