"""Geodesic, degenerating and spectral heat traces."""

import cmath
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinchtrace import specfun, trace, xform
from pinchtrace import (
    DomainError,
    LengthSpectrum,
    PinchingSet,
    SpectralData,
    TruncationBudgetError,
    TruncationPolicy,
    degenerating_trace,
    g_bessel,
    hyperbolic_trace,
    spectral_trace,
)
from pinchtrace.policy import DEFAULT_POLICY


def _direct_sum(entries, z, nmax):
    """Brute-force the defining double sum; nmax terms per length."""
    acc = 0.0j
    for ell, m in entries:
        for n in range(1, nmax + 1):
            acc += m * ell / math.sinh(0.5 * n * ell) * cmath.exp(-(n * ell) ** 2 / (4.0 * z))
    return cmath.exp(-z / 4.0) / cmath.sqrt(16.0 * math.pi * z) * acc


def test_single_geodesic_against_direct_sum():
    ls = LengthSpectrum.of([(1.0, 1)])
    want = _direct_sum([(1.0, 1)], 1.0, 50).real
    # policy certifies the tail at rel_tol = 1e-9; hold it to that
    assert hyperbolic_trace(ls, 1.0) == pytest.approx(want, rel=1e-8)


def test_multiplicity_is_linear():
    one = hyperbolic_trace(LengthSpectrum.of([(1.0, 1)]), 0.7)
    two = hyperbolic_trace(LengthSpectrum.of([(1.0, 2)]), 0.7)
    assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_complex_time_magnitude_bound():
    # |e^{-x^2/4z}| <= e^{-x^2 Re(1/z)} term by term, so the modulus on a
    # vertical ray never exceeds the real-axis value at the same Re(1/z)...
    # the cheap sanity check: |HTr(1+5i)| <= HTr(1).
    ls = LengthSpectrum.of([(1.0, 1), (1.7, 2)])
    assert abs(hyperbolic_trace(ls, 1.0 + 5.0j)) <= hyperbolic_trace(ls, 1.0)


def test_complex_time_value():
    ls = LengthSpectrum.of([(1.2, 1)])
    z = 0.8 + 0.3j
    want = _direct_sum([(1.2, 1)], z, 80)
    got = hyperbolic_trace(ls, z)
    assert got == pytest.approx(want, rel=1e-8)


def test_vectorized_evaluation_matches_scalars():
    ls = LengthSpectrum.of([(0.9, 1), (1.4, 3)])
    zs = np.array([0.5 + 0.0j, 1.0 + 1.0j, 2.0 - 0.5j])
    vec = hyperbolic_trace(ls, zs)
    assert vec.shape == zs.shape
    for zi, vi in zip(zs, vec):
        assert vi == pytest.approx(hyperbolic_trace(ls, complex(zi)), rel=1e-10)


def test_trace_decreases_in_length():
    vals = [hyperbolic_trace(LengthSpectrum.of([(ell, 1)]), 1.0)
            for ell in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_longer_spectrum_dominates_subset():
    small = hyperbolic_trace(LengthSpectrum.of([(1.0, 1)]), 1.0)
    big = hyperbolic_trace(LengthSpectrum.of([(1.0, 1), (2.0, 1)]), 1.0)
    assert big > small


def test_pinching_subset_bounded_by_full_trace():
    # the degenerating trace keeps only the pinching lengths, so at real
    # time it can never exceed the full geodesic trace
    ls = LengthSpectrum.of([(0.2, 1), (0.5, 2), (1.3, 1)])
    ps = PinchingSet.of([0.2, 0.5])
    for t in (0.3, 1.0, 4.0):
        assert degenerating_trace(ps, t) <= hyperbolic_trace(ls, t)


def test_repeat_evaluation_is_bit_stable():
    ls = LengthSpectrum.of([(0.3, 2), (0.9, 1), (2.2, 4)])
    a = hyperbolic_trace(ls, 0.8 + 0.4j)
    b = hyperbolic_trace(ls, 0.8 + 0.4j)
    assert a == b


def test_degenerating_is_unit_multiplicity_trace():
    ps = PinchingSet.of([0.1, 0.2])
    ls = LengthSpectrum.of([(0.1, 1), (0.2, 1)])
    assert degenerating_trace(ps, 0.9) == pytest.approx(hyperbolic_trace(ls, 0.9), rel=1e-15)


def test_degenerating_additivity():
    t = 1.3
    both = degenerating_trace(PinchingSet.of([0.1, 0.2]), t)
    parts = (degenerating_trace(PinchingSet.of([0.1]), t)
             + degenerating_trace(PinchingSet.of([0.2]), t))
    assert both == pytest.approx(parts, rel=1e-13)


def test_short_length_against_direct_sum():
    # ell = 0.01 needs thousands of winding terms; the implementation must
    # agree with an overkill direct sum.
    t = 1.0
    n = np.arange(1, 20001, dtype=float)
    x = 0.01 * n
    want = (math.exp(-t / 4.0) / math.sqrt(16.0 * math.pi * t)
            * float(np.sum(0.01 / np.sinh(0.5 * x) * np.exp(-x * x / (4.0 * t)))))
    got = degenerating_trace(PinchingSet.of([0.01]), t)
    assert got == pytest.approx(want, rel=1e-8)


def test_long_length_underflows_to_zero():
    # sinh(ell/2) overflows a double here; the trace itself is 0 in doubles
    long = LengthSpectrum.of([(1500.0, 1)])
    assert hyperbolic_trace(long, 1.0) == 0.0
    assert hyperbolic_trace(long, complex(1.0, 2.0)) == 0.0
    mixed = LengthSpectrum.of([(1.0, 1), (1500.0, 1)])
    assert hyperbolic_trace(mixed, 1.0) == hyperbolic_trace(LengthSpectrum.of([(1.0, 1)]), 1.0)


@pytest.mark.parametrize("ell, z", [(1e300, 1e200), (1e200, 1.0 + 1e200j)])
def test_huge_length_at_huge_node_is_zero(ell, z):
    # |z|^2 overflows, so c_min = Re z/|z|^2 is 0: the envelope keeps the
    # sinh decay alone rather than taking inf * 0 for the Gaussian's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hyperbolic_trace(LengthSpectrum.of([(ell, 1)]), z) == 0.0


@pytest.mark.parametrize("count", [1, 500])
def test_one_tail_cut_cuts_every_length(count, monkeypatch):
    # a trace call searches one shared n ell, not a cut per length
    cut_calls, cut = [], specfun._Collar.cut
    monkeypatch.setattr(specfun._Collar, "cut", lambda *args: cut_calls.append(args) or cut(*args))
    ells = np.random.default_rng(count).uniform(0.5, 8.0, count)
    hyperbolic_trace(LengthSpectrum.of([(ell, 1) for ell in ells]), 1.0)
    assert len(cut_calls) == 1


def _own_cut(ell, mult, c_min, target):
    """A length's cut when each length was cut alone, and its tail bound:
    the smallest N >= 1 with env(N+1) <= log(target (1 - e^{-ell/2})), where
    env(n) = log(m ell) - log sinh(n ell/2) - (n ell)^2 c_min/4."""
    def env(n):
        return (math.log(mult * ell) - specfun.log_sinh(0.5 * n * ell)
                - n * n * ell * ell * c_min / 4.0)

    limit = math.log(target * -math.expm1(-0.5 * ell))
    lo, hi = 0, 1  # env(hi + 1) fits, and lo = 0 or env(lo + 1) does not
    while env(hi + 1) > limit:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if env(mid + 1) <= limit else (mid, hi)
    return hi, math.exp(env(hi + 1)) / -math.expm1(-0.5 * ell)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    ell=st.floats(1e-3, 50.0),
    mult=st.integers(1, 3),
    z=st.tuples(st.floats(0.02, 50.0), st.one_of(st.just(0.0), st.floats(-100.0, 100.0))),
    log10_share=st.floats(-12.0, 0.0),
)
def test_one_length_is_cut_as_on_its_own(ell, mult, z, log10_share):
    zs = np.array([complex(*z)])
    collar, target, cap = trace._plan(((ell, mult),), zs, DEFAULT_POLICY)
    c_min = float(np.min(zs.real / np.abs(zs) ** 2))
    target *= 10.0**log10_share
    cuts, tail = collar.cut(target, cap)
    own_cut, own_tail = _own_cut(ell, mult, c_min, target)
    assert cuts.tolist() == [own_cut] and tail == pytest.approx(own_tail, rel=1e-13)


def _trace_oracle(entries, z):
    """The geodesic trace at 30 digits, each length summed until its terms'
    bound falls below 1e-40 of the n = 1 terms, and those terms' sum."""
    import mpmath

    with mpmath.workdps(30):
        z = mpmath.mpmathify(z)
        decay = mpmath.re(1 / z) / 4  # |e^{-y/4z}| = e^{-y decay}
        first = mpmath.fsum(m * ell / mpmath.sinh(ell / 2) * mpmath.exp(-ell**2 * decay)
                            for ell, m in entries)
        total = mpmath.mpf(0)
        for ell, m in entries:
            n = 1
            while True:
                x = n * mpmath.mpf(ell)
                c = m * ell / mpmath.sinh(x / 2)
                if c * mpmath.exp(-x**2 * decay) < 1e-40 * first:
                    break
                total += c * mpmath.exp(-x**2 / (4 * z))
                n += 1
        pref = mpmath.exp(-z / 4) / mpmath.sqrt(16 * mpmath.pi * z)
        return complex(pref * total), float(first)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    entries=st.lists(st.tuples(st.floats(0.05, 20.0), st.integers(1, 3)), min_size=1,
                     max_size=40),
    long=st.one_of(st.none(), st.floats(1500.0, 1e4)),
    z=st.tuples(st.floats(0.05, 20.0), st.one_of(st.just(0.0), st.floats(-30.0, 30.0))),
)
@example(entries=[(0.05, 3), (0.9, 1), (19.0, 2)], long=1500.0, z=(1.0, 0.0))
def test_many_lengths_match_a_30_digit_sum(entries, long, z):
    # within the call's own target, |pref| policy.tol of the n = 1 shell
    if long is not None:
        entries = entries + [(long, 1)]
    ls = LengthSpectrum.of(entries)
    z = complex(*z) if z[1] else z[0]
    want, first = _trace_oracle(ls.entries, z)
    got = hyperbolic_trace(ls, z)
    pref = abs(cmath.exp(-z / 4.0) / cmath.sqrt(16.0 * math.pi * z))
    # the prefactor's product adds a few ulps of the value
    assert abs(got - want) <= pref * DEFAULT_POLICY.tol(first) + 4.0 * specfun._EPS * abs(want)


def test_spectral_trace_examples():
    sd = SpectralData.of([(0.0, 1), (0.25, 2)])
    assert spectral_trace(sd, 2.0) == pytest.approx(1.0 + 2.0 * math.exp(-0.5), rel=1e-15)
    sd2 = SpectralData.of([(0.1, 1)])
    got = spectral_trace(sd2, 1.0 + 1.0j)
    want = math.exp(-0.1) * complex(math.cos(0.1), -math.sin(0.1))
    assert got == pytest.approx(want, rel=1e-15)


def test_spectral_terms_past_the_doubles():
    sd = SpectralData.of([(0.0, 1), (1e300, 1)])
    # lambda Im z overflows, but e^{-lambda Re z} underflows: the term adds 0
    assert spectral_trace(sd, 1.0 + 1e300j) == 1.0
    got = spectral_trace(sd, np.array([1.0 + 1e300j, 1e-300 + 1e8j]))
    assert got[0] == 1.0 and got[1] == 1.0 + cmath.exp(complex(-1e300 * 1e-300, -1e300 * 1e8))
    with pytest.raises(DomainError, match="passes the largest double"):  # e^{-1}: no phase
        spectral_trace(sd, 1e-300 + 1e10j)


def test_spectral_trace_real_for_real_time():
    sd = SpectralData.of([(0.0, 1), (0.3, 2)])
    assert isinstance(spectral_trace(sd, 1.5), float)


def _grid_nodes(a, s_lo, s_hi, panels):
    """A Bromwich extension's nodes as bromwich hands them to F: (panels, 33)."""
    centres, offsets, _, _ = xform._grid(s_lo, s_hi, panels)
    zs = np.empty((panels, offsets.size), dtype=complex)
    zs.real, zs.imag = a, centres[:, None] + offsets
    return zs


def _per_node(sd, zs):
    """spectral_trace's per-node route: the same nodes as one flat array."""
    return spectral_trace(sd, zs.ravel()).reshape(zs.shape)


_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(w=st.floats(0.0, 20.0), T=st.floats(0.05, 20.0), doublings=st.integers(-1, 12),
       panels=st.integers(2, 60),
       eigs=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 60.0)),
                               st.integers(1, 3)), min_size=1, max_size=7))
def test_grid_sum_matches_the_per_node_route(w, T, doublings, panels, eigs):
    # on an extension's exact grid (the band [0, 16/T], or [S, 2S] with S =
    # 2^k 16/T, on the saddle line) the trace is summed by rows and columns,
    # within (4 + lambda |z|) eps of each term's size of the per-node route,
    # plus 4 ulps of the subnormals for a term whose modulus is one; many
    # moduli e^{-lambda a} underflow, and those terms add 0
    a, s_hi = (w + 1.0) / T, 16.0 / T * 2.0 ** max(doublings, 0)
    zs = _grid_nodes(a, 0.0 if doublings < 0 else 0.5 * s_hi, s_hi, panels)
    sd = SpectralData.of(eigs)
    assert trace._grid_sum(sd.eigenvalues, zs) is not None
    tol = np.zeros(zs.shape)
    for lam, m in sd.eigenvalues:
        size = m * math.exp(-lam * a)
        tol += (4.0 + lam * np.abs(zs)) * _EPS * size + (4.0 * m * 2.0**-1074 if size < _TINY else 0.0)
    assert np.all(np.abs(spectral_trace(sd, zs) - _per_node(sd, zs)) <= tol)


def test_grid_sum_adds_lambda_zero_exactly_and_underflowed_terms_not_at_all():
    zs = _grid_nodes(1.0, 64.0, 128.0, 7)
    assert np.all(spectral_trace(SpectralData.of([(0.0, 3)]), zs) == 3.0)
    assert np.all(spectral_trace(SpectralData.of([(0.0, 3), (800.0, 2)]), zs) == 3.0)


def test_grid_sum_gives_way_where_a_phase_may_overflow():
    # lambda max |Im z| overflows: the per-node route zeroes a term whose
    # modulus underflows and raises for one whose modulus does not
    sd = SpectralData.of([(0.0, 1), (1e300, 1)])
    for a, s_lo in ((1.0, 1e10), (1e-300, 1e8)):
        zs = _grid_nodes(a, s_lo, 2.0 * s_lo, 4)
        assert trace._grid_sum(sd.eigenvalues, zs) is None
    assert np.all(spectral_trace(sd, _grid_nodes(1.0, 1e10, 2e10, 4)) == 1.0)
    with pytest.raises(DomainError, match="passes the largest double"):
        spectral_trace(sd, _grid_nodes(1e-300, 1e8, 2e8, 4))


def test_off_grid_arrays_take_the_per_node_route_bit_for_bit():
    # rows that are not exact shifts (one node an ulp off), a node off the
    # line, and a single row: each is summed node by node
    sd = SpectralData.of([(0.0, 1), (0.13, 1), (0.37, 2), (1.77, 2)])
    zs = _grid_nodes(2.0, 16.0, 32.0, 5)
    shifted, off_line = zs.copy(), zs.copy()
    shifted[3, 7] = complex(zs.real[3, 7], np.nextafter(zs.imag[3, 7], np.inf))
    off_line[2, 5] = complex(np.nextafter(2.0, 3.0), zs.imag[2, 5])
    for nodes in (shifted, off_line, zs[:1]):
        assert trace._grid_sum(sd.eigenvalues, nodes) is None
        assert np.array_equal(spectral_trace(sd, nodes), _per_node(sd, nodes))


def test_geodesic_trace_sums_a_grid_as_its_flat_nodes():
    ls = LengthSpectrum.of([(0.1, 1), (0.7, 2)])
    zs = _grid_nodes(3.0, 16.0, 32.0, 6)
    got = hyperbolic_trace(ls, zs)
    assert got.shape == zs.shape
    assert np.array_equal(got, hyperbolic_trace(ls, zs.ravel()).reshape(zs.shape))


def test_budget_exhaustion_is_reported():
    tight = TruncationPolicy(rel_tol=1e-9, abs_tol=1e-14, max_terms=1,
                             max_quad_evals=2_000_000)
    with pytest.raises(TruncationBudgetError):
        hyperbolic_trace(LengthSpectrum.of([(0.1, 1)]), 1.0, tight)


def test_domain_errors():
    ls = LengthSpectrum.of([(1.0, 1)])
    with pytest.raises(DomainError):
        hyperbolic_trace(ls, 0.0)
    with pytest.raises(DomainError):
        hyperbolic_trace(ls, -1.0 + 2.0j)
    with pytest.raises(DomainError):
        spectral_trace(SpectralData.of([(0.0, 1)]), 0.0)


def test_spectrum_validation():
    with pytest.raises(DomainError):
        LengthSpectrum.of([])
    with pytest.raises(DomainError):
        LengthSpectrum.of([(0.0, 1)])
    with pytest.raises(DomainError):
        LengthSpectrum.of([(1.0, 0)])
    with pytest.raises(DomainError):
        PinchingSet.of([])
    with pytest.raises(DomainError):
        SpectralData.of([(-0.1, 1)])
    with pytest.raises(DomainError):
        SpectralData.of([(0.0, 1)], volume=0.0)


def test_spectrum_sorted_and_logsum():
    ls = LengthSpectrum.of([(2.0, 1), (1.0, 3)])
    assert ls.entries == ((1.0, 3), (2.0, 1))
    ps = PinchingSet.of([0.5, 0.1])
    assert ps.sup == 0.5
    assert ps.log_sum == pytest.approx(math.log(2.0) + math.log(10.0), rel=1e-15)


def _routes(entries, zs, policy=DEFAULT_POLICY, max_cost=1e8):
    """(Taylor route or None, direct route, per-node target) on one node block."""
    collar, target, cap = trace._plan(entries, zs, policy)
    direct = sum(trace._term_sum(zs, n * ell, mell)
                 for n, ell, mell in collar.blocks(0, collar.cut(target, cap)[0]))
    return trace._taylor_sum(collar, zs, target, cap, max_cost), direct, target


def _band(a, doublings):
    """64 nodes on Re z = a: over [0, 16/a] for doublings -1, else over
    [S, 2S] with S = 2^doublings 16/a."""
    lo = 0.0 if doublings < 0 else 2.0**doublings * 16.0 / a
    hi = 16.0 / a if doublings < 0 else 2.0 * lo
    return a + 1j * np.linspace(lo, hi, 64)


_BLOCKS = dict(
    a=st.floats(0.05, 20.0),
    doublings=st.integers(-1, 8),  # -1: the band [0, 16/a]; k: [S, 2S] with S = 2^k 16/a
    entries=st.lists(st.tuples(st.floats(1e-3, 3.0), st.integers(1, 4)), min_size=1,
                     max_size=4, unique_by=lambda e: e[0]),
)


@settings(max_examples=30)
@given(**_BLOCKS)
def test_taylor_route_matches_direct_route_on_contour_blocks(a, doublings, entries):
    zs = _band(a, doublings)
    entries = LengthSpectrum.of(entries).entries
    taylor, direct, target = _routes(entries, zs)
    if taylor is None:  # Taylor would cost more, or its n-cut passes the cap: bit for bit
        assert np.array_equal(trace._geodesic_sum(entries, zs, DEFAULT_POLICY), direct)
    else:  # each route, or each half of a split block, is within target of the series
        if taylor is trace._SPLIT:
            taylor = trace._geodesic_sum(entries, zs, DEFAULT_POLICY)
        assert float(np.max(np.abs(taylor - direct))) <= 2.0 * target


@settings(max_examples=60, derandomize=True, deadline=None)
@given(**_BLOCKS)
@example(a=1.0, doublings=-1, entries=[(0.01, 1)])
def test_skipped_box_centre_never_needs_fewer_orders(a, doublings, entries):
    zs = _band(a, doublings)
    entries = LengthSpectrum.of(entries).entries
    collar, target, cap = trace._plan(entries, zs, DEFAULT_POLICY)
    try:
        cuts, _ = collar.cut(0.5 * target, cap)
    except TruncationBudgetError:
        return
    (n, ell, mell), = collar.blocks(0, cuts)
    x = n * ell
    log_c, y = np.log(mell) - specfun.log_sinh(0.5 * x), x**2
    v = 0.25 / zs
    disc, rho_disc = trace._centre(v, a)
    if disc != 0.125 / a:  # the box centre is taken
        return
    box = complex(0.5 * (v.real.min() + v.real.max()), 0.5 * (v.imag.min() + v.imag.max()))
    at_box = trace._coefficients(lambda: [(log_c, y)], box, float(np.max(np.abs(v - box))),
                                 0.5 * target, 4000)
    at_disc = trace._coefficients(lambda: [(log_c, y)], disc, rho_disc, 0.5 * target, 4000)
    assert not at_box or (at_disc and len(at_disc) <= len(at_box))


def _off_line(zs):
    """The nodes with every other real part moved by 2^-40 of it: off one line."""
    return zs + zs.real * 2.0**-40 * (np.arange(zs.size) % 2)


@pytest.mark.parametrize("ell", [0.3, 0.01])
def test_first_band_builds_one_expansion(ell, monkeypatch):
    # on [0, 16/a] the disc centre 1/8a is the one centre, and it certifies: on
    # the line Re z = a it is the line's expansion, off it the call's own
    calls = []
    build = trace._coefficients
    monkeypatch.setattr(trace, "_coefficients", lambda *args: calls.append(args) or build(*args))
    centres, offsets, _, _ = xform._grid(0.0, 16.0, 11)  # bromwich's first extension at T = 1
    s = (centres[:, None] + offsets).ravel()
    for zs in (1.0 + 1j * s, _off_line(1.0 + 1j * s)):
        trace._line.cache_clear()
        calls.clear()
        total = trace._geodesic_sum(((ell, 1),), zs, DEFAULT_POLICY)
        assert len(calls) == 1 and calls[0][1] == 0.125
        taylor, direct, target = _routes(((ell, 1),), zs)
        if np.all(zs.real == 1.0):
            assert float(np.max(np.abs(total - direct))) <= 2.0 * target
        else:
            assert np.array_equal(total, taylor)


@settings(max_examples=30, deadline=None)
@given(**_BLOCKS)
# the first band [0, 16/T] of an inversion on Re z = a = (w + 1)/T is [0, 16/a]
# at T = a; at w = 5, a = sqrt 6, the band is narrow next to a
@example(a=math.sqrt(6.0), doublings=-1, entries=[(0.01, 1)])
def test_each_taylor_sum_builds_at_most_one_expansion(a, doublings, entries):
    _, builds = _builds(LengthSpectrum.of(entries).entries, _band(a, doublings))
    assert max(builds, default=0) <= 1


def _builds(entries, zs):
    """(the call's value, the expansions each _taylor_sum call builds, a
    split block's halves' calls too); a line's build is no call's."""
    builds, expand, build, inside = [], trace._taylor_sum, trace._coefficients, []

    def counted_expand(*args):
        builds.append(0)
        inside.append(True)
        try:
            return expand(*args)
        finally:
            inside.pop()

    def counted_build(*args):
        if inside:
            builds[-1] += 1
        return build(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace, "_taylor_sum", counted_expand)
        patch.setattr(trace, "_coefficients", counted_build)
        return trace._geodesic_sum(entries, zs, DEFAULT_POLICY), builds


@settings(max_examples=30, deadline=None)
@given(**_BLOCKS)
@example(a=1.0, doublings=-1, entries=[(0.003, 1)])
@example(a=3.0, doublings=2, entries=[(0.002, 2), (0.05, 1)])
def test_streamed_taylor_build_matches_direct_route(a, doublings, entries):
    # with blocks of 4096 terms the expansion is built over several blocks,
    # each taking orders for its share: within target of the direct route,
    # one build a call, and no Taylor call falls back on its term count
    zs = _band(a, doublings)
    entries = LengthSpectrum.of(entries).entries
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(specfun, "_BLOCK", 4096)
        taylor, direct, target = _routes(entries, zs)
        total, builds = _builds(entries, zs)
    assert taylor is not None and max(builds, default=0) <= 1
    assert float(np.max(np.abs(total - direct))) <= 2.0 * target


@pytest.mark.parametrize("ell", [0.003, 0.001])
def test_streamed_build_serves_contour_extensions(ell, monkeypatch):
    # a band whose Taylor cut spans four blocks of 4096 terms or more certifies as one
    # expansion, within target of the direct route
    monkeypatch.setattr(specfun, "_BLOCK", 4096)
    entries = ((ell, 1),)
    zs = 1.0 + 1j * np.linspace(16.0, 32.0, 2000)
    collar, target, cap = trace._plan(entries, zs, DEFAULT_POLICY)
    assert collar.cut(0.5 * target, cap)[0].sum() > 3 * 4096
    taylor, direct, target = _routes(entries, zs)
    assert isinstance(taylor, np.ndarray)
    assert float(np.max(np.abs(taylor - direct))) <= 2.0 * target


def test_inversion_past_one_block_stays_on_the_taylor_route(monkeypatch):
    # at ell = 5e-5 the Taylor cut passes one block of terms: every contour
    # block is expanded (by the line's expansion or its own) or halved, none
    # summed directly for its term count
    sizes = _direct_sizes(monkeypatch)
    ps = PinchingSet.of([5e-5])
    got = xform.weighted_inverse(lambda z: degenerating_trace(ps, z), 2.0, 1.0)
    assert max(sizes, default=1) == 1
    assert got == pytest.approx(g_bessel(ps, 2.0, 1.0), rel=1e-10)


def test_taylor_route_gives_way_where_its_cut_passes_the_cap(monkeypatch):
    # with max_terms at the full target's cut, the Taylor route's half-target
    # cut passes it: the block is summed directly, within tolerance of each
    # node summed on its own
    ps, zs = PinchingSet.of([0.05, 0.3]), np.array([0.5, 1.0, 2.0, 4.0])
    collar, target, cap = trace._plan(ps.as_length_spectrum().entries, zs + 0j, DEFAULT_POLICY)
    policy = TruncationPolicy(max_terms=int(collar.cut(target, cap)[0].sum()))
    answers, expand = [], trace._taylor_sum
    monkeypatch.setattr(trace, "_taylor_sum",
                        lambda *args: answers.append(expand(*args)) or answers[-1])
    got = degenerating_trace(ps, zs, policy)
    assert answers and not any(isinstance(answer, np.ndarray) for answer in answers)
    for z, value in zip(zs, got):
        one = degenerating_trace(ps, float(z), policy)
        assert abs(value - one) <= policy.tol(value) + policy.tol(one)


# float.hex(weighted_inverse) by the call route (each trace call's own
# expansion, the line route off), recorded before the Taylor build streamed
# over the collar's blocks: each cut fits one block, so the value is kept bit
# for bit; (ell, w, T), and the three lengths (0.3, 1), (0.6, 2), (1.1, 1).
# Re-recorded, every one within 7.1e-16 relative and at its old gap to
# g_bessel, when bromwich's nodes became an exact grid (each within an ulp
# of the height of its old place) and its terms the trace times a kernel
# w e^{zT} g (z/a)^{-(w+1)}, multiplied in that order
_INVERSION_PINS = [
    (0.3, 1.0, 1.0, '0x1.652a48b68851dp-2'),
    (0.1, 1.0, 1.0, '0x1.000e8d72cc10dp-1'),
    (0.03, 1.0, 1.0, '0x1.5503dc6271c99p-1'),
    (0.01, 1.0, 1.0, '0x1.a28b30989e488p-1'),
    (0.0003, 1.0, 1.0, '0x1.4d003a47066e1p+0'),
    (0.0001, 1.0, 1.0, '0x1.73c3f65e00ecfp+0'),
    (0.3, 2.0, 1.0, '0x1.c228a74119359p-3'),
    (0.1, 2.0, 1.0, '0x1.3e0f84d50dca0p-2'),
    (0.03, 2.0, 1.0, '0x1.a4030a8b65357p-2'),
    (0.01, 2.0, 1.0, '0x1.0085eef61eafbp-1'),
    (0.0003, 2.0, 1.0, '0x1.94ff7ea00da8cp-1'),
    (0.0001, 2.0, 1.0, '0x1.c383f9ee683fap-1'),
    (0.01, 2.0, 20.0, '0x1.551c556f46bb6p+10'),
    (0.01, 2.0, 1000.0, '0x1.b7a30893363e9p+23'),
    (0.1, 5.0, 1.0, '0x1.85b666889c7e0p-4'),
    (None, 2.0, 1.0, '0x1.5101ad7f9be17p-1'),
]

# the same inversions by the default route: at T = 1 the line route serves
# every extension, and each value is within 7e-13 relative of its call-route
# pin; at T = 20 and 1000 the line does not certify, and the call-route pin
# stands bit for bit
_LINE_INVERSION_PINS = [
    (0.3, 1.0, 1.0, '0x1.652a48b68741dp-2'),
    (0.1, 1.0, 1.0, '0x1.000e8d72cb7dep-1'),
    (0.03, 1.0, 1.0, '0x1.5503dc627134bp-1'),
    (0.01, 1.0, 1.0, '0x1.a28b30989db5fp-1'),
    (0.0003, 1.0, 1.0, '0x1.4d003a470624ep+0'),
    (0.0001, 1.0, 1.0, '0x1.73c3f65e00a38p+0'),
    (0.3, 2.0, 1.0, '0x1.c228a74119638p-3'),
    (0.1, 2.0, 1.0, '0x1.3e0f84d50dd0dp-2'),
    (0.03, 2.0, 1.0, '0x1.a4030a8b653d5p-2'),
    (0.01, 2.0, 1.0, '0x1.0085eef61eb3ap-1'),
    (0.0003, 2.0, 1.0, '0x1.94ff7ea00dac8p-1'),
    (0.0001, 2.0, 1.0, '0x1.c383f9ee6843bp-1'),
    (0.01, 2.0, 20.0, '0x1.551c556f46bb6p+10'),
    (0.01, 2.0, 1000.0, '0x1.b7a30893363e9p+23'),
    (0.1, 5.0, 1.0, '0x1.85b666889cc27p-4'),
    (None, 2.0, 1.0, '0x1.5101ad7f9bfc4p-1'),
]


def _inverse(ell, w, T):
    ls = LengthSpectrum.of([(0.3, 1), (0.6, 2), (1.1, 1)] if ell is None else [(ell, 1)])
    return float.hex(xform.weighted_inverse(lambda z: hyperbolic_trace(ls, z), w, T))


class _NoLine:
    """A line that never serves: every call takes its own route."""

    def sum(self, zs, target, max_cost):
        return None


@pytest.mark.parametrize("ell, w, T, want", _INVERSION_PINS)
@pytest.mark.filterwarnings("ignore::pinchtrace.UncertifiedTailWarning")
def test_one_block_inversions_are_bit_for_bit_as_recorded(ell, w, T, want, monkeypatch):
    monkeypatch.setattr(trace, "_line", lambda entries, a, policy: _NoLine())
    assert _inverse(ell, w, T) == want


@pytest.mark.parametrize("ell, w, T, want", _LINE_INVERSION_PINS)
@pytest.mark.filterwarnings("ignore::pinchtrace.UncertifiedTailWarning")
def test_line_route_inversions_are_bit_for_bit_as_recorded(ell, w, T, want):
    assert _inverse(ell, w, T) == want


def _direct_sizes(monkeypatch):
    """The node count of every direct sum from here on."""
    sizes = []
    direct = trace._term_sum
    monkeypatch.setattr(trace, "_term_sum",
                        lambda zs, *args: sizes.append(zs.size) or direct(zs, *args))
    return sizes


@pytest.mark.parametrize("a", [0.02, 0.05])
def test_large_t_bands_are_expanded(a, monkeypatch):
    # near the real axis at small a a whole band's centre does not certify;
    # its halves, each planned as its own call, do
    entries = ((0.01, 1),)
    blocks = []

    def F(z):  # an extension's rows, summed as hyperbolic_trace sums them: flat
        z = z.ravel()
        blocks.append(z)
        return 2.0 * trace._geodesic_sum(entries, z, DEFAULT_POLICY) / z**3

    sizes = _direct_sizes(monkeypatch)
    xform.bromwich(F, 1.0 / a, a)
    assert len(blocks) >= 8 and max(sizes, default=1) == 1
    monkeypatch.undo()
    for zs in blocks[:8]:  # the first eight extensions
        _, direct, target = _routes(entries, zs)
        got = trace._geodesic_sum(entries, zs, DEFAULT_POLICY)
        assert float(np.max(np.abs(got - direct))) <= 2.0 * target


@pytest.mark.parametrize("T", [20.0, 50.0])
def test_large_t_inversion_matches_the_series(T, monkeypatch):
    ps = PinchingSet.of([0.01])
    sizes = _direct_sizes(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = xform.weighted_inverse(lambda z: degenerating_trace(ps, z), 2.0, T)
    assert max(sizes, default=1) == 1
    assert got == pytest.approx(g_bessel(ps, 2.0, T),
                                rel=10.0 * xform.DEFAULT_INVERSION_POLICY.rel_tol)


def test_taylor_route_serves_contour_extensions():
    # on one line the line's expansion serves, off it the call's own, bit for bit
    entries = ((0.01, 1),)
    for zs in (1.0 + 1j * np.linspace(16.0, 32.0, 2000),
               _off_line(1.0 + 1j * np.linspace(16.0, 32.0, 2000))):
        taylor, direct, target = _routes(entries, zs)
        assert isinstance(taylor, np.ndarray)
        assert float(np.max(np.abs(taylor - direct))) <= 2.0 * target
        total = trace._geodesic_sum(entries, zs, DEFAULT_POLICY)
        if np.all(zs.real == 1.0):
            assert float(np.max(np.abs(total - direct))) <= 2.0 * target
        else:
            assert np.array_equal(total, taylor)


def _line_route(entries, zs, policy=DEFAULT_POLICY):
    """(the line route's value or None, direct route, per-node target) on
    nodes of one line Re z = a."""
    collar, target, cap = trace._plan(entries, zs, policy)
    cut = collar.cut(target, cap)[0]
    direct = sum(trace._term_sum(zs, n * ell, mell) for n, ell, mell in collar.blocks(0, cut))
    line = trace._line(entries, float(zs.real[0]), policy)
    return line.sum(zs, target, trace._COST_RATIO * int(cut.sum()) * zs.size), direct, target


@settings(max_examples=30, deadline=None)
@given(**_BLOCKS)
@example(a=3.0, doublings=-1, entries=[(0.003, 1)])
@example(a=3.0, doublings=3, entries=[(0.01, 1), (0.3, 2)])
def test_line_route_matches_direct_route_on_contour_blocks(a, doublings, entries):
    # where the line serves a band, the call takes it, within 2 targets of the direct route
    zs = _band(a, doublings)
    entries = LengthSpectrum.of(entries).entries
    line, direct, target = _line_route(entries, zs)
    if line is not None:
        assert float(np.max(np.abs(line - direct))) <= 2.0 * target
        assert np.array_equal(trace._geodesic_sum(entries, zs, DEFAULT_POLICY), line)


@pytest.mark.parametrize("ell, w", [(0.1, 1.0), (0.1, 2.0), (0.01, 2.0), (0.1, 5.0)])
def test_line_route_serves_every_extension_of_an_inversion(ell, w):
    # every extension bromwich takes at T = 1 on the saddle line a = w + 1
    entries, blocks = ((ell, 1),), []

    def F(z):  # an extension's rows, summed as hyperbolic_trace sums them: flat
        z = z.ravel()
        blocks.append(z)
        return trace._geodesic_sum(entries, z, DEFAULT_POLICY) / z**(w + 1.0)

    xform.bromwich(F, 1.0, w + 1.0)
    for zs in blocks:
        line, direct, target = _line_route(entries, zs)
        assert line is not None
        assert float(np.max(np.abs(line - direct))) <= 2.0 * target


def test_cold_and_cached_line_give_the_same_bits():
    entries = ((0.01, 1), (0.3, 2))
    first, later = (3.0 + 1j * np.linspace(lo, 2.0 * lo, 500) for lo in (16.0, 64.0))
    trace._line.cache_clear()
    cold = trace._geodesic_sum(entries, later, DEFAULT_POLICY)
    trace._line.cache_clear()
    trace._geodesic_sum(entries, first, DEFAULT_POLICY)  # builds the line
    cached = trace._geodesic_sum(entries, later, DEFAULT_POLICY)
    assert trace._line.cache_info().hits == 1 and np.array_equal(cold, cached)


def test_a_line_is_the_same_whichever_call_builds_it(monkeypatch):
    # a call that cannot pay for the line's orders tries it once, builds
    # nothing and keeps its own route; a larger call then builds the line
    entries = ((1e-3, 1),)
    small, large = 3.0 + 1j * np.array([0.0, 1.0, 2.0]), 3.0 + 1j * np.linspace(0.0, 16.0 / 3.0, 363)
    trace._line.cache_clear()
    at_once = trace._geodesic_sum(entries, large, DEFAULT_POLICY)
    trace._line.cache_clear()
    tries, build = [], trace._Line._build
    monkeypatch.setattr(trace._Line, "_build", lambda self, k: tries.append(k) or build(self, k))
    got = [trace._geodesic_sum(entries, small, DEFAULT_POLICY) for _ in range(2)]
    assert len(tries) == 1 and trace._line(entries, 3.0, DEFAULT_POLICY).built is None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace._Line, "sum", lambda *args: None)
        own = trace._geodesic_sum(entries, small, DEFAULT_POLICY)
    assert np.array_equal(got[0], own) and np.array_equal(got[1], own)
    assert np.array_equal(trace._geodesic_sum(entries, large, DEFAULT_POLICY), at_once)
    assert len(tries) == 2 and tries[1] == trace._LINE_ORDERS


def test_threads_that_share_a_line_keep_its_build(monkeypatch):
    # a small call's try, held until a large call's build is done (or 1 s),
    # fails: it must not undo that build
    entries = ((1e-3, 1),)
    small, large = 3.0 + 1j * np.array([0.0, 1.0, 2.0]), 3.0 + 1j * np.linspace(0.0, 16.0 / 3.0, 363)
    want = [trace._geodesic_sum(entries, zs, DEFAULT_POLICY) for zs in (small, large)]
    trace._line.cache_clear()
    entered, done, build = threading.Event(), threading.Event(), trace._Line._build

    def held_build(self, k_max):
        if k_max == trace._LINE_ORDERS:
            try:
                return build(self, k_max)
            finally:
                done.set()
        entered.set()
        done.wait(timeout=1.0)
        return build(self, k_max)

    monkeypatch.setattr(trace._Line, "_build", held_build)
    got = [None, None]

    def call(i, zs):
        got[i] = trace._geodesic_sum(entries, zs, DEFAULT_POLICY)

    first = threading.Thread(target=call, args=(0, small))
    first.start()
    assert entered.wait(timeout=30)
    second = threading.Thread(target=call, args=(1, large))
    second.start()
    for t in (first, second):
        t.join(timeout=60)
    assert not first.is_alive() and not second.is_alive()
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    built = trace._line(entries, 3.0, DEFAULT_POLICY).built
    assert built is not None and built[0] > 0


class _ExpSpy:
    """numpy, counting the exponentials of complex arrays."""

    def __init__(self):
        self.complex = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.complex += np.iscomplexobj(x)
        return np.exp(x, *args, **kwargs)


def test_a_line_try_that_fails_past_its_cap_takes_no_complex_weight(monkeypatch):
    # CHANGES.md FOUND 98: three nodes of the line Re z = 1 at ell = 1e-4 try
    # the line at the few orders they can pay for; the terms with x_i past
    # that cap fail it alone, so the try ends before the weights' complex
    # exponentials, and the call keeps its own route
    ps, zs = PinchingSet.of([1e-4]), 1.0 + 1j * np.array([0.0, 1.0, 2.0])
    spy, tries, build = _ExpSpy(), [], trace._Line._build

    def counted(self, k_max):
        before = spy.complex
        built = build(self, k_max)
        tries.append((built, spy.complex - before))
        return built

    trace._line.cache_clear()
    monkeypatch.setattr(trace, "np", spy)
    monkeypatch.setattr(trace._Line, "_build", counted)
    got = degenerating_trace(ps, zs)
    assert tries == [(None, 0)]
    monkeypatch.undo()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace._Line, "sum", lambda *args: None)
        assert np.array_equal(got, degenerating_trace(ps, zs))


def test_a_line_that_fails_at_every_order_is_tried_once(monkeypatch):
    # CHANGES.md FOUND 99: at ell = 0.01, T = 1000 an x_i of the line passes
    # 700, which no cap mends: the first try says so and no call tries again
    # (the parent tried 4 times, 115 builds; the grid's nodes move two of the
    # calls' own splits, so the count is 114, not 112)
    tries, calls = [], []
    build, coefficients = trace._Line._build, trace._coefficients
    monkeypatch.setattr(trace._Line, "_build", lambda self, k: tries.append(k) or build(self, k))
    monkeypatch.setattr(trace, "_coefficients",
                        lambda *args: calls.append(1) or coefficients(*args))
    trace._line.cache_clear()
    ps = PinchingSet.of([0.01])
    xform.weighted_inverse(lambda z: degenerating_trace(ps, z), 2.0, 1000.0)
    assert len(tries) == 1 and trace._line(ps.as_length_spectrum().entries, 3.0 / 1000.0,
                                           DEFAULT_POLICY).tried == trace._LINE_ORDERS
    assert len(calls) == 114


@pytest.mark.parametrize("ell, w", [(0.1, 2.0), (3e-4, 2.0), (0.1, 5.0), (None, 2.0)])
def test_inversion_on_a_certified_line_builds_one_expansion(ell, w, monkeypatch):
    ls = LengthSpectrum.of([(0.3, 1), (0.6, 2), (1.1, 1)] if ell is None else [(ell, 1)])
    calls, build = [], trace._coefficients
    monkeypatch.setattr(trace, "_coefficients", lambda *args: calls.append(args) or build(*args))
    trace._line.cache_clear()
    xform.weighted_inverse(lambda z: hyperbolic_trace(ls, z), w, 1.0)
    assert len(calls) == 1 and calls[0][1] == 0.125 / (w + 1.0)


@settings(max_examples=20, deadline=None)
@given(**_BLOCKS)
def test_nodes_off_one_line_keep_the_call_route(a, doublings, entries):
    zs = _off_line(_band(a, doublings))
    entries = LengthSpectrum.of(entries).entries
    got = trace._geodesic_sum(entries, zs, DEFAULT_POLICY)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace._Line, "sum", lambda *args: None)
        assert np.array_equal(got, trace._geodesic_sum(entries, zs, DEFAULT_POLICY))


@pytest.mark.parametrize("z", [1.3, np.array([0.5 + 0.0j, 1.0 + 1.0j, 2.0 - 0.5j]),
                               np.array([1.0 + 0.0j, 1.0 + 1.0j, 1.0 + 2.0j])])
def test_scalars_and_small_arrays_take_the_direct_route(z):
    entries = LengthSpectrum.of([(0.9, 1), (1.4, 3)]).entries
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    _, direct, _ = _routes(entries, zs)
    assert np.array_equal(trace._geodesic_sum(entries, zs, DEFAULT_POLICY), direct)


@pytest.mark.parametrize("ell", [1500.0, 2000.0, 1e300])
def test_long_length_on_a_contour_gives_zero(ell):
    zs = 1.0 + 1j * np.linspace(0.0, 64.0, 1000)
    assert np.all(hyperbolic_trace(LengthSpectrum.of([(ell, 1)]), zs) == 0.0)


def test_budget_exhaustion_is_reported_on_a_contour():
    tight = TruncationPolicy(max_terms=1)
    zs = 1.0 + 1j * np.linspace(0.0, 64.0, 1000)
    with pytest.raises(TruncationBudgetError):
        hyperbolic_trace(LengthSpectrum.of([(0.1, 1)]), zs, tight)


def test_large_abscissa_overflows_nothing():
    ls = LengthSpectrum.of([(0.01, 1), (0.3, 2)])
    for lo, hi in ((0.0, 320.0), (320.0, 640.0), (20480.0, 40960.0)):
        zs = 20.0 + 1j * np.linspace(lo, hi, 400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hyperbolic_trace(ls, zs)
            taylor, direct, target = _routes(ls.entries, zs)
        assert np.all(np.isfinite(got)) and taylor is not None
        assert float(np.max(np.abs(taylor - direct))) <= 2.0 * target


@settings(max_examples=300)
@given(
    terms=st.lists(st.tuples(st.floats(-700.0, 3.0), st.floats(0.0, 200.0)), min_size=1,
                   max_size=40),
    v0=st.tuples(st.floats(0.0, 3.0), st.one_of(st.just(0.0), st.floats(-3.0, 3.0))),
    rho=st.floats(1e-3, 3.0),
    log10_share=st.floats(-16.0, 0.0),
)
# t_i e^{-x_i} is subnormal here, and unscaled it made the certificate 1% short
@example(terms=[(-520.0, 88.0)], v0=(2.5, 0.0), rho=1.0, log10_share=-2.0)
def test_taylor_certificate_bounds_the_true_truncation(terms, v0, rho, log10_share):
    # the running remainder picks K; whatever its rounding, the exact
    # sum w P(K, y rho) plus the allowance of the coefficients' sums and
    # Horner's steps, 4 _rounding(sum w, N, 1.5 K) at the least (t's own
    # error adds to it), stays within budget. w is |t| as the build forms it
    from scipy.special import gammainc

    log_c, y = (np.array(col) for col in zip(*terms))
    v0 = complex(*v0)
    w = np.abs(np.exp(log_c - y * v0 + y * rho))
    budget = 10.0**log10_share * math.fsum(w)
    if not budget > 0.0:
        return
    coeffs = trace._coefficients(lambda: [(log_c, y)], v0, rho, budget, 400)
    if not coeffs:  # None where no order can certify, [] where none up to 400 does
        return
    k = len(coeffs)
    truncation = math.fsum(w * gammainc(k, y * rho))
    assert truncation + 4.0 * specfun._rounding(math.fsum(w), y.size, 1.5 * k) <= budget
