"""Weighted counting functions and the degeneration Bessel series.

The direct counting function of an eigenvalue list is

    N_w(T) = sum_{lambda <= T} m(lambda) (T - lambda)^w,  0^0 = 1,

so an eigenvalue exactly at T counts. Its degenerating-surface analogue
is the closed Bessel series

    G_w(T) = Gamma(w+1)/(16 pi)^{1/2}
             * sum_{n>=1} sum_k ell_k/sinh(n ell_k/2)
               * (sqrt(a)/(n ell_k/2))^{w+1/2} J_{w+1/2}(n ell_k sqrt(a))

with a = T - 1/4, identically zero for T <= 1/4. As the lengths pinch,
G_w(T) = c_w(T) sum_k log(1/ell_k) + O(1); c_weight is that constant,
g_residual isolates the O(1) remainder and g_limit is its limit per
length.

With nu = w + 1/2, phi(x) = (2 sqrt(a)/x)^nu J_nu(sqrt(a) x) and
g(x) = phi(x)/sinh(x/2), each length contributes pref * S(ell), where
pref = Gamma(w+1)/(16 pi)^{1/2} and S(ell) = sum_{n>=1} ell g(n ell).
phi is even and entire with |phi(z)| <= phi0 e^{sqrt(a) |Im z|},
phi0 = a^nu/Gamma(nu+1), and |sinh(z/2)| >= sinh(Re z/2); the bounds
below rest on these two facts. Each S(ell) is certified by one of two
routes, chosen per length by a fixed rule.

Direct route (ell > 1/32, and the fallback). Term n is at most
env(n) = ell/sinh(n ell/2) min(phi0, (2 sqrt(a)/(n ell))^nu B(n ell sqrt(a))),
with |J_nu| <= B non-increasing: B(x) = min(1, sqrt(2/(pi x)))
for nu = 1/2, else min(1, 0.674886 nu^{-1/3}, 0.785747 x^{-1/3})
(Landau, J. London Math. Soc. 61, 2000). With tol(S) = policy.tol(pref
S)/pref, specfun.tail_cut cuts where the geometric tail env(N+1)/(1 -
e^{-ell/2}) meets tol(env(1)), and cuts again, summing only the new
terms, while tol of the partial sum is smaller. g_sine_form does the same
with min(1, n ell sqrt(a))/(n sinh(n ell/2)) and policy.tol. Blocks are
vectorized in a fixed order, so results are deterministic. The cost is
about 36/ell terms at w = 0.

Euler-Maclaurin route (ell <= 1/32). With N = 64 and X = N ell <= 2,

    S(ell) = sum_{n<N} ell g(n ell) + ell g(X)/2 + int_X^{x1} g + C(x1)
             - sum_{k<=6} B_2k/(2k)! ell^2k g^(2k-1)(X) + R.

The integral and the derivatives come from the odd Laurent series
x g(x) = sum_{j<=24} c_j x^2j (phi's power series times the Bernoulli
series of csch); C(x1) = int_{x1}^inf g comes from fixed 20-node
Gauss-Legendre panels, x1 = min(1, 2/sqrt(a)), and is shared by every
length of a call, so the cost does not depend on ell. Stated bounds:

- R: |R| <= 2|B_14|/14! ell^14 int_X^inf |g^(14)|, the derivative
  bounded by Cauchy's estimate on circles of radius X/2;
- Laurent tail: |c_j| <= M rho^{-2j} with M = rho phi0 e^{sqrt(a) rho}
  / sin(rho/2) for rho < 2 pi, as |sinh(z/2)| >= sin(rho/2) on
  |z| = rho; the dropped terms of the integral and of each derivative
  are summed against this as geometric series;
- quadrature: per panel (64/15) M' h rho^{2-2m}/(rho^2 - 1) over the
  Bernstein ellipse E_rho, h the half-width, m = 20 nodes and M' the
  bound on |g| over E_rho;
- the cut at x_max: 2 phi0 log coth(x_max/4), at most abs_tol/(16 pref);
- rounding: 1e-15 of the absolute size of the alternating Laurent sums.

A length takes this route only when the bounds sum to within
tol(S), as on the direct route, its 64 terms fit max_terms and its panels fit
max_quad_evals; otherwise it falls back to the direct route. The
Laurent tail and rounding bounds grow like e^{sqrt(a) X}, so at large
T the shallower of these lengths fall back.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .errors import DomainError, PinchtraceError, TruncationBudgetError
from .policy import DEFAULT_POLICY, TruncationPolicy
from .specfun import bessel_j_half, gamma, leggauss, log_sinh, tail_cut
from .spectrum import PinchingSet, SpectralData

__all__ = [
    "counting_direct",
    "c_weight",
    "g_bessel",
    "g_sine_form",
    "g_residual",
    "g_limit",
    "sandwich_check",
    "balance_epsilon",
]

_BLOCK = 1 << 21

# Landau's uniform bounds |J_nu(x)| <= b nu^{-1/3} and <= c x^{-1/3},
# constants rounded up
_LANDAU_NU = 0.674886
_LANDAU_X = 0.785747

_EM_HEAD = 64               # N: terms summed directly, the same for every length
_EM_ELL_MAX = 1.0 / 32.0    # keeps X = N ell <= 2, well inside the Laurent disc
_EM_ORDER = 6               # K Bernoulli corrections; the remainder carries B_{2K+2}
_EM_THETA = 0.5             # remainder Cauchy circles have radius theta X
_GL_NODES = 20
_LAURENT_RHOS = (3.5, 4.0, 4.5, 5.0, 5.5, 6.0)   # Cauchy radii tried, all < 2 pi
_ELLIPSE_RHOS = np.array([1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0])
_ROUNDING = 1e-15
_LOG_POWER_MAX = 600.0      # a larger power leaves J_nu too close to underflow
_PHI_SERIES_TERMS = 60      # each term at most half the last: 2^-59 relative
_ZETA4 = math.pi**4 / 90.0  # zeta(p) <= zeta(4) for every p >= 4
_EULER_GAMMA = 0.5772156649015329

# Bernoulli numbers B_2, B_4, ..., B_48
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
    (-236364091, 2730), (8553103, 6), (-23749461029, 870),
    (8615841276005, 14322), (-7709321041217, 510), (2577687858367, 6),
    (-26315271553053477373, 1919190), (2929993913841559, 6),
    (-261082718496449122051, 13530), (1520097643918070802691, 1806),
    (-27833269579301024235023, 690), (596451111593912163277961, 282),
    (-5609403368997817686249127547, 46410),
)
_LAURENT_TERMS = len(_BERNOULLI)  # J
# B_2k/(2k)! for k = 1..J
_B_FACT = tuple(
    num / (den * math.factorial(2 * k)) for k, (num, den) in enumerate(_BERNOULLI, 1)
)
# coefficients of x^2k in (x/2)/sinh(x/2), k = 0..J
_CSCH = (1.0,) + tuple((2.0 ** (1 - 2 * k) - 1.0) * b for k, b in enumerate(_B_FACT, 1))


def _check_weight(w: float) -> float:
    w = float(w)
    if not 0.0 <= w < math.inf:
        raise DomainError(f"weight must be finite and >= 0, got {w}")
    return w


def _check_threshold(T: float) -> float:
    T = float(T)
    if not 0.0 <= T < math.inf:
        raise DomainError(f"threshold must be finite and >= 0, got {T}")
    return T


def counting_direct(sd: SpectralData, w: float, T: float) -> float:
    """N_w(T): weighted eigenvalue count below (and at) the threshold."""
    if not isinstance(sd, SpectralData):
        sd = SpectralData.of(sd)
    w = _check_weight(w)
    T = _check_threshold(T)
    total = 0.0
    for lam, mult in sd.eigenvalues:
        if lam > T:
            break  # ascending order
        total += mult * (T - lam) ** w
    return total


def c_weight(w: float, T: float) -> float:
    """Asymptotic constant Gamma(w+1)(T-1/4)^{w+1/2}/(sqrt(4 pi) Gamma(w+3/2))."""
    w = _check_weight(w)
    T = _check_threshold(T)
    if T < 0.25:
        raise DomainError(f"c_weight requires T >= 1/4, got {T}")
    return gamma(w + 1.0) * (T - 0.25) ** (w + 0.5) / (
        math.sqrt(4.0 * math.pi) * gamma(w + 1.5)
    )


def _log_coth(y: float) -> float:
    return math.log1p(math.exp(-2.0 * y)) - math.log(-math.expm1(-2.0 * y))


def _series_sum(ell: float, term_fn, log_env, tol, cap: int) -> float:
    """Sum over n >= 1 of term_fn, certified to tol(sum) within cap terms.

    term_fn(n_array) -> term values; log_env(n) -> log of a scalar bound
    with |term(m)| <= env(n) e^{-(m-n) ell/2} for m >= n. Cuts with
    tail_cut for tol(env(1)), then again, summing only the new terms,
    while tol of the partial sum is below the target cut for.
    """
    target = tol(math.exp(log_env(1)))
    total = 0.0
    n0 = 1
    while True:
        ncut = tail_cut(log_env, ell, target, cap)
        while n0 <= ncut:
            n1 = min(ncut, n0 + _BLOCK - 1)
            n = np.arange(n0, n1 + 1, dtype=np.float64)
            total += float(np.sum(term_fn(n)))
            n0 = n1 + 1
        if not math.isfinite(total):
            raise TruncationBudgetError(f"series terms overflow a double (length {ell})")
        if tol(total) >= target:
            return total
        target = tol(total)


def _j_envelope(nu: float, x: float) -> float:
    """Bound on |J_nu(y)| for all y >= x > 0, non-increasing in x (nu >= 1/2)."""
    if nu <= 0.5:
        return min(1.0, math.sqrt(2.0 / (math.pi * x)))
    return min(1.0, _LANDAU_NU * nu ** (-1.0 / 3.0), _LANDAU_X * x ** (-1.0 / 3.0))


class _BesselSeries:
    """The per-length sums S(ell) of G_w(T) at one (w, a = T - 1/4 > 0).

    The Laurent coefficients and C(x1) are built on first use of the
    Euler-Maclaurin route and shared by every length of the instance.
    """

    def __init__(self, w: float, a: float, policy: TruncationPolicy):
        self.policy = policy
        self.a = a
        self.sa = math.sqrt(a)
        self.nu = w + 0.5
        self.log_phi0 = self.nu * math.log(a) - math.lgamma(self.nu + 1.0)
        self.phi0 = math.exp(self.log_phi0)
        self.pref = gamma(w + 1.0) / math.sqrt(16.0 * math.pi)
        self.spherical = int(w) if w.is_integer() else None
        self._pieces = None

    def term(self, ell: float, n):
        """ell * g(n ell), vectorized over n.

        phi = (sqrt(a)/(n ell/2))^nu J_nu(x) is that product unless, at
        the smallest n, the power could overflow or J_nu underflow. Then
        phi comes from its ascending series where x^2 <= 2 (nu + 1), each
        series term at most half the one before.
        """
        nl2 = 0.5 * ell * n
        x = 2.0 * nl2 * self.sa
        coef = ell * np.exp(-log_sinh(nl2))
        log_sa = math.log(self.sa)
        if self.nu * (log_sa - math.log(float(np.min(nl2)))) <= _LOG_POWER_MAX + min(
                0.0, self.log_phi0):
            power = np.exp(self.nu * (log_sa - np.log(nl2)))
            return coef * power * self._bessel(x)
        near = x * x <= 2.0 * (self.nu + 1.0)
        phi = np.empty_like(x)
        phi[~near] = np.exp(self.nu * (log_sa - np.log(nl2[~near]))) * self._bessel(x[~near])
        s = -0.25 * x[near] ** 2
        part = np.ones_like(s)
        acc = np.ones_like(s)
        for m in range(1, _PHI_SERIES_TERMS):
            part *= s / (m * (m + self.nu))
            acc += part
        phi[near] = self.phi0 * acc
        return coef * phi

    def _bessel(self, x):
        if self.spherical is not None:
            return bessel_j_half(self.spherical, x)
        return _sp.jv(self.nu, x)

    def length_sum(self, ell: float) -> float:
        """S(ell) by the Euler-Maclaurin route where it certifies, else directly."""
        if ell <= _EM_ELL_MAX:
            em = self.euler_maclaurin(ell)
            if em is not None and em[1] <= self._tol(em[0]):
                return em[0]
        return self.direct(ell)

    def _tol(self, s: float) -> float:
        """Tolerance on S: abs_tol bounds the error of pref S, not of S,
        which is tiny at large w."""
        return self.policy.tol(self.pref * s) / self.pref

    def direct(self, ell: float) -> float:
        """S(ell) summed term by term; raises TruncationBudgetError past max_terms."""
        nu, sa, log_phi0 = self.nu, self.sa, self.log_phi0

        def log_env(n):
            # |phi| <= phi0 on the reals, and past that the Bessel envelope
            nl2 = 0.5 * ell * n
            return math.log(ell) - log_sinh(nl2) + min(
                log_phi0, nu * math.log(sa / nl2) + math.log(_j_envelope(nu, 2.0 * nl2 * sa)))

        return _series_sum(ell, lambda n: self.term(ell, n), log_env, self._tol,
                           self.policy.max_terms)

    def euler_maclaurin(self, ell: float):
        """(S(ell), stated error bound), or None where the route cannot run.

        Only the head, the half term and the Laurent evaluations at X
        depend on ell; see the module docstring for the formula.
        """
        if _EM_HEAD > self.policy.max_terms:
            return None
        pieces = self._shared_pieces()
        if pieces is None:
            return None
        c, x1, far, far_bound = pieces
        N, J = _EM_HEAD, _LAURENT_TERMS
        X = N * ell
        t = self.term(ell, np.arange(1.0, N + 1.0))
        head = float(np.sum(t[:-1])) + 0.5 * float(t[-1])
        if not math.isfinite(head):
            return None

        # int_X^{x1} g from the Laurent series; mass is the absolute size
        # of every alternating Laurent sum, for the rounding allowance
        integral = c[0] * math.log(x1 / X)
        mass = 0.0
        for j in range(1, J + 1):
            u, v = x1 ** (2 * j), X ** (2 * j)
            integral += c[j] * (u - v) / (2 * j)
            mass += abs(c[j]) * (u + v) / (2 * j)
        # ell^2k g^(2k-1)(X): the c_0/x part gives -(2k-1)! c_0 / N^2k
        correction = 0.0
        for k in range(1, _EM_ORDER + 1):
            d = -math.factorial(2 * k - 1) * c[0] / N ** (2 * k)
            for j in range(k, J + 1):
                r = (c[j] * math.factorial(2 * j - 1) / math.factorial(2 * j - 2 * k)
                     * ell ** (2 * k) * X ** (2 * j - 2 * k))
                d += r
                mass += abs(_B_FACT[k - 1] * r)
            correction -= _B_FACT[k - 1] * d

        p = 2 * _EM_ORDER + 2
        r = _EM_THETA * X
        remainder = (
            8.0 * _ZETA4 * math.factorial(p) * (2.0 * math.pi * _EM_THETA * N) ** (-p)
            * self.phi0 * math.exp(self.sa * r) * _log_coth(0.25 * (X - r))
        )
        laurent = math.inf
        for rho in _LAURENT_RHOS:
            M = self._laurent_majorant(rho)
            tails = self._laurent_tail(M, rho, x1) + self._laurent_tail(M, rho, X)
            # dropped derivative terms: |c_j| (2j-1)!/(2j-2k)! ell^2k X^{2j-2k}
            # <= M q^j (2j)^{2k-1} / N^2k, a series whose ratio past J is
            # at most q ((J+2)/(J+1))^{2k-1} < 1
            q = (X / rho) ** 2
            for k in range(1, _EM_ORDER + 1):
                ratio = q * ((J + 2) / (J + 1)) ** (2 * k - 1)
                tails += (abs(_B_FACT[k - 1]) * M * q ** (J + 1) * (2 * J + 2) ** (2 * k - 1)
                          / (N ** (2 * k) * (1.0 - ratio)))
            laurent = min(laurent, tails)
        bound = remainder + laurent + far_bound + _ROUNDING * mass
        return head + integral + far + correction, bound

    def limit(self) -> float:
        """pref [c_0 (gamma + log x1) + sum_j c_j x1^2j/(2j) + C(x1)], certified."""
        pieces = self._shared_pieces()
        if pieces is None:
            raise TruncationBudgetError("g_limit quadrature exceeds max_quad_evals")
        c, x1, far, far_bound = pieces
        value = c[0] * (_EULER_GAMMA + math.log(x1))
        mass = abs(value)
        for j in range(1, _LAURENT_TERMS + 1):
            t = c[j] * x1 ** (2 * j) / (2 * j)
            value += t
            mass += abs(t)
        value += far
        laurent = min(
            self._laurent_tail(self._laurent_majorant(rho), rho, x1)
            for rho in _LAURENT_RHOS
        )
        bound = laurent + far_bound + _ROUNDING * mass
        if not bound <= self._tol(value):
            raise TruncationBudgetError(
                f"g_limit bound {bound:.3e} exceeds tolerance at value {value:.6g}"
            )
        return self.pref * value

    def _laurent_majorant(self, rho: float) -> float:
        """M >= |x g(x)| on |z| = rho < 2 pi, so |c_j| <= M rho^{-2j}."""
        return rho * self.phi0 * math.exp(self.sa * rho) / math.sin(0.5 * rho)

    @staticmethod
    def _laurent_tail(M: float, rho: float, x: float) -> float:
        """Bound on sum_{j>J} |c_j| x^2j/(2j)."""
        q = (x / rho) ** 2
        J = _LAURENT_TERMS
        return M * q ** (J + 1) / ((1.0 - q) * 2.0 * (J + 1))

    def _shared_pieces(self):
        if self._pieces is None:
            self._pieces = self._build_pieces()
        return self._pieces

    def _build_pieces(self):
        """(c_0..c_J, x1, C(x1), bound on C's error), or None when the
        panels exceed max_quad_evals."""
        a, sa, nu, phi0 = self.a, self.sa, self.nu, self.phi0
        # panels double in width from x1 until they reach `width`, then
        # stay at it, so sqrt(a) |Im z| stays bounded on their ellipses;
        # the cut at x_max costs pref S at most abs_tol/16
        x1 = min(1.0, 2.0 / sa)
        width = min(4.0, 3.0 / sa)
        x_max = max(2.0 * x1, 2.0 * math.log(max(
            64.0 * phi0 * self.pref / self.policy.abs_tol, 1.0)))
        edges = [x1]
        while edges[-1] < width and edges[-1] < x_max:
            edges.append(2.0 * edges[-1])
        uniform = max(0, math.ceil((x_max - edges[-1]) / width))
        if (len(edges) - 1 + uniform) * _GL_NODES > self.policy.max_quad_evals:
            return None
        edges = np.concatenate([edges, edges[-1] + width * np.arange(1.0, uniform + 1.0)])

        p = [phi0]
        for m in range(1, _LAURENT_TERMS + 1):
            p.append(p[-1] * (-0.25 * a) / (m * (m + nu)))
        c = [2.0 * sum(p[m] * _CSCH[j - m] for m in range(j + 1))
             for j in range(_LAURENT_TERMS + 1)]

        lo, hi = edges[:-1], edges[1:]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        gx, gw = leggauss(_GL_NODES)
        x = mid[:, None] + half[:, None] * gx
        far = float(np.sum(self.term(1.0, x) @ gw * half))

        rho = _ELLIPSE_RHOS
        re_min = mid[:, None] - 0.5 * half[:, None] * (rho + 1.0 / rho)
        im_max = 0.5 * half[:, None] * (rho - 1.0 / rho)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            m_ellipse = phi0 * np.exp(sa * im_max) / np.sinh(0.5 * re_min)
            err = (64.0 / 15.0) * half[:, None] * m_ellipse * rho ** (2 - 2 * _GL_NODES) / (
                rho**2 - 1.0)
        err = np.where(re_min > 0.0, err, math.inf)
        quad = float(np.sum(np.min(err, axis=1)))
        cut = 2.0 * phi0 * _log_coth(0.25 * float(edges[-1]))
        return c, x1, far, quad + cut


def g_bessel(ps, w: float, T: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """The degeneration counting series G_w(T); zero for T <= 1/4."""
    ps = PinchingSet.of(ps)
    w = _check_weight(w)
    T = _check_threshold(T)
    a = T - 0.25
    if a <= 0.0:
        return 0.0
    series = _BesselSeries(w, a, policy)
    g = series.pref * sum(series.length_sum(ell) for ell in ps.ells)
    if not math.isfinite(g):
        raise TruncationBudgetError(f"G_{w}({T}) overflows a double")
    return g


def g_limit(w: float, T: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """R_w(T), the limit of G_w(T) - c_w(T) log(1/ell) for one length ell -> 0.

    Certified to policy.tol(R) from the Euler-Maclaurin pieces; zero at
    T = 1/4. Raises TruncationBudgetError where the bound cannot meet
    that tolerance or the quadrature exceeds max_quad_evals.
    """
    w = _check_weight(w)
    T = _check_threshold(T)
    if T < 0.25:
        raise DomainError(f"g_limit requires T >= 1/4, got {T}")
    if T == 0.25:
        return 0.0
    return _BesselSeries(w, T - 0.25, policy).limit()


def g_sine_form(ps, T: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Weight-zero collapse of g_bessel in closed sine form.

    With J_{1/2}(x) = sqrt(2/(pi x)) sin x the w = 0 series reduces to

        (1/2 pi) sum_{n>=1} sum_k sin(n ell_k sqrt(a)) / (n sinh(n ell_k/2)).

    Always summed term by term, so it stays an independent check on
    both routes of g_bessel.
    """
    ps = PinchingSet.of(ps)
    T = _check_threshold(T)
    if T < 0.25:
        raise DomainError(f"g_sine_form requires T >= 1/4, got {T}")
    a = T - 0.25
    if a == 0.0:
        return 0.0
    sa = math.sqrt(a)

    def one_length(ell: float) -> float:
        def term(n):
            return np.sin(n * ell * sa) / n * np.exp(-log_sinh(0.5 * ell * n))

        def log_env(n):  # |sin y| <= min(1, y)
            return math.log(min(1.0 / n, ell * sa)) - log_sinh(0.5 * ell * n)

        return _series_sum(ell, term, log_env, policy.tol, policy.max_terms)

    return sum(one_length(ell) for ell in ps.ells) / (2.0 * math.pi)


def g_residual(ps, w: float, T: float, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """O(1) remainder g_bessel(ps, w, T) - c_weight(w, T) * sum_k log(1/ell_k).

    Requires every pinching length below 1 (the log-sum normalizer must
    be positive) and T >= 1/4.
    """
    ps = PinchingSet.of(ps)
    if any(ell >= 1.0 for ell in ps.ells):
        raise DomainError("g_residual requires all pinching lengths < 1")
    w = _check_weight(w)
    if T < 0.25:
        raise DomainError(f"g_residual requires T >= 1/4, got {T}")
    return g_bessel(ps, w, T, policy) - c_weight(w, T) * ps.log_sum


def sandwich_check(
    sd: SpectralData, w: float, T: float, eps: float
) -> tuple[float, float, float]:
    """Difference-quotient sandwich of the counting recursion.

    Returns (N_w(T), [N_{w+1}(T+eps) - N_{w+1}(T)] / [eps (w+1)],
    N_w(T+eps)) and verifies the non-decreasing ordering; the middle
    term is an average of N_w over [T, T+eps], so monotonicity pins it
    between the endpoints.
    """
    if not eps > 0.0:
        raise DomainError(f"sandwich_check requires eps > 0, got {eps}")
    w = _check_weight(w)
    lo = counting_direct(sd, w, T)
    hi = counting_direct(sd, w, T + eps)
    mid = (
        counting_direct(sd, w + 1.0, T + eps) - counting_direct(sd, w + 1.0, T)
    ) / (eps * (w + 1.0))
    slack = 1e-12 * max(1.0, abs(lo), abs(mid), abs(hi))
    if not (lo <= mid + slack and mid <= hi + slack):
        raise PinchtraceError(
            f"sandwich ordering violated: {lo} <= {mid} <= {hi} fails"
        )
    # rounding in the difference quotient can land mid an ulp outside the
    # bracket; the slack check above vouched for it, so pin the ordering
    mid = min(max(mid, lo), hi)
    return (lo, mid, hi)


def balance_epsilon(f_ell: float, log_sum: float) -> float:
    """Minimizer of max(eps * log_sum, f_ell / eps): eps* = sqrt(f_ell/log_sum).

    Both error terms equal sqrt(f_ell * log_sum) at the balance point.
    """
    if not f_ell > 0.0:
        raise DomainError(f"f_ell must be > 0, got {f_ell}")
    if not log_sum > 0.0:
        raise DomainError(f"log_sum must be > 0, got {log_sum}")
    return math.sqrt(f_ell / log_sum)
