"""Smooth bumps, the two-sided frequency multiplier, truncated wave packets.

Construction chain:

* :class:`BumpSpec` fixes the two small radii ``b`` (spectral width of the
  packet profile, support ``B_{b/2}``) and ``eps`` (width of the cutoff bump
  ``chi``), with ``eps <= b/16 <= 1/128``.
* ``chi`` is the normalized-height bump ``exp(-1/(1-(z/eps)^2))`` on
  ``B_eps``; ``chi_plus`` is its mass-normalized antiderivative (a smooth
  step from 0 to 1), ``chi_minus(z) = chi_plus(-z)``, so
  ``chi_plus + chi_minus == 1``.
* ``m_plus(xi)`` integrates ``phi_hat(t(xi - eta)) chi(t eta - 1)
  chi_minus(t(eta - 1) + 1)`` over all modulations ``eta`` and scales ``t``.
  The substitution ``v = t eta, w = t xi`` (Jacobian ``deta dt = dv dw / w``)
  turns this into an integral over the fixed compact box ``v in B_eps(1)``,
  ``|w - v| < b/2``, evaluated by tensor Gauss-Legendre quadrature.  The
  box sum runs only on the transition band, where ``chi_minus`` is neither
  exactly 1 nor exactly 0 on the whole box; elsewhere the value is the
  all-ones box sum or 0, bit for bit what the box sum gives.
  :func:`assemble_m` still checks positivity, symmetry and flatness at every
  knot.
* ``m = m_plus + m_minus`` with ``m_minus(xi) = m_plus(1 - xi)`` is positive,
  symmetric about 1/2, and exactly constant outside ``B_{b/2}(1/2)``; it is
  extended by that constant outside ``(0, 1)``.  :class:`MultiplierTable`
  stores sampled values with a cubic spline for the transition zone.  That
  table and the ``chi_plus`` one use the package's own not-a-knot cubic
  spline (:class:`_NotAKnotSpline`, numpy only).
* ``packet_hat`` builds the Fourier profile of a truncated wave packet for a
  frequency interval ``(c_minus, c_plus)`` at modulation/scale ``(eta, t)``:
  ``chi``/``chi_minus`` windows in ``eta`` times ``phi_hat / m``.  Summing
  the profiles of both truncation signs over all ``(eta, t)`` reproduces the
  indicator of the interval; :func:`verify_reconstruction` checks that with
  an independent midpoint quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import ConfigurationError, _freeze

__all__ = [
    "BumpSpec",
    "Bumps",
    "build_bumps",
    "compute_m_plus",
    "MultiplierTable",
    "assemble_m",
    "packet_hat",
    "ReconstructionReport",
    "verify_reconstruction",
]

_CDF_KNOTS = 8193  # bump antiderivative table; trapezoid on a C_c^inf integrand


class _NotAKnotSpline:
    """Cubic spline through (x, y) with not-a-knot ends (de Boor, ch. IV).

    The knot slopes solve the tridiagonal C^2 system, whose end rows ask
    the first two (last two) cubic pieces to be one polynomial, eliminated
    down to two unknowns each.  A Thomas sweep solves it without pivoting:
    the interior rows are diagonally dominant and the last pivot stays near
    0.46 dx on uniform knots.  Needs at least 4 ascending knots;
    evaluation is meant for points inside ``[x[0], x[-1]]`` (outside it
    extends the end pieces).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # row i: lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i]
        lower = np.concatenate([[0.0], dx[1:], [x[-1] - x[-3]]])
        diag = np.concatenate([[dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]])
        upper = np.concatenate([[x[2] - x[0]], dx[:-1], [0.0]])
        rhs = np.empty(x.size)
        rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = upper[0]
        rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = lower[-1]
        rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        lower, diag, upper, rhs = (v.tolist() for v in (lower, diag, upper, rhs))
        for i in range(1, len(diag)):
            w = lower[i] / diag[i - 1]
            diag[i] -= w * upper[i - 1]
            rhs[i] -= w * rhs[i - 1]
        s = [0.0] * len(diag)
        s[-1] = rhs[-1] / diag[-1]
        for i in range(len(diag) - 2, -1, -1):
            s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
        s = np.array(s)
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        self.x = x
        # Hermite form: piece i is c0 h^3 + c1 h^2 + c2 h + c3 in h = z - x[i]
        self.coefficients = (t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        i = np.clip(np.searchsorted(self.x, z, "right") - 1, 0, self.x.size - 2)
        h = z - self.x[i]
        c0, c1, c2, c3 = (c[i] for c in self.coefficients)
        return ((c0 * h + c1) * h + c2) * h + c3


@dataclass(frozen=True)
class BumpSpec:
    """Radii of the two bumps; eps defaults to its cap b/16."""

    b: float = 1.0 / 16.0
    eps: float | None = None

    def __post_init__(self):
        b = float(self.b)
        if not (0.0 < b <= 0.125):
            raise ConfigurationError(f"need 0 < b <= 1/8, got b={b}")
        eps = b / 16.0 if self.eps is None else float(self.eps)
        if not (0.0 < eps <= b / 16.0 + 1e-15):
            raise ConfigurationError(f"need 0 < eps <= b/16 = {b / 16.0}, got eps={eps}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "eps", eps)


def _bump(u: np.ndarray) -> np.ndarray:
    """exp(-1/(1-u^2)) on |u| < 1, zero outside; u may contain inf."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


class Bumps:
    """Evaluators chi, chi_plus, chi_minus, phi_hat for one BumpSpec.

    chi_plus interpolates a symmetrized cumulative table with the package's
    not-a-knot cubic spline, clamped to exactly 0 below -eps and exactly 1
    above +eps, so that the partition identity chi_plus + chi_minus == 1 and
    the support statements hold to machine precision.  Obtain instances through
    :func:`build_bumps`, which builds the table once per spec.
    """

    def __init__(self, spec: BumpSpec):
        self.spec = spec
        eps = spec.eps
        z = np.linspace(-eps, eps, _CDF_KNOTS)
        vals = _bump(z / eps)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(z))])
        total = cdf[-1]
        sym = 0.5 * (cdf + (total - cdf[::-1])) / total  # enforce S(z) + S(-z) = 1
        self._cdf_spline = _NotAKnotSpline(z, sym)

    def chi(self, z) -> np.ndarray:
        return _bump(np.asarray(z, dtype=float) / self.spec.eps)

    def chi_plus(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        eps = self.spec.eps
        out = np.empty_like(z)
        out.fill(np.nan)  # NaN in, NaN out
        out[z <= -eps] = 0.0
        out[z >= eps] = 1.0
        mid = np.abs(z) < eps
        out[mid] = self._cdf_spline(z[mid])
        return out

    def chi_minus(self, z) -> np.ndarray:
        return self.chi_plus(-np.asarray(z, dtype=float))

    def phi_hat(self, zeta) -> np.ndarray:
        return _bump(np.asarray(zeta, dtype=float) / (0.5 * self.spec.b))


_bumps_cache: dict = {}


def build_bumps(spec: BumpSpec) -> Bumps:
    """The :class:`Bumps` of ``spec``, built on first use and shared after.

    ``BumpSpec`` is frozen with ``eps`` normalized, so equal specs hash
    alike and one instance serves every caller.
    """
    if spec not in _bumps_cache:
        _bumps_cache[spec] = Bumps(spec)
    return _bumps_cache[spec]


@functools.lru_cache(maxsize=None)
def _box_nodes(spec: BumpSpec, order: int):
    """Gauss-Legendre nodes/weights for the compactified (v, w) box.

    Returns v (q,), w (q, q) with w[i] covering v[i] +- b/2, and the
    xi-independent weight matrix chi(v-1) phi_hat(w-v) / w * (GL weights),
    all frozen: built once per (spec, order) and shared after.
    """
    nodes, weights = leggauss(order)
    eps, half_b = spec.eps, 0.5 * spec.b
    v = 1.0 + eps * nodes
    wv = eps * weights
    w = v[:, None] + half_b * nodes[None, :]
    ww = half_b * weights
    bumps = build_bumps(spec)
    base = (
        bumps.chi(v - 1.0)[:, None]
        * bumps.phi_hat(w - v[:, None])
        / w
        * wv[:, None]
        * ww[None, :]
    )
    return _freeze(v), _freeze(w), _freeze(base), bumps


def _m_plus_on_values(spec: BumpSpec, xi: np.ndarray, order: int) -> np.ndarray:
    """Raw integral values for xi > 0 (vectorized); zero where xi <= 0.

    The box sum of ``base * chi_minus(v - w / xi + 1)`` runs only on the
    transition band.  ``leggauss`` nodes ascend and every rounded step of
    that argument is monotone, so each box row's computed argument is
    largest at ``w[:, 0]`` and smallest at ``w[:, -1]``, exactly.  Where
    the largest is ``<= -eps``, ``chi_minus`` is exactly 1 on the whole box
    and the value is the all-ones box sum; where the smallest is ``>= eps``,
    it is exactly 0 and so is the value.  Either way the value is the box
    sum bit for bit.
    """
    v, w, base, bumps = _box_nodes(spec, order)
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(xi.shape)
    pos = xi > 0.0
    if not np.any(pos):
        return out
    xp = xi[pos]
    eps = spec.eps
    with np.errstate(divide="ignore", over="ignore"):  # xi near 0: w/xi blows up benignly
        top = (v[None, :] - w[None, :, 0] / xp[:, None] + 1.0).max(axis=1)
        bottom = (v[None, :] - w[None, :, -1] / xp[:, None] + 1.0).min(axis=1)
    ones = top <= -eps
    band = np.flatnonzero(~ones & (bottom < eps))
    vals = np.zeros(xp.size)
    vals[ones] = base[None, :, :].sum(axis=(1, 2))[0]  # the box sum's own reduction
    block = max(1, (1 << 22) // (order * order))
    for start in range(0, band.size, block):
        at = band[start : start + block]
        arg = v[None, :, None] - w[None, :, :] / xp[at, None, None] + 1.0
        vals[at] = (base[None, :, :] * bumps.chi_minus(arg)).sum(axis=(1, 2))
    out[pos] = vals
    return out


def _m_constant(spec: BumpSpec, order: int) -> float:
    """The constant value of m_plus on (0, 1/2 - b/2] (chi_minus factor == 1)."""
    _, _, base, _ = _box_nodes(spec, order)
    return float(base.sum())


def compute_m_plus(spec: BumpSpec, xi, order: int = 64) -> np.ndarray | float:
    """Right-truncation multiplier piece m_plus at xi (scalar or array).

    Inside (0, 1) this is the compactified-box Gauss-Legendre value (it
    vanishes for xi past the transition zone and is constant below it).
    Outside, the limit extension is returned: the constant m_plus(0+) for
    xi <= 0 and 0 for xi >= 1.
    """
    if order < 8:
        raise ConfigurationError(f"quadrature order must be >= 8, got {order}")
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    if not np.all(np.isfinite(xi_arr)):
        raise ValueError("xi must be finite")
    out = np.empty(xi_arr.shape)
    inside = (xi_arr > 0.0) & (xi_arr < 1.0)
    out[xi_arr <= 0.0] = _m_constant(spec, order)
    out[xi_arr >= 1.0] = 0.0
    if np.any(inside):
        out[inside] = _m_plus_on_values(spec, xi_arr[inside], order)
    return float(out[0]) if np.ndim(xi) == 0 else out


@dataclass(frozen=True)
class MultiplierTable:
    """Sampled m on a symmetric grid over [-delta, 1 + delta].

    ``m`` is exactly the constant ``m0`` outside the transition zone
    ``B_{b/2}(1/2)`` (validated against the raw quadrature, then snapped);
    inside the zone the package's not-a-knot cubic spline through the
    symmetrized samples is used.  Evaluation extends by ``m0`` beyond the
    tabulated range.
    """

    spec: BumpSpec
    xi_grid: np.ndarray
    m_values: np.ndarray
    m0: float

    def __post_init__(self):
        for name in ("xi_grid", "m_values"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        object.__setattr__(self, "_spline", _NotAKnotSpline(self.xi_grid, self.m_values))

    @property
    def zone(self) -> tuple:
        half = 0.5 * self.spec.b
        return (0.5 - half, 0.5 + half)

    def m_at(self, xi) -> np.ndarray | float:
        xi_arr = np.asarray(xi, dtype=float)
        lo, hi = self.zone
        out = np.full(xi_arr.shape, self.m0)
        mid = (xi_arr > lo) & (xi_arr < hi)
        if np.any(mid):
            out[mid] = self._spline(xi_arr[mid])
        return float(out) if np.ndim(xi) == 0 else out

    def m_inv_at(self, xi) -> np.ndarray | float:
        return 1.0 / self.m_at(xi)


_M_KNOTS = 4096  # even, so xi_i and 1 - xi_i are both knots
_M_QUAD_ORDER = 64
_M_DELTA = 0.125  # the table covers [-delta, 1 + delta]


def assemble_m(spec: BumpSpec) -> MultiplierTable:
    """Tabulate m = m_plus + m_minus over [-delta, 1 + delta].

    Raises RuntimeError if the raw quadrature values violate positivity,
    the mirror symmetry m(xi) = m(1 - xi), or constancy outside the
    transition zone: those are construction defects, not bad input.
    """
    xi = np.linspace(-_M_DELTA, 1.0 + _M_DELTA, _M_KNOTS)
    m_plus = compute_m_plus(spec, xi, order=_M_QUAD_ORDER)
    m_raw = m_plus + m_plus[::-1]  # m_minus(xi) = m_plus(1 - xi) on this grid
    m0 = _m_constant(spec, _M_QUAD_ORDER)

    if m_raw.min() <= 0.0:
        raise RuntimeError("multiplier construction failed: m is not positive")
    sym = float(np.abs(m_raw - m_raw[::-1]).max())
    if sym > 1e-10 * m0:
        raise RuntimeError(f"multiplier symmetry defect {sym:.3e} exceeds tolerance")
    half = 0.5 * spec.b
    const_zone = (xi <= 0.5 - half) | (xi >= 0.5 + half)
    drift = float(np.abs(m_raw[const_zone] - m0).max())
    if drift > 1e-6 * m0:
        raise RuntimeError(
            f"multiplier is not constant outside the transition zone (drift {drift:.3e})"
        )
    m_vals = np.where(const_zone, m0, 0.5 * (m_raw + m_raw[::-1]))
    return MultiplierTable(spec=spec, xi_grid=xi, m_values=m_vals, m0=m0)


def _check_interval(c_minus: float, c_plus: float, sign: int) -> tuple:
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    c_minus = float(c_minus)
    c_plus = float(c_plus)
    if math.isnan(c_minus) or math.isnan(c_plus):
        raise ValueError("interval endpoints must not be NaN")
    if not c_minus < c_plus:
        raise ValueError(f"need c_minus < c_plus, got ({c_minus}, {c_plus})")
    if sign == +1 and math.isinf(c_minus):
        raise ValueError("right-truncated packets need a finite left endpoint")
    if sign == -1 and math.isinf(c_plus):
        raise ValueError("left-truncated packets need a finite right endpoint")
    return c_minus, c_plus


def packet_hat(
    table: MultiplierTable,
    interval: tuple,
    eta: float,
    t: float,
    zeta,
    sign: int = +1,
) -> np.ndarray:
    """Fourier profile of the truncated wave packet, evaluated at zeta.

    For sign +1 (right truncation) the eta-window is
    ``chi(t(eta - c_minus) - 1) * chi_minus(t(eta - c_plus) + 1)``; for sign
    -1 the mirrored ``chi_plus(t(eta - c_minus) - 1) * chi(t(eta - c_plus)
    + 1)``.  The profile is ``window * phi_hat(zeta) / m((zeta/t + eta -
    c_minus)/(c_plus - c_minus))``, with the infinite-endpoint limits
    (window factor 1, multiplier argument 0 resp. 1) when c_plus = inf or
    c_minus = -inf.  Values are real; broadcasting over zeta, eta, t.
    """
    c_minus, c_plus = _check_interval(*interval, sign)
    eta = np.asarray(eta, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("scale t must be positive")
    zeta = np.asarray(zeta, dtype=float)
    bumps = build_bumps(table.spec)

    if math.isinf(c_plus):
        right = 1.0
        m_arg = np.zeros(np.broadcast(zeta, eta, t).shape)
    elif math.isinf(c_minus):
        right = bumps.chi(t * (eta - c_plus) + 1.0)
        m_arg = np.ones(np.broadcast(zeta, eta, t).shape)
    else:
        right = (
            bumps.chi_minus(t * (eta - c_plus) + 1.0)
            if sign == +1
            else bumps.chi(t * (eta - c_plus) + 1.0)
        )
        m_arg = (zeta / t + eta - c_minus) / (c_plus - c_minus)
    if math.isinf(c_minus):
        left = 1.0
    else:
        left = (
            bumps.chi(t * (eta - c_minus) - 1.0)
            if sign == +1
            else bumps.chi_plus(t * (eta - c_minus) - 1.0)
        )
    window = left * right
    out = window * bumps.phi_hat(zeta) * table.m_inv_at(m_arg)
    return out


@dataclass(frozen=True)
class ReconstructionReport:
    """Residuals of the two-sign packet superposition against the indicator."""

    xi: np.ndarray
    residual_ref: np.ndarray
    residual_fine: np.ndarray
    cells_ref: int
    cells_fine: int
    sup_ref: float
    sup_fine: float
    ratio: float
    exterior_max: float


def _q_plus_midpoint(spec: BumpSpec, bumps: Bumps, xi: np.ndarray, cells: int) -> np.ndarray:
    """Composite midpoint rule for the same box integral as compute_m_plus."""
    eps, half_b = spec.eps, 0.5 * spec.b
    u = (np.arange(cells) + 0.5) / cells * 2.0 - 1.0  # midpoints of [-1, 1]
    v = 1.0 + eps * u
    w = v[:, None] + half_b * u[None, :]
    area = (2.0 * eps / cells) * (2.0 * half_b / cells)  # dv * dw per cell
    base = bumps.chi(v - 1.0)[:, None] * bumps.phi_hat(w - v[:, None]) / w
    out = np.zeros(xi.shape)
    pos = xi > 0.0
    if np.any(pos):
        with np.errstate(divide="ignore", over="ignore"):
            arg = v[None, :, None] - w[None, :, :] / xi[pos, None, None] + 1.0
        out[pos] = (base[None, :, :] * bumps.chi_minus(arg)).sum(axis=(1, 2)) * area
    return out


def verify_reconstruction(
    table: MultiplierTable,
    interval: tuple,
    xi,
    cells: int = 12,
    refine: int = 2,
) -> ReconstructionReport:
    """Check that both truncation signs integrate to the interval indicator.

    At each requested frequency the modulation/scale integral of the two
    packet profiles collapses (the multiplier argument is exactly the
    rescaled frequency), leaving ``(Q_plus(u) + Q_plus(1 - u)) / m(u)`` with
    ``u = (xi - c_minus)/(c_plus - c_minus)``.  The numerator is evaluated
    with a composite midpoint rule at ``cells`` and ``refine * cells``
    subdivisions per axis, independent of the Gauss-Legendre table route;
    the reported ratio is the sup-residual contraction under refinement.
    Outside the interval the superposition vanishes identically.  The
    midpoint rule is the oracle for the table route (oracle: used by
    tests/verify only).
    """
    c_minus, c_plus = _check_interval(*interval, +1)
    if math.isinf(c_minus) or math.isinf(c_plus):
        raise ValueError("reconstruction check needs a bounded interval")
    if cells < 2 or refine < 2:
        raise ConfigurationError("need cells >= 2 and refine >= 2")
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    u = (xi_arr - c_minus) / (c_plus - c_minus)
    bumps = build_bumps(table.spec)
    inv_m = table.m_inv_at(u)
    inside = (u > 0.0) & (u < 1.0)

    def residual(cell_count: int) -> np.ndarray:
        num = _q_plus_midpoint(table.spec, bumps, u, cell_count) + _q_plus_midpoint(
            table.spec, bumps, 1.0 - u, cell_count
        )
        res = num * inv_m - np.where(inside, 1.0, 0.0)
        return res

    res_ref = residual(cells)
    res_fine = residual(refine * cells)
    sup_ref = float(np.abs(res_ref[inside]).max()) if np.any(inside) else 0.0
    sup_fine = float(np.abs(res_fine[inside]).max()) if np.any(inside) else 0.0
    exterior = float(np.abs(res_ref[~inside]).max()) if np.any(~inside) else 0.0
    ratio = sup_ref / sup_fine if sup_fine > 0.0 else math.inf
    return ReconstructionReport(
        xi=xi_arr,
        residual_ref=res_ref,
        residual_fine=res_fine,
        cells_ref=cells,
        cells_fine=refine * cells,
        sup_ref=sup_ref,
        sup_fine=sup_fine,
        ratio=ratio,
        exterior_max=exterior,
    )
