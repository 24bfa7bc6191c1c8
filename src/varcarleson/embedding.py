"""Embeddings of sampled signals into time-frequency-scale space.

Three fields over a (modulation, translation, scale) grid:

* :func:`embed_signal` pairs the signal with a flat-top analyzing window in
  frequency: ``E(eta, y, t) = sum_xi fhat(xi) w(t (xi - eta)) e^{2 pi i xi y}
  dxi``.  The window equals 1 on the spectral support of the packet family
  and vanishes smoothly outside 1.5 times that radius, so band-limited
  signals embed exactly.  The field at any translation y is the frequency
  sum itself, one matmul against the phases ``e^{2 pi i xi y} dxi``.
* :func:`embed_packets` does the same with the truncated wave-packet profile
  of a frequency interval in place of the window.  The oracle
  :func:`embed_packets_direct` sums the Gauss-Legendre inversion of the
  profile against the samples instead, an independent cross-check.
* :func:`embed_majorant` builds the scalar majorant field: a lattice
  combination of increment norms gated by the angular window, smeared by the
  scale-normalized kernel ``(1 + ((x - y)/t)^2)^(-N/2) / t``.

:func:`check_dual_representation` tests the two-sided packet representation
of a frequency-interval increment against its direct computation, with a
ridge-band quadrature in (eta, t); :func:`check_domination` compares the
composite outer size of the packet embeddings, masked outside an excluded
tree union, against the sup-size of the majorant under both readings of the
right-hand mask (same exclusion, or none).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import (
    ConfigurationError,
    FrequencySelection,
    NormedSpace,
    SampledSignal,
    SequenceSignal,
    _dft_values,
    _freq_grid,
    _ratio,
    duality_pairing,
    norm_eval,
)
from .fourier import linearized_vc
from .outersize import SizeSpec, outer_size
from .tfs import OuterField, TFSGrid, TreeDictionary
from .wavepacket import MultiplierTable, build_bumps, packet_hat

__all__ = [
    "EmbeddingConfig",
    "analyzing_window",
    "embed_signal",
    "embed_packets",
    "embed_packets_direct",
    "embed_packet_sequence",
    "embed_majorant",
    "check_dual_representation",
    "check_domination",
    "domination_dictionaries",
    "dump_field",
    "load_field",
    "theta_windows",
]

# angular windows for the right-truncation sign; the left sign mirrors them
_THETA_PLUS = (-0.25, 1.125)


def theta_windows(table: MultiplierTable, sign: int) -> tuple:
    """Per-sign angular window and inner window for tree dictionaries."""
    eps = table.spec.eps
    if sign == +1:
        return _THETA_PLUS, (_THETA_PLUS[0], 1.0 - eps)
    if sign == -1:
        return (-_THETA_PLUS[1], -_THETA_PLUS[0]), (-(1.0 - eps), -_THETA_PLUS[0])
    raise ValueError(f"sign must be +1 or -1, got {sign}")


@dataclass(frozen=True)
class EmbeddingConfig:
    """Packet family plus majorant parameters (kernel decay, lattice exponent)."""

    table: MultiplierTable
    kernel_power: int = 8
    r_prime: float = 2.0

    def __post_init__(self):
        if self.kernel_power < 2:
            raise ConfigurationError(f"kernel decay power must be >= 2, got {self.kernel_power}")
        if not (self.r_prime >= 1.0 or math.isinf(self.r_prime)):
            raise ConfigurationError(f"lattice exponent must be >= 1, got {self.r_prime}")


def analyzing_window(config: EmbeddingConfig, zeta) -> np.ndarray:
    """Flat-top frequency window: 1 on B_{b/2}, smooth step to 0 on B_{3b/4}."""
    spec = config.table.spec
    bumps = build_bumps(spec)
    z = np.abs(np.asarray(zeta, dtype=float))
    half, outer = 0.5 * spec.b, 0.75 * spec.b
    out = np.zeros(z.shape)
    out[z <= half] = 1.0
    mid = (z > half) & (z < outer)
    u = (outer - z[mid]) / (outer - half)
    out[mid] = bumps.chi_plus(spec.eps * (2.0 * u - 1.0))
    return out


def _check_scales(grid: TFSGrid, n: int, dx: float, b: float) -> None:
    """Reject scales that a signal of ``n`` samples spaced ``dx`` cannot resolve."""
    dxi = 1.0 / (n * dx)
    if grid.t[-1] > b / dxi:
        raise ConfigurationError(
            f"largest scale {grid.t[-1]:.4g} exceeds b/dxi = {b / dxi:.4g}; "
            "the frequency grid cannot resolve the window there"
        )
    # at the smallest scale the window spreads to eta +- 3b/(4t); it must
    # stay inside the band the samples represent
    margin = 0.5 / dx - float(np.abs(grid.eta).max())
    if 0.75 * b / grid.t[0] > margin:
        raise ConfigurationError(
            f"smallest scale {grid.t[0]:.4g} is undersampled: the window "
            f"needs {0.75 * b / grid.t[0]:.4g} of headroom beyond the "
            f"modulation range but the signal's band leaves {margin:.4g}"
        )


def _spectral_field(signal: SampledSignal, grid: TFSGrid, profile) -> np.ndarray:
    """Assemble sum_xi fhat(xi) profile(eta, t, xi) e^{2 pi i xi y} dxi.

    ``profile(eta, t, xi)`` receives broadcast node arrays shaped
    ``(n_eta, 1, 1)``, ``(1, n_t, 1)`` and ``(1, 1, n_xi)`` and returns the
    window values on all nodes at once, shaped ``(n_eta, n_t, n_xi)``.  One
    stacked matmul against the exponential phases at the grid's y nodes
    yields the field.
    """
    coeffs = _dft_values(signal.values, signal.x0, signal.dx)
    xi = _freq_grid(signal.n, signal.dx)
    prof = profile(grid.eta[:, None, None], grid.t[None, :, None], xi[None, None, :])
    windowed = prof[..., None] * coeffs  # (n_eta, n_t, n_xi, dim)
    dxi = 1.0 / (signal.n * signal.dx)
    phases = np.exp(2j * np.pi * np.outer(xi, grid.y)) * dxi  # (n_xi, n_y)
    return np.moveaxis(phases.T @ windowed, 2, 1)


def embed_signal(signal: SampledSignal, grid: TFSGrid, config: EmbeddingConfig) -> OuterField:
    """Analyzing-window embedding of the signal over the grid."""
    _check_scales(grid, signal.n, signal.dx, config.table.spec.b)
    values = _spectral_field(
        signal, grid, lambda eta, t, xi: analyzing_window(config, t * (xi - eta))
    )
    return OuterField(grid, values, signal.space)


def embed_packets(
    signal: SampledSignal, table: MultiplierTable, interval: tuple, grid: TFSGrid, *, sign: int = +1
) -> OuterField:
    """Truncated wave-packet embedding of the signal over the grid.

    One rule, the spectral profile sum: the field at (eta, y, t) is
    ``sum_xi fhat(xi) packet_hat(eta, t, t (xi - eta)) e^{2 pi i xi y} dxi``.
    """
    _check_scales(grid, signal.n, signal.dx, table.spec.b)
    values = _spectral_field(
        signal,
        grid,
        lambda eta, t, xi: packet_hat(table, interval, eta, t, t * (xi - eta), sign=sign),
    )
    return OuterField(grid, values, signal.space)


def embed_packets_direct(
    signal: SampledSignal, table: MultiplierTable, interval: tuple, grid: TFSGrid, *, sign: int = +1
) -> OuterField:
    """The field of :func:`embed_packets` as a spatial sum over the samples.

    Evaluates the spatial kernel by Gauss-Legendre inversion of the packet
    profile; quadratic in the grid sizes and meant for cross-checks on a
    handful of nodes (oracle: used by tests only).
    """
    _check_scales(grid, signal.n, signal.dx, table.spec.b)
    out = _direct_field(signal.values, signal.grid(), signal.dx, table, interval, grid, sign)
    return OuterField(grid, out, signal.space)


def _direct_field(values, x, dx, table, interval, grid, sign) -> np.ndarray:
    """Spatial-sum packet field of samples ``values`` at positions ``x``.

    Inverts the packet profile by Gauss-Legendre in its spectral ball and
    sums the kernel against the samples; the positions may be any subset of
    a uniform grid (the quadrature weight ``dx`` stays with the caller's
    grid).  Quadratic cost, meant for cross-checks and per-sample cutoffs.
    """
    half = 0.5 * table.spec.b
    out = np.zeros(grid.shape + (values.shape[1],), dtype=complex)
    for k, t in enumerate(grid.t):
        diff = grid.y[:, None] - x[None, :]  # (n_y, n_x)
        u = diff / t
        q = 64 + int(4.0 * half * np.abs(u).max())
        nodes, weights = leggauss(q)
        zeta = half * nodes
        for i, eta in enumerate(grid.eta):
            prof = packet_hat(table, interval, eta, t, zeta, sign=sign) * (half * weights)
            kernel = np.zeros(u.shape, dtype=complex)
            for g in np.flatnonzero(prof):
                kernel += prof[g] * np.exp(2j * np.pi * zeta[g] * u)
            mod = np.exp(2j * np.pi * eta * diff)
            out[i, :, k, :] = ((kernel * mod / t) @ values) * dx
    return out


def embed_packet_sequence(
    sequence: SequenceSignal,
    table: MultiplierTable,
    selection: FrequencySelection,
    grid: TFSGrid,
    *,
    sign: int = +1,
) -> OuterField:
    """Packet embedding of a signal sequence against a cutoff selection.

    Entry j pairs with the packets of the interval (c_j(x), c_{j+1}(x));
    the result is the sum over entries.  A selection constant across samples
    is one :func:`embed_packets` call per nonempty interval; a per-sample
    selection changes the kernel with x, which no spectral sum carries, so
    each group of samples with equal cutoff pairs takes the spatial sum of
    :func:`embed_packets_direct`.
    """
    first = sequence.entries[0]
    levels = selection.levels
    if selection.n != first.n:
        raise ValueError(f"selection has {selection.n} rows, entries have {first.n} samples")
    if selection.steps != len(sequence.entries):
        raise ValueError(
            f"selection defines {selection.steps} intervals, sequence has "
            f"{len(sequence.entries)} entries"
        )
    _check_scales(grid, first.n, first.dx, table.spec.b)
    constant = bool(np.all(levels == levels[:1, :]))
    values = np.zeros(grid.shape + (first.dim,), dtype=complex)
    x = first.grid()
    for j, entry in enumerate(sequence.entries):
        if constant:
            lo, hi = float(levels[0, j]), float(levels[0, j + 1])
            if not hi > lo:
                continue  # empty interval carries no packets
            values += embed_packets(entry, table, (lo, hi), grid, sign=sign).values
            continue
        pairs = levels[:, j : j + 2]
        uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
        for u_idx in range(uniq.shape[0]):
            lo, hi = float(uniq[u_idx, 0]), float(uniq[u_idx, 1])
            if not hi > lo:
                continue
            cols = np.flatnonzero(inverse == u_idx)
            values += _direct_field(
                entry.values[cols], x[cols], entry.dx, table, (lo, hi), grid, sign
            )
    return OuterField(grid, values, first.space)


def embed_majorant(
    increments: SequenceSignal,
    anchors: np.ndarray,
    grid: TFSGrid,
    theta: tuple,
    config: EmbeddingConfig,
) -> OuterField:
    """Scalar majorant field from increment norms.

    At each node, the increment norms at sample x enter when the angular
    coordinate ``t (eta - anchor_j(x))`` lies in the window; the lattice
    r'-combination is then smeared in x by ``(1/t) <(x-y)/t>^{-N}`` and the
    sample quadrature weight.
    """
    first = increments.entries[0]
    x = first.grid()
    count = len(increments.entries)
    anchors = np.asarray(anchors, dtype=float)
    if anchors.shape != (first.n, count):
        raise ValueError(f"anchors must have shape {(first.n, count)}, got {anchors.shape}")
    lo, hi = map(float, theta)
    if not lo < hi:
        raise ConfigurationError("angular window must be a nonempty interval")
    norms = np.stack([norm_eval(e.values, e.space) for e in increments.entries])  # (J, n)
    rp = config.r_prime
    n_pow = None if math.isinf(rp) else norms**rp
    out = np.empty(grid.shape + (1,), dtype=complex)
    for k, t in enumerate(grid.t):
        u = (x[None, :] - grid.y[:, None]) / t
        kernel = (1.0 + u * u) ** (-0.5 * config.kernel_power) / t  # (n_y, n_x)
        ang = t * (grid.eta[:, None, None] - anchors.T)  # (n_eta, J, n)
        active = (ang > lo) & (ang < hi)
        if math.isinf(rp):
            amp = np.where(active, norms, 0.0).max(axis=1)
        else:
            amp = (np.where(active, n_pow, 0.0).sum(axis=1)) ** (1.0 / rp)
        out[:, :, k, 0] = (kernel @ amp[..., None])[..., 0] * first.dx
    return OuterField(grid, out, NormedSpace(1, 2.0))


def _ridge_windows(interval: tuple, eps: float, t: np.ndarray, sign: int) -> tuple:
    c_lo, c_hi = interval
    if sign == +1:
        lo = c_lo + (1.0 - eps) / t
        hi = np.minimum(c_hi - (1.0 - eps) / t, c_lo + (1.0 + eps) / t)
    else:
        lo = np.maximum(c_lo + (1.0 - eps) / t, c_hi - (1.0 + eps) / t)
        hi = c_hi - (1.0 - eps) / t
    return lo, hi


def check_dual_representation(
    signal: SampledSignal,
    dual: SampledSignal,
    interval: tuple,
    table: MultiplierTable,
    *,
    t_min: float = 0.3,
    t_max: float = 4.2,
    t_steps: int = 160,
    eta_per_window: int = 8,
) -> dict:
    """Frequency-interval increment as a two-sided packet superposition.

    The left side pairs the linearized increment with the dual signal by the
    sample quadrature.  The right side integrates the spectral pairing
    against both packet profiles over (eta, t), sampling eta by midpoints
    inside the ridge window of each scale and scales geometrically.  Both
    spectra must be carried by scales inside [t_min, t_max] for the
    representation to close; the residual quantifies the quadrature.
    """
    if signal.n != dual.n or signal.dx != dual.dx or signal.x0 != dual.x0:
        raise ValueError("signal and dual must share their sample grid")
    if signal.dim != dual.dim:
        raise ValueError("signal and dual must share the coordinate dimension")
    c_lo, c_hi = map(float, interval)
    if not (math.isfinite(c_lo) and math.isfinite(c_hi) and c_lo < c_hi):
        raise ConfigurationError(f"need a bounded interval, got {interval}")
    if not (0.0 < t_min < t_max < math.inf):
        raise ConfigurationError(f"need 0 < t_min < t_max < inf, got {t_min} and {t_max}")
    if t_steps < 8 or eta_per_window < 2:
        raise ConfigurationError("need t_steps >= 8 and eta_per_window >= 2")

    selection = FrequencySelection.constant([c_lo, c_hi], signal.n)
    increment = linearized_vc(signal, selection).entries[0]
    lhs = complex(duality_pairing(increment.values, dual.values).sum() * signal.dx)

    xi = _freq_grid(signal.n, signal.dx)
    f_hat = _dft_values(signal.values, signal.x0, signal.dx)
    g_hat = _dft_values(dual.values, dual.x0, dual.dx)
    dxi = 1.0 / (signal.n * signal.dx)
    cross = duality_pairing(f_hat, g_hat) * dxi  # (n_xi,)
    keep = np.abs(cross) > 0.0
    xi_band = xi[keep]
    cross_band = cross[keep]

    eps = table.spec.eps
    dlt = math.log(t_max / t_min) / t_steps
    scales = t_min * np.exp((np.arange(t_steps) + 0.5) * dlt)
    rhs = 0.0 + 0.0j
    nodes = 0
    for sign in (+1, -1):
        lo, hi = _ridge_windows((c_lo, c_hi), eps, scales, sign)
        live = hi > lo
        t, lo = scales[live][:, None], lo[live][:, None]
        width = hi[live][:, None] - lo
        etas = lo + (np.arange(eta_per_window) + 0.5) * width / eta_per_window  # (n_t, n_e)
        prof = packet_hat(
            table, (c_lo, c_hi), etas[..., None], t[..., None],
            t[..., None] * (xi_band - etas[..., None]), sign=sign,
        )
        row_sum = (cross_band * prof).sum(axis=-1)
        # a sequential sum in (t, eta) order, weights applied one at a time:
        # pairwise summation or a folded weight would move rhs's last bits
        for term in (row_sum * (width / eta_per_window) * (t * dlt)).ravel():
            rhs += term
        nodes += row_sum.size
    abs_err = abs(lhs - rhs)
    rel_err, _ = _ratio(abs_err, abs(lhs))
    return {
        "lhs": lhs,
        "rhs": rhs,
        "abs_err": abs_err,
        "rel_err": rel_err,
        "nodes": nodes,
        "t_steps": t_steps,
        "eta_per_window": eta_per_window,
    }


def domination_dictionaries(
    grid: TFSGrid,
    table: MultiplierTable,
    *,
    eta_stride: int = 2,
    y_stride: int = 2,
) -> dict:
    """Per-sign tree dictionaries with the matching angular windows."""
    out = {}
    for sign in (+1, -1):
        theta, theta_in = theta_windows(table, sign)
        out[sign] = TreeDictionary.build(
            grid, theta, theta_in, eta_stride=eta_stride, y_stride=y_stride
        )
    return out


def check_domination(
    sequence: SequenceSignal,
    selection: FrequencySelection,
    grid: TFSGrid,
    config: EmbeddingConfig,
    *,
    dictionaries: dict,
    excluded: np.ndarray | None = None,
) -> dict:
    """Masked outer-size comparison of packet embeddings against the majorant.

    For each truncation sign the packet embedding of the sequence, zeroed on
    the excluded tree union, is measured in the composite size with the
    in-average part over the sign's tree dictionary.  The denominator is the
    sup-size of the majorant built from the same sequence (anchored at the
    lower cutoffs for the right truncation, the upper ones for the left),
    under both readings of its mask: zeroed on the same excluded union
    ("masked") and left whole ("full").  A zero denominator against a
    nonzero numerator is flagged as a violation; zero against zero counts
    as vacuous.  ``dictionaries`` maps each sign to its tree dictionary, as
    built by :func:`domination_dictionaries`.
    """
    table = config.table
    levels = selection.levels
    # a boolean mask: ~ of an integer mask is nonzero everywhere and would exclude nothing
    if excluded is not None and (excluded.shape != grid.shape or excluded.dtype != bool):
        raise ValueError(
            f"excluded must be a boolean mask of grid shape {grid.shape}, "
            f"got {excluded.dtype} of shape {excluded.shape}"
        )
    keep = None if excluded is None else ~excluded
    out: dict = {}
    vacuous = True
    violation = False
    for sign, anchor_cols in ((+1, levels[:, :-1]), (-1, levels[:, 1:])):
        label = "plus" if sign == +1 else "minus"
        theta, _ = theta_windows(table, sign)
        trees = dictionaries[sign]
        packets = embed_packet_sequence(sequence, table, selection, grid, sign=sign)
        if keep is not None:
            packets = packets.restrict(keep)
        num = outer_size(packets, trees, SizeSpec("fstar"))
        majorant = embed_majorant(sequence, anchor_cols, grid, theta, config)
        sup_spec = SizeSpec("lp", math.inf, "full")
        denom_full = outer_size(majorant, trees, sup_spec)
        denom_masked = (
            denom_full if keep is None else outer_size(majorant.restrict(keep), trees, sup_spec)
        )
        out[f"{label}_numerator"] = num
        out[f"{label}_denominator_full"] = denom_full
        out[f"{label}_denominator_masked"] = denom_masked
        for reading, denom in (("full", denom_full), ("masked", denom_masked)):
            ratio, degenerate = _ratio(num, denom)
            violation = violation or degenerate
            out[f"{label}_{reading}_ratio"] = ratio
        vacuous = vacuous and num == 0.0 and denom_full == 0.0
    out["finite"] = all(
        math.isfinite(v) for k, v in out.items() if isinstance(v, float) and k.endswith("_ratio")
    )
    out["violation"] = violation
    out["vacuous"] = vacuous
    return out


_FIELD_MAGIC = "vcfield v1"


def dump_field(field: OuterField, path) -> None:
    """Write a field as a one-line JSON header plus row-major complex bytes."""
    header = {
        "format": _FIELD_MAGIC,
        "eta": field.grid.eta.tolist(),
        "y": field.grid.y.tolist(),
        "t": field.grid.t.tolist(),
        "dim": field.space.dim,
        "exponent": field.space.exponent,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(field.values, dtype=np.complex128).tobytes())


def load_field(path) -> OuterField:
    """Inverse of :func:`dump_field`."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        raw = fh.read()
    try:
        header = json.loads(header_line.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        header = None
    if not isinstance(header, dict) or header.get("format") != _FIELD_MAGIC:
        raise ConfigurationError(f"not a field dump: bad format tag in {path}")
    missing = [key for key in ("eta", "y", "t", "dim", "exponent") if key not in header]
    if missing:
        raise ConfigurationError(f"field dump header lacks {', '.join(missing)} in {path}")
    try:
        grid = TFSGrid(header["eta"], header["y"], header["t"])
        space = NormedSpace(header["dim"], header["exponent"])
    except ConfigurationError as exc:
        raise ConfigurationError(f"field dump header has a malformed value ({exc}) in {path}")
    shape = grid.shape + (space.dim,)
    want = math.prod(shape) * np.dtype(np.complex128).itemsize
    if len(raw) != want:
        raise ConfigurationError(
            f"field dump payload has {len(raw)} bytes, header needs {want}, in {path}"
        )
    values = np.frombuffer(raw, dtype=np.complex128).reshape(shape)
    return OuterField(grid, values, space)
