"""Coordinate spaces, sampled signals, and signal generators.

Vector-valued functions on the line are modeled as uniformly sampled arrays:
a signal carries its grid (``x0``, ``dx``, ``n`` samples) together with a
:class:`NormedSpace` fixing the coordinate dimension ``d`` and the l^p norm
used for every vector magnitude downstream.  All arrays are complex and are
frozen after construction; operators return new objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "ConfigurationError",
    "NormedSpace",
    "SampledSignal",
    "SequenceSignal",
    "FrequencySelection",
    "dual_exponent",
    "norm_eval",
    "duality_pairing",
    "make_signal",
]


class ConfigurationError(ValueError):
    """Structurally invalid parameters (maps to CLI exit code 2)."""


def _as_float(name: str, value) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be a real number, got {value!r}") from exc
    if math.isnan(out):
        raise ConfigurationError(f"{name} must not be NaN")
    return out


def dual_exponent(p: float) -> float:
    """The conjugate exponent p' = p/(p-1), with inf' = 1 and p' = inf for p <= 1."""
    if math.isinf(p):
        return 1.0
    if p <= 1.0:
        return math.inf
    return p / (p - 1.0)


@dataclass(frozen=True)
class NormedSpace:
    """The coordinate space C^d with the l^p norm, 1 <= p <= inf."""

    dim: int
    exponent: float = 2.0

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ConfigurationError(f"dim must be a positive integer, got {self.dim!r}")
        p = _as_float("exponent", self.exponent)
        if p < 1.0:
            raise ConfigurationError(f"exponent must satisfy p >= 1, got {p}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "exponent", p)


def _coerce_vectors(v, dim: int) -> np.ndarray:
    a = np.asarray(v, dtype=complex)
    if a.ndim == 0:
        raise ValueError("expected at least one coordinate axis")
    if a.shape[-1] != dim:
        raise ValueError(f"last axis has length {a.shape[-1]}, space has dim {dim}")
    return a


def _fold(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc`` folded over the last axis left to right, one coordinate at a time."""
    out = a[..., 0]
    for k in range(1, a.shape[-1]):
        out = ufunc(out, a[..., k])
    return out


def norm_eval(v, space: NormedSpace) -> np.ndarray | float:
    """l^p norm of ``v`` along its last axis.

    Accepts a single vector of length ``space.dim`` or any batch shaped
    ``(..., dim)``; returns a float or an array of the leading shape.
    Non-finite entries raise ``ValueError``.

    ``abs``, the division and the power act on the whole array; the sum or
    max over the d coordinates is a left-to-right fold, one whole-batch
    ``np.add``/``np.maximum`` per coordinate, which is far cheaper than a
    reduction along a short last axis.  For d <= 7 the fold equals numpy's
    ``.sum(axis=-1)`` bit for bit (numpy sums fewer than 8 terms in order);
    for d >= 8 numpy sums pairwise, so the last bits may differ from it.
    """
    a = _coerce_vectors(v, space.dim)
    if not np.all(np.isfinite(a)):
        raise ValueError("norm_eval requires finite entries")
    mags = np.abs(a)
    p = space.exponent
    if math.isinf(p):
        out = _fold(np.maximum, mags)
    elif p == 1.0:
        out = _fold(np.add, mags)
    elif p == 2.0:
        out = np.sqrt(_fold(np.add, mags * mags))
    else:
        # scale by the max to keep x**p in range for large p
        top = _fold(np.maximum, mags)
        safe = np.where(top > 0.0, top, 1.0)
        out = top * _fold(np.add, (mags / safe[..., None]) ** p) ** (1.0 / p)
    return float(out) if out.ndim == 0 else out


def duality_pairing(v, w) -> np.ndarray | complex:
    """Bilinear-in-the-first-slot pairing sum_k v_k * conj(w_k) over the last axis."""
    a = np.asarray(v, dtype=complex)
    b = np.asarray(w, dtype=complex)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"coordinate counts differ: {a.shape[-1]} vs {b.shape[-1]}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("duality_pairing requires finite entries")
    out = (a * np.conj(b)).sum(axis=-1)
    return complex(out) if out.ndim == 0 else out


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SampledSignal:
    """Uniform samples of a C^d-valued function on [x0, x0 + n*dx)."""

    x0: float
    dx: float
    values: np.ndarray  # (n, dim) complex
    space: NormedSpace

    def __post_init__(self):
        x0 = _as_float("x0", self.x0)
        dx = _as_float("dx", self.dx)
        if not (dx > 0.0 and math.isfinite(dx)) or not math.isfinite(x0):
            raise ConfigurationError(f"need finite x0 and dx > 0, got x0={x0}, dx={dx}")
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2:
            raise ConfigurationError(f"values must be (n, d), got shape {vals.shape}")
        if vals.shape[0] < 2:
            raise ConfigurationError("need at least 2 samples")
        if vals.shape[1] != self.space.dim:
            raise ConfigurationError(
                f"values have {vals.shape[1]} coordinates, space has dim {self.space.dim}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("signal values must be finite")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.space.dim

    def grid(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def with_values(self, values: np.ndarray) -> "SampledSignal":
        """Same grid and space, new sample values."""
        return SampledSignal(self.x0, self.dx, values, self.space)


@dataclass(frozen=True)
class SequenceSignal:
    """A finite tuple of signals sharing one grid and one space."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise ConfigurationError("SequenceSignal needs at least one entry")
        first = entries[0]
        for k, s in enumerate(entries):
            if not isinstance(s, SampledSignal):
                raise ConfigurationError(f"entry {k} is not a SampledSignal")
            same = (
                s.n == first.n
                and s.space == first.space
                and math.isclose(s.x0, first.x0, rel_tol=0.0, abs_tol=0.0)
                and math.isclose(s.dx, first.dx, rel_tol=0.0, abs_tol=0.0)
            )
            if not same:
                raise ConfigurationError(f"entry {k} disagrees with entry 0 on grid or space")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, j: int) -> SampledSignal:
        return self.entries[j]

    def stack(self) -> np.ndarray:
        """All entries as one (J, n, d) array."""
        return np.stack([s.values for s in self.entries], axis=0)


@dataclass(frozen=True)
class FrequencySelection:
    """Per-sample nondecreasing cutoff sequences c_0(x) <= ... <= c_J(x)."""

    levels: np.ndarray  # (n, J+1) real

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=float)
        if lv.ndim != 2 or lv.shape[1] < 2:
            raise ValueError(f"levels must be (n, J+1) with J >= 1, got shape {lv.shape}")
        if not np.all(np.isfinite(lv)):
            raise ValueError("selection levels must be finite")
        if np.any(np.diff(lv, axis=1) < 0.0):
            raise ValueError("selection levels must be nondecreasing along each row")
        object.__setattr__(self, "levels", _freeze(lv))

    @property
    def n(self) -> int:
        return self.levels.shape[0]

    @property
    def steps(self) -> int:
        """Number of increments J."""
        return self.levels.shape[1] - 1

    @classmethod
    def constant(cls, cutoffs: Sequence[float], n: int) -> "FrequencySelection":
        row = np.asarray(list(cutoffs), dtype=float)
        return cls(np.tile(row, (n, 1)))


# --- DFT conventions (shared with fourier.py) -------------------------------
#
# Frequencies xi_k = k/(n*dx) for k = -n/2 .. n/2 - 1, ascending.
# Analysis:   fhat(xi_k) = dx * sum_j f(x_j) exp(-2 pi i xi_k x_j)
# Synthesis:  f(x_j) = dxi * sum_k fhat(xi_k) exp(+2 pi i xi_k x_j)
# with dxi = 1/(n*dx).  Both are exact inverses of each other.


def _freq_grid(n: int, dx: float) -> np.ndarray:
    return np.fft.fftshift(np.fft.fftfreq(n, d=dx))


def _dft_values(values: np.ndarray, x0: float, dx: float) -> np.ndarray:
    n = values.shape[0]
    xi = _freq_grid(n, dx)
    raw = np.fft.fftshift(np.fft.fft(values, axis=0), axes=0)
    phase = np.exp(-2j * np.pi * xi * x0) * dx
    return raw * phase[:, None]


def _idft_values(coeffs: np.ndarray, x0: float, dx: float) -> np.ndarray:
    n = coeffs.shape[0]
    xi = _freq_grid(n, dx)
    raw = coeffs * (np.exp(2j * np.pi * xi * x0) / dx)[:, None]
    return np.fft.ifft(np.fft.ifftshift(raw, axes=0), axis=0)


def _direction(params: dict, space: NormedSpace) -> np.ndarray:
    d = space.dim
    if "direction" in params:
        vec = np.asarray(params.pop("direction"), dtype=complex)
        if vec.shape != (d,):
            raise ConfigurationError(f"direction must have shape ({d},), got {vec.shape}")
        if not np.all(np.isfinite(vec)) or np.all(vec == 0):
            raise ConfigurationError("direction must be finite and nonzero")
        return vec
    vec = np.zeros(d, dtype=complex)
    vec[0] = 1.0
    return vec


def make_signal(
    kind: str,
    params: Mapping | None = None,
    *,
    n: int = 256,
    dx: float = 1.0 / 16.0,
    space: NormedSpace | None = None,
    seed: int | None = None,
) -> SampledSignal:
    """Deterministic test-signal factory on the centred grid x0 = -n*dx/2.

    Two kinds: ``gaussian`` (params center, sigma, direction), which must
    decay below 1e-12 (relative) at the grid edges or a ConfigurationError
    is raised, and ``bandlimited-random`` (band; requires ``seed``;
    independent Gaussian DFT coefficients per coordinate, exactly zero
    outside the band).
    """
    params = dict(params or {})
    space = space or NormedSpace(1, 2.0)
    n = int(n)
    if n < 2:
        raise ConfigurationError(f"need n >= 2 samples, got {n}")
    dx = _as_float("dx", dx)
    if dx <= 0:
        raise ConfigurationError(f"need dx > 0, got {dx}")
    x0 = -0.5 * n * dx
    x = x0 + dx * np.arange(n)
    nyquist = 0.5 / dx

    if kind == "gaussian":
        sigma = _as_float("sigma", params.pop("sigma", 1.0))
        center = _as_float("center", params.pop("center", 0.0))
        if sigma <= 0:
            raise ConfigurationError(f"sigma must be positive, got {sigma}")
        vec = _direction(params, space)
        profile = np.exp(-np.pi * ((x - center) / sigma) ** 2)
        values = profile[:, None] * vec[None, :]
        # generator contract: the grid edges sit below 1e-12 of the peak magnitude
        mags = np.abs(values).max(axis=1)
        peak, edge = mags.max(), max(mags[0], mags[-1])
        if peak == 0.0:
            raise ConfigurationError("gaussian: generated signal is identically zero")
        if edge > 1e-12 * peak:
            raise ConfigurationError(
                f"gaussian: grid too small, edge magnitude {edge:.3e} exceeds "
                f"1e-12 * peak ({peak:.3e}); widen the span or shrink the profile"
            )
    elif kind == "bandlimited-random":
        band = _as_float("band", params.pop("band", 0.5 * nyquist))
        if seed is None:
            raise ConfigurationError("bandlimited-random requires a seed")
        if not (0 < band < nyquist):
            raise ConfigurationError(f"band {band} must lie in (0, Nyquist={nyquist:.3g})")
        rng = np.random.default_rng(seed)
        xi = _freq_grid(n, dx)
        keep = np.abs(xi) <= band
        coeffs = np.zeros((n, space.dim), dtype=complex)
        k = int(keep.sum())
        coeffs[keep, :] = rng.standard_normal((k, space.dim)) + 1j * rng.standard_normal(
            (k, space.dim)
        )
        values = _idft_values(coeffs, x0, dx)
    else:
        raise ConfigurationError(f"signal kind {kind!r} is not gaussian or bandlimited-random")

    if params:
        raise ConfigurationError(f"unused parameters for kind {kind!r}: {sorted(params)}")
    return SampledSignal(x0, dx, values, space)
