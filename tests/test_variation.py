"""Variation norms: dynamic program vs exhaustive oracle plus algebraic laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varcarleson.core import NormedSpace, norm_eval
from varcarleson.variation import Path, variation_norm, variation_norm_bruteforce


def _path(points, p=2.0):
    pts = np.asarray(points, dtype=complex)
    dim = 1 if pts.ndim == 1 else pts.shape[1]
    return Path(pts, NormedSpace(dim, p))


def test_hand_values():
    # zigzag 0 -> 1 -> 0: two unit increments
    zig = _path([0.0, 1.0, 0.0])
    assert variation_norm(zig, 1.0) == pytest.approx(2.0, abs=1e-14)
    assert variation_norm(zig, 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert variation_norm(zig, 4.0) == pytest.approx(2.0 ** 0.25, abs=1e-14)
    # monotone path: single jump wins for every r > 1
    mono = _path([0.0, 0.25, 1.0])
    assert variation_norm(mono, 2.0) == pytest.approx(1.0, abs=1e-14)
    assert variation_norm(mono, 1.0) == pytest.approx(1.0, abs=1e-14)
    # right-angle steps in C^2 with the sup norm
    steps = _path([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], p=math.inf)
    assert variation_norm(steps, 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert norm_eval(steps.points, steps.space).max() == pytest.approx(1.0, abs=1e-15)


def test_degenerate_paths():
    single = _path([3.0 + 4.0j])
    assert variation_norm(single, 2.0) == 0.0
    assert variation_norm_bruteforce(single, 2.0) == 0.0
    assert norm_eval(single.points, single.space).max() == pytest.approx(5.0, abs=1e-14)
    flat = _path([2.0, 2.0, 2.0])
    assert variation_norm(flat, 1.5) == 0.0


def test_domain_errors():
    p = _path([0.0, 1.0])
    with pytest.raises(ValueError):
        variation_norm(p, 0.99)
    with pytest.raises(ValueError):
        variation_norm_bruteforce(p, 0.5)
    with pytest.raises(ValueError):
        variation_norm_bruteforce(_path(np.zeros(21)), 2.0)
    with pytest.raises(ValueError):
        Path(np.zeros((0, 1)), NormedSpace(1, 2.0))


def test_consecutive_sum_equals_first_variation():
    rng = np.random.default_rng(19)
    for _ in range(25):
        k = int(rng.integers(2, 30))
        d = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 2.0, np.inf]))
        pts = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
        path = Path(pts, NormedSpace(d, p))
        inc = pts[1:] - pts[:-1]
        from varcarleson.core import norm_eval

        total = float(norm_eval(inc, path.space).sum())
        assert variation_norm(path, 1.0) == pytest.approx(total, rel=1e-12, abs=1e-12)


def test_monotone_in_r_and_restriction():
    rng = np.random.default_rng(29)
    for _ in range(20):
        k = int(rng.integers(3, 16))
        pts = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
        path = Path(pts, NormedSpace(2, 2.0))
        values = [variation_norm(path, r) for r in (1.0, 1.5, 2.0, 3.0, 6.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values[:-1], values[1:]))
        # dropping points can only shrink the candidate set
        keep = np.sort(rng.choice(k, size=max(2, k // 2), replace=False))
        sub = Path(pts[keep], path.space)
        assert variation_norm(sub, 2.0) <= variation_norm(path, 2.0) + 1e-12


def test_scaling_and_translation():
    rng = np.random.default_rng(31)
    pts = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
    space = NormedSpace(3, 1.5)
    base = variation_norm(Path(pts, space), 2.5)
    assert variation_norm(Path(2.5 * pts, space), 2.5) == pytest.approx(2.5 * base, rel=1e-12)
    shift = rng.standard_normal(3)
    assert variation_norm(Path(pts + shift, space), 2.5) == pytest.approx(base, rel=1e-12)


def test_dp_matches_bruteforce_seeded():
    rng = np.random.default_rng(101)
    for trial in range(60):
        k = int(rng.integers(2, 11))
        d = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 1.5, 2.0, np.inf]))
        pts = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
        path = Path(pts, NormedSpace(d, p))
        for r in (1.0, 2.0, 2.5, 4.0):
            fast = variation_norm(path, r)
            slow = variation_norm_bruteforce(path, r)
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        ),
        min_size=2,
        max_size=8,
    ),
    st.sampled_from([1.0, 1.7, 2.0, 3.5]),
)
def test_dp_matches_bruteforce_hypothesis(pairs, r):
    pts = np.array([complex(a, b) for a, b in pairs])
    path = Path(pts, NormedSpace(1, 2.0))
    fast = variation_norm(path, r)
    slow = variation_norm_bruteforce(path, r)
    assert math.isclose(fast, slow, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False), min_size=2, max_size=12)
)
def test_triangle_in_path_concatenation(xs):
    # appending a point can only increase the variation
    pts = np.array(xs, dtype=complex)
    path_all = _path(pts)
    path_head = _path(pts[:-1]) if len(xs) > 2 else _path(pts[:1])
    assert variation_norm(path_all, 2.0) >= variation_norm(path_head, 2.0) - 1e-12
