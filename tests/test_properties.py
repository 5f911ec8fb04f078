"""Property tests over random meshes and random polynomial forms."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from declab import Poly2, PolyForm, de_rham, exterior_derivative, perturbed_mesh  # noqa: E402

MAX_DEGREE = 4
_POWERS = np.arange(MAX_DEGREE + 1)
_IN_DEGREE = np.add.outer(_POWERS, _POWERS) <= MAX_DEGREE  # x^i y^j, i + j <= 4
N_COEFFS = int(_IN_DEGREE.sum())


def _poly(coeffs: list[float]) -> Poly2:
    c = np.zeros(_IN_DEGREE.shape)
    c[_IN_DEGREE] = coeffs
    return Poly2(c)


polys = st.lists(
    st.floats(-2.0, 2.0, allow_nan=False), min_size=N_COEFFS, max_size=N_COEFFS
).map(_poly)
meshes = st.builds(
    perturbed_mesh,
    st.integers(2, 3),
    st.integers(0, 2**63),
    st.floats(0.0, 0.3, exclude_max=True),
)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(K=meshes, k=st.sampled_from([0, 1]), comps=st.lists(polys, min_size=2, max_size=2))
def test_de_rham_commutes_with_d(K, k, comps):
    """D_k Pi w = Pi dw for polynomial k-forms of degree <= 4."""
    w = PolyForm(k, tuple(comps[: k + 1]))
    lhs = K.coboundary_matrix(k) @ de_rham(K, w)
    rhs = de_rham(K, exterior_derivative(w))
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1.0)
