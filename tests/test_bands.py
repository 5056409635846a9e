"""A segment's matrices held as their structure.

``build_segment_objective`` gives one coordinate's Hessian as a ``Band`` (its
diagonal and superdiagonal) and ``segment_equalities`` gives A_1 as
``DynamicsRows`` (the Euler rows and the pins).  Every product, the KKT
inverse and the start's projection must give what the expanded matrices give
(``np.asarray``), and no solve of a segment may expand them.
"""

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from trajsplit import nlp  # noqa: E402
from trajsplit.admm import SplitConfig, run  # noqa: E402
from trajsplit.cli import bundled_scenario_dir  # noqa: E402
from trajsplit.nlp import (  # noqa: E402
    ConsensusCoupling,
    FactorCache,
    build_segment_objective,
    convexify_segment,
    kkt_inverse,
    project_to_affine,
    segment_equalities,
    segment_layout,
)
from trajsplit.scenario_io import load_scenario  # noqa: E402

from conftest import dense, stretched  # noqa: E402

SCENARIOS = {name: load_scenario(bundled_scenario_dir() / name)
             for name in ("circle_blocked.yaml", "arm_two_link.yaml", "arm_three_link.yaml")}


@st.composite
def segments(draw):
    """A segment's blocks: point or arm, with or without dynamics, both ends pinned, one or
    neither, each unpinned end coupled or not, at one of several rho; long enough, at times,
    to hold ``MIN_PIVOTS`` velocity pivots."""
    scenario = SCENARIOS[draw(st.sampled_from(sorted(SCENARIOS)))]
    length = draw(st.integers(2, 12) | st.integers(nlp.MIN_PIVOTS, nlp.MIN_PIVOTS + 8))
    count = draw(st.integers(max(length, 3), length + 6))
    scenario = replace(scenario, num_waypoints=count, dynamics_enabled=draw(st.booleans()))
    first = draw(st.sampled_from(sorted({0, min(1, count - length), count - length})))
    last = first + length - 1
    sd = 2 * scenario.dim if scenario.dynamics_enabled else scenario.dim
    ends = [k for k, pinned in ((0, first == 0), (length - 1, last == count - 1)) if not pinned]
    couplings = [ConsensusCoupling(k, np.ones(sd), np.zeros(sd)) for k in ends if draw(st.booleans())]
    rho = draw(st.sampled_from([0.5, 2.0, 50.0]))
    hessian = build_segment_objective(scenario, first, last, couplings, rho).hessian_matrix
    a_eq, b_eq = segment_equalities(scenario, first, last)
    return scenario.dim, hessian, a_eq, b_eq, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@given(segments())
def test_structured_blocks_match_their_expanded_form(segment):
    d, hessian, a_eq, b_eq, rng = segment
    assert isinstance(hessian, nlp.Band) and isinstance(a_eq, nlp.DynamicsRows)
    h, a = np.asarray(hessian), np.asarray(a_eq)
    assert h.shape == hessian.shape and a.shape == a_eq.shape
    np.testing.assert_array_equal(h, h.T)
    assert np.all(np.count_nonzero(a, axis=1) <= 3)

    # products, one column per coordinate
    x, w = rng.normal(size=(h.shape[0], d)), rng.normal(size=(a.shape[0], d))
    np.testing.assert_allclose(hessian @ x, h @ x, rtol=1e-13, atol=1e-13 * np.abs(h).max())
    np.testing.assert_allclose(a_eq @ x, a @ x, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(a_eq.rmatmat(w), a.T @ w, rtol=1e-13, atol=1e-13)

    # the KKT buffer holds the same entries, so the inverse is the same bit for bit
    got, want = kkt_inverse(hessian, a_eq, d, 1e-10), kkt_inverse(h, a, d, 1e-10)
    assert got.pseudo == want.pseudo
    np.testing.assert_array_equal(got.block, want.block)

    # the structured projection is the dense least-norm step
    start = rng.normal(size=h.shape[0] * d)
    projected = project_to_affine(start, a_eq, b_eq)
    expanded = dense(a, d)
    want = start + np.linalg.lstsq(expanded, b_eq - expanded @ start, rcond=None)[0]
    np.testing.assert_allclose(projected, want, rtol=0, atol=1e-11 * (1 + np.abs(want).max()))


def test_factor_cache_entry_holds_bands_not_matrices():
    # mono N=640: the dense Hessian (1280^2 doubles) and a_eq (643 x 1280) took 19.7 MB
    scenario = stretched("circle_blocked.yaml", 640)
    factors = FactorCache(scenario)
    convexify_segment(scenario, 0, 639, np.zeros(segment_layout(scenario, 0, 639).size), factors=factors)
    (hessian, a_eq, b_eq, *_), = factors.segments.values()
    held = [array for part in (hessian, a_eq, b_eq)
            for array in ([part] if isinstance(part, np.ndarray) else vars(part).values())
            if isinstance(array, np.ndarray)]
    assert sum(array.nbytes for array in held) < 64e3


@pytest.mark.parametrize("name, splits", [("circle_blocked.yaml", 0), ("circle_blocked.yaml", 3),
                                          ("arm_two_link.yaml", 2)])
def test_runs_never_expand_a_segment_block(monkeypatch, name, splits):
    def expanded(self, dtype=None, copy=None):
        raise AssertionError(f"{type(self).__name__} of shape {self.shape} expanded")

    monkeypatch.setattr(nlp._Block, "__array__", expanded)
    report = run(SCENARIOS[name], SplitConfig(num_splits=splits))
    assert report.converged
