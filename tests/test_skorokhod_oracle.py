"""Known answer: with constant sigma and zero drift in a box with normal
reflection, the reflected solution driven by a continuous path ``w`` is the
Skorokhod map ``Gamma(x0 + sigma w)``, coordinate by coordinate.

Both driving paths are piecewise linear, and on each linear piece every
coordinate of ``x0 + sigma w`` moves monotonically, so a march that adds
the increment and clips is exact at every step: the Wong-Zakai march gives
``Gamma(x0 + sigma W^n)`` at any substep count, and the reference gives
``Gamma(x0 + sigma W_fine)`` at the fine knots.  The oracle below computes
both from the Brownian knots alone, with no code from the solvers, and
checks the engine's per-path distances against them.
"""

import numpy as np
import pytest

import reflectedsde as rs
from reflectedsde import harness
from reflectedsde.brownian import restrict

T = 1.0
SEED = 41


def _skorokhod_box(z, lo, hi):
    """``Gamma(z)`` on ``[lo, hi]`` at the knots of ``z`` (``(K + 1, B, d)``,
    with ``z[0]`` in the box): exact for ``z`` linear between its knots."""
    y = np.empty_like(z)
    y[0] = z[0]
    for k in range(1, len(z)):
        y[k] = np.clip(y[k - 1] + (z[k] - z[k - 1]), lo, hi)
    return y


def _oracle(lo, hi, sigma, x0, levels, M, fine_margin):
    """Per-path ``sup_dist`` and ``final_dist`` of the exact solutions, on the
    engine's output grid (the knots of level ``max(levels)``)."""
    fine = max(levels) + fine_margin
    m = sigma.shape[1]
    paths = [rs.sample_path(m, T, fine, harness.path_seed(SEED, i)) for i in range(M)]
    w_fine = np.stack([p.values for p in paths], axis=1)  # (K + 1, M, m)
    t_fine = np.arange(len(w_fine)) / 2.0**fine

    def solution(w):
        return _skorokhod_box(x0 + w @ sigma.T, lo, hi)

    reference = solution(w_fine)
    out = slice(None, None, 2 ** (fine - max(levels)))
    sup_dist = np.empty((M, len(levels)))
    final_dist = np.empty((M, len(levels)))
    for j, n in enumerate(levels):
        knots = np.stack([restrict(p, n).values for p in paths], axis=1)
        # The lagged interpolant takes knot k - 1's value at knot k (zero at 0).
        lagged = np.concatenate([np.zeros_like(knots[:1]), knots[:-1]])
        t_knots = np.arange(len(knots)) / 2.0**n
        w_n = np.empty_like(w_fine)
        for b in range(M):
            for c in range(m):
                w_n[:, b, c] = np.interp(t_fine, t_knots, lagged[:, b, c])
        dist = np.linalg.norm(solution(w_n) - reference, axis=2)
        sup_dist[:, j] = dist[out].max(axis=0)
        final_dist[:, j] = dist[-1]
    return sup_dist, final_dist


CASES = {
    "interval": (rs.interval(-1.0, 1.0), [-1.0], [1.0], [[0.9]], [0.3]),
    "box": (rs.box([0.0, 0.0], [1.0, 1.0]), [0.0, 0.0], [1.0, 1.0],
            [[0.6, 0.3], [-0.2, 0.5]], [0.5, 0.4]),
}


@pytest.mark.parametrize("substeps", [1, 8])
@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_matches_skorokhod_map(case, substeps):
    domain, lo, hi, sigma, x0 = CASES[case]
    sigma = np.asarray(sigma)
    levels, M, fine_margin = (2, 3, 4), 6, 3
    stats = rs.run_coupling_stats(
        rs.Study(domain, rs.constant(sigma), x0, T, levels, M, fine_margin, substeps, SEED)
    )
    sup_dist, final_dist = _oracle(
        np.asarray(lo), np.asarray(hi), sigma, np.asarray(x0), levels, M, fine_margin
    )
    # Most paths reflect, so the check covers the boundary as well.
    assert np.mean(stats.ref_var_final > 0) > 0.5
    np.testing.assert_allclose(stats.sup_dist, sup_dist, rtol=0, atol=1e-12)
    np.testing.assert_allclose(stats.final_dist, final_dist, rtol=0, atol=1e-12)


def test_exact_level_is_free_of_the_level_set():
    # Where both marches are exact, a level's terminal distance does not
    # depend on the other levels of the study.  Its sup distance is taken
    # over the knots of max(levels), so only final_dist is compared.
    domain, _, _, sigma, x0 = CASES["box"]
    coeffs = rs.constant(sigma)
    few = rs.run_coupling_stats(rs.Study(domain, coeffs, x0, T, (4, 5), 4, 8, 8, SEED))
    many = rs.run_coupling_stats(rs.Study(domain, coeffs, x0, T, (4, 9), 4, 4, 8, SEED))
    np.testing.assert_allclose(few.final_dist[:, 0], many.final_dist[:, 0], rtol=0, atol=1e-12)
