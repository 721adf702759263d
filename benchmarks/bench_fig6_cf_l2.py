"""Figure 6b: counterfactual (l2) runtimes on digit images.

Paper workload: MNIST rescaled to side lengths 12..28, N in 250..1000,
closest l2 counterfactual via the Theorem 2 convex program (cvxpy in the
paper, our active-set QP here).  Scaled grid: sides {8, 12, 16}, N in
{50, 100, 150}.  For k = 1 there is one Proposition-1 piece per
opposite-class point, but the bound-ordered sweep projects only the few
whose halfspace lower bound can beat the best candidate; what grows with
N is computing the bounds (one bisector row per pair of opposite-class
points, quadratic in N, cheap vectorized work), so the QP count stays
nearly flat.  The paper's
Figure 6b, where this task is the cheaper of the two panels, grows
roughly linearly because it solves one program per piece.
"""

from __future__ import annotations

import pytest

from repro.counterfactual import closest_counterfactual
from repro.datasets import DigitImages

SIDES = [8, 12, 16]
SIZES = [50, 100, 150]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("side", SIDES)
def test_fig6b_counterfactual_l2(benchmark, rng, side, size):
    images = DigitImages.generate(rng, digits=(4, 9), count_per_digit=size // 2, side=side)
    data = images.to_dataset(positive_digit=4)
    query = DigitImages.generate(rng, digits=(4,), count_per_digit=1, side=side)
    x = query.flattened()[0]

    def task():
        return closest_counterfactual(data, 1, "l2", x)

    result = benchmark.pedantic(task, rounds=2, iterations=1, warmup_rounds=0)
    assert result.found
