import math

import numpy as np
import pytest

from smallpoly.reduced import ReducedParams, expand_angles


def make_sampler(seed=0, n_max=40, r_max=6):
    """Random feasible angle vectors via the reduced family.

    Drawing the free parameters inside their boxes and building the point,
    which derives the tail angle and final asymmetry, guarantees both the
    quarter-turn sum and the chain closure, which is what "feasible" means
    for these polygons.
    """
    rng = np.random.default_rng(seed)

    def sample():
        for _ in range(100):
            n = 2 * int(rng.integers(3, n_max // 2 + 1))
            r = int(rng.integers(0, min(r_max, (n - 4) // 2) + 1))
            alpha, betas, gammas = math.pi / (2 * n - 2), (), ()
            if r > 0:
                nb = r // 2 if r % 2 == 0 else (r - 1) // 2
                ng = (r + 1) // 2 - 1
                alpha = rng.uniform(math.pi / (2 * n - 2), math.pi / n)
                betas = tuple(rng.uniform(math.pi / n, 2 * math.pi / n, nb))
                gammas = tuple(rng.uniform(0.0, math.pi / n, ng))
            try:
                params = ReducedParams(
                    n=n, r=r, alpha=alpha, betas=betas, gammas_free=gammas
                )
                angles = expand_angles(params)
            except ValueError:
                continue
            return params, angles
        raise RuntimeError("sampler failed to find a feasible draw in 100 tries")

    return sample


@pytest.fixture
def feasible_sampler():
    return make_sampler(seed=20240817)


def brute_force_diameter(points, block=256) -> float:
    """The largest distance over all pairs, a test oracle only.

    O(n^2) time; the rows are taken ``block`` at a time, which keeps memory
    at O(n * block) and changes no distance.  Each block's largest squared
    distance takes one ``sqrt``, which is monotone, so the maximum is the
    same as that of the distances.
    """
    pts = np.asarray(points, dtype=float)
    x, y = pts.T
    best = []
    for start in range(0, len(pts), block):
        dx = x[start : start + block, None] - x[None, :]
        dy = y[start : start + block, None] - y[None, :]
        best.append(np.sqrt((dx * dx + dy * dy).max()))
    return float(np.max(best))


def mp_walk_oracle(S, mp, components=None):
    """The triangle sum of ``walk_chain`` and its gradient in S, in mpmath.

    The caller sets the precision (``mp.workdps(50)``).  The chain takes the
    steps (-1)^j (sin S_j, cos S_j) at the partial sums S, as given; the
    gradient entries j in ``components`` (all by default) are central
    differences in S_j with step 1e-20, whose truncation (about 1e-40) and
    rounding (about 1e-30) errors are far below a double's.
    """
    m = len(S)
    exact = [mp.mpf(s) for s in S]

    def step(j, s):
        sign = -1 if j % 2 else 1
        return sign * mp.sin(s), sign * mp.cos(s)

    def triangle_sum(steps):
        x, y = [mp.mpf(0)], [mp.mpf(0)]
        for p, q in steps:
            x.append(x[-1] + p)
            y.append(y[-1] + q)
        return x[1] + mp.fsum(x[k + 1] * y[k - 1] - y[k + 1] * x[k - 1] for k in range(2, m))

    steps = [step(j, s) for j, s in enumerate(exact)]
    h = mp.mpf("1e-20")

    def moved(j, d):
        return triangle_sum(steps[:j] + [step(j, exact[j] + d)] + steps[j + 1 :])

    grad = [
        (moved(j, h) - moved(j, -h)) / (2 * h)
        for j in (range(m) if components is None else components)
    ]
    return triangle_sum(steps), grad
