"""Grid oracle that the only-origin certifier is checked against in tests."""

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from jacgate import CertConfig, Polynomial
from jacgate.certify import _newton_witness, _sphere_poly
from jacgate.floatval import FloatPoly, FloatSystem


def _values(fp: FloatPoly, points: np.ndarray) -> np.ndarray:
    """Evaluate ``fp`` at a batch of points, shape (count, n)."""
    if fp.coeffs.size == 0:
        return np.zeros(points.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        return np.prod(points[:, np.newaxis, :] ** fp.exps[np.newaxis, :, :], axis=2) @ fp.coeffs


def brute_force_scan(
    system: Sequence[Polynomial],
    resolution: int,
    rho: float = 1e-10,
    tau: float = 1e-8,
    refine_top: int = 12,
) -> tuple[Fraction, ...] | tuple[float, ...] | None:
    """Scan primitive lattice directions on the sphere.

    Normalizes every primitive integer direction with coordinates in
    [-resolution, resolution] onto the unit sphere, ranks them by the
    squared residual of the system, and Newton-refines the best few.
    Returns a verified witness or None.
    """
    if not system:
        raise ValueError("empty system")
    n = system[0].n
    directions: set[tuple[int, ...]] = set()

    def rec(prefix: list[int]):
        if len(prefix) == n:
            if any(prefix):
                g = math.gcd(*(abs(v) for v in prefix))
                directions.add(tuple(v // g for v in prefix))
            return
        for v in range(-resolution, resolution + 1):
            rec(prefix + [v])

    rec([])
    ordered = sorted(directions)
    matrix = np.array(ordered, dtype=np.float64)
    matrix /= np.linalg.norm(matrix, axis=1)[:, np.newaxis]
    score = np.zeros(matrix.shape[0])
    for p in system:
        score += _values(FloatPoly(p), matrix) ** 2
    scored = [
        (float(score[i]), tuple(matrix[i].tolist())) for i in range(matrix.shape[0])
    ]
    scored.sort(key=lambda item: (item[0], item[1]))

    cfg = CertConfig(rho=rho, tau=tau)
    augmented = FloatSystem(list(system) + [_sphere_poly(n)])
    for _, start in scored[:refine_top]:
        outcome = _newton_witness(system, augmented, start, cfg)
        if outcome is not None:
            return outcome.witness
    return None
