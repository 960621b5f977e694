"""Classical and quantum information measures (all logarithms base 2): the
reference implementations that the tests check `qrx.hadamard`'s rates and
capacities against."""

from __future__ import annotations

import numpy as np

#: eigenvalues below this are dropped from entropy sums (log singularity,
#: negligible mass)
_ENTROPY_EIG_TOL = 1e-14


def _xlog2x(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p, dtype=float)
    mask = p > 0
    out[mask] = p[mask] * np.log2(p[mask])
    return out


def shannon_entropy(dist) -> float:
    """H(p) in bits; h(0) = 0 enforced."""
    p = np.asarray(dist, dtype=float)
    if np.any(p < -1e-12):
        raise ValueError("negative probability")
    if abs(p.sum() - 1.0) > 1e-10:
        raise ValueError(f"weights sum to {p.sum()}, not 1")
    return float(-_xlog2x(np.clip(p, 0.0, None)).sum())


def mutual_information(joint) -> float:
    """I(X:Y) in bits from a joint probability matrix p(x, y)."""
    pxy = np.asarray(joint, dtype=float)
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    return float(shannon_entropy(px) + shannon_entropy(py) - shannon_entropy(pxy.ravel()))


def spectrum_entropy(eigs) -> float:
    """Entropy of a (sub)normalized spectrum, dropping tiny eigenvalues."""
    w = np.asarray(eigs, dtype=float)
    w = w[w > _ENTROPY_EIG_TOL]
    return float(-_xlog2x(w).sum())


def von_neumann_entropy(rho: np.ndarray) -> float:
    m = np.asarray(rho, dtype=complex)
    return spectrum_entropy(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))


def holevo_chi(ensemble) -> float:
    """chi = S(sum_x p_x rho_x) - sum_x p_x S(rho_x) for [(rho, p), ...]."""
    mats = [(np.asarray(r, complex), p) for r, p in ensemble]
    d = max(m.shape[0] for m, _ in mats)
    avg = np.zeros((d, d), dtype=complex)
    s_avg = 0.0
    for m, p in mats:
        avg[: m.shape[0], : m.shape[0]] += p * m
        s_avg += p * von_neumann_entropy(m)
    return von_neumann_entropy(avg) - s_avg

