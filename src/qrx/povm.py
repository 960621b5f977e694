"""POVMs and their binary-tree decomposition: a POVM read from JSON is split
into nested two-outcome measurements, rebuilt from them, and checked for
weak completeness, as `tree-decompose` reports it.

Operators are plain complex matrices, and the matrix functions below also
take stacks of them (shape (..., d, d)).  Binary outcome strings use
little-endian bit order: label l = sum_u 2^(u-1) k_u, k_1 being the first
measured bit.

The tree is a list of `depth` level arrays.  Level u (`levels[u - 1]`) has
shape (2^u, d, d); its row c holds B^(u) of the node whose first u outcome
bits have the code c = sum_{v<=u} 2^(v-1) k_v.  That node's parent is row
c mod 2^(u-1) of level u - 1, and the two children of parent p are rows p
(k_u = 0) and p + 2^(u-1) (k_u = 1).  The last level's rows are the leaves,
in label order; those past the POVM's own outcomes are zero padding.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from math import ceil, log2

import numpy as np

#: support-projector threshold; eigenvalues in the gray zone up to
#: GRAY_ZONE_TOL trigger a warning because pseudo-inverse stability dominates
#: the round-trip accuracy of the tree decomposition
CLAMP_TOL = 1e-12
GRAY_ZONE_TOL = 1e-9


def _as_matrix(x) -> np.ndarray:
    return np.asarray(x, dtype=complex)


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _eigh_clamped(m: np.ndarray, warn: bool = True):
    """Eigendecomposition of the Hermitian part of m; one warning counts the
    gray-zone eigenvalues of the whole stack."""
    w, u = np.linalg.eigh(0.5 * (m + _dagger(m)))
    if warn:
        gray = (np.abs(w) >= CLAMP_TOL) & (np.abs(w) < GRAY_ZONE_TOL)
        if np.any(gray):
            warnings.warn(
                f"support detection ambiguous: {gray.sum()} eigenvalue(s) in "
                f"[{CLAMP_TOL:.0e}, {GRAY_ZONE_TOL:.0e})",
                stacklevel=3,
            )
    w = np.where(np.abs(w) < CLAMP_TOL, 0.0, w)
    return w, u


def _from_eigen(u: np.ndarray, f: np.ndarray) -> np.ndarray:
    """U diag(f) U^dagger for every matrix of a stack."""
    return (u * f[..., None, :]) @ _dagger(u)


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, u = _eigh_clamped(m, warn=False)
    return _from_eigen(u, np.sqrt(np.clip(w, 0.0, None)))


def pinv_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root with the clamped-eigendecomposition
    convention (zero on the numerical kernel)."""
    w, u = _eigh_clamped(m)
    return _from_eigen(u, np.where(w > 0.0, 1.0 / np.sqrt(np.where(w > 0.0, w, 1.0)), 0.0))


def support_projector(m: np.ndarray) -> np.ndarray:
    w, u = _eigh_clamped(m)
    return _from_eigen(u, w > 0.0)


# --------------------------------------------------------------------- POVM


@dataclass(frozen=True)
class Povm:
    elements: list
    labels: list = None

    def __post_init__(self):
        els = [_as_matrix(e) for e in self.elements]
        if not els:
            raise ValueError("empty POVM")
        d = els[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for i, e in enumerate(els):
            if e.shape != (d, d):
                raise ValueError(f"POVM element {i} has shape {e.shape}, not ({d}, {d})")
            if not np.all(np.isfinite(e)):
                raise ValueError(f"POVM element {i} not finite")
            if np.max(np.abs(e - e.conj().T)) > 1e-9:
                raise ValueError(f"POVM element {i} not Hermitian")
            if np.linalg.eigvalsh(0.5 * (e + e.conj().T)).min() < -1e-10:
                raise ValueError(f"POVM element {i} not positive")
            e.setflags(write=False)
            total += e
        # complete on the active subspace: spectrum of the sum is {0, 1}
        w = np.linalg.eigvalsh(0.5 * (total + total.conj().T))
        if np.max(np.minimum(np.abs(w), np.abs(w - 1.0))) > 1e-9:
            raise ValueError("POVM elements do not sum to a projector/identity")
        labels = list(self.labels) if self.labels is not None else list(range(len(els)))
        if len(labels) != len(els):
            raise ValueError(f"POVM has {len(els)} elements but {len(labels)} labels")
        object.__setattr__(self, "elements", els)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


# ------------------------------------------------------------- binary tree


def binary_tree_decompose(povm: Povm) -> list:
    """Decompose an M-outcome POVM into depth = ceil(log2 M) nested binary
    steps, returned as the list of the depth level arrays.

    Each node element is the SRM-style renormalization
    B^(u) = |T^(1/2) (B^(1))^{-1/2} ... (B^(u-1))^{-1/2}|^2 with T the sum of
    the original elements sharing the first u outcome bits; pseudo-inverses
    use the clamped eigendecomposition.  `chain` holds the product of
    inverse roots for every node of the level.
    """
    m, d = len(povm), povm.dim
    depth = max(1, ceil(log2(m)))
    leaves = np.concatenate([povm.elements, np.zeros((2**depth - m, d, d), dtype=complex)])
    levels, chain = [], np.eye(d, dtype=complex)
    for u in range(1, depth + 1):
        total = leaves.reshape(-1, 2**u, d, d).sum(axis=0)
        x = (sqrt_psd(total).reshape(2, -1, d, d) @ chain).reshape(-1, d, d)
        levels.append(_dagger(x) @ x)
        if u < depth:
            chain = (chain @ pinv_sqrt_psd(levels[-1]).reshape(2, -1, d, d)).reshape(-1, d, d)
    return levels


def reconstruct(levels: list) -> Povm:
    """Leaf elements F = |sqrt(B^(u_F)) ... sqrt(B^(1))|^2."""
    d = levels[0].shape[-1]
    x = np.eye(d, dtype=complex)
    for b in levels:
        x = (sqrt_psd(b).reshape(2, -1, d, d) @ x).reshape(-1, d, d)
    return Povm(_dagger(x) @ x)


def simulate_tree(levels: list, rho) -> np.ndarray:
    """Outcome distribution from sequentially applying the conditional binary
    measurements with explicit post-measurement states (the operational
    reading of the nested POVM); a branch of probability <= 1e-300 stops."""
    d = levels[0].shape[-1]
    state, probs = _as_matrix(rho), np.ones(1)
    for b in levels:
        s = sqrt_psd(b).reshape(2, -1, d, d)
        post = s @ state @ s
        p = np.trace(post, axis1=-2, axis2=-1).real
        p = np.where(p > 1e-300, p, 0.0)
        state = (post / np.where(p > 0.0, p, 1.0)[..., None, None]).reshape(-1, d, d)
        probs = (probs * p).reshape(-1)
    return probs


def weak_completeness_defect(levels: list) -> float:
    """Max deviation of B_0 + B_1 from the support projector of the parent
    element across all tree nodes."""
    d = levels[0].shape[-1]
    parents = [np.eye(d, dtype=complex)] + [support_projector(b) for b in levels[:-1]]
    return max(float(np.max(np.abs(b[: len(b) // 2] + b[len(b) // 2:] - support)))
               for b, support in zip(levels, parents))


# ------------------------------------------------------------ serialization


def povm_from_json(text: str) -> Povm:
    """A Povm from JSON {"elements": [matrix of [re, im] pairs, ...],
    "labels": [...]}; malformed input raises a ValueError that names the
    field."""
    data = json.loads(text)
    if not isinstance(data, dict) or not isinstance(data.get("elements"), list):
        raise ValueError("POVM JSON must be an object with an 'elements' list")
    if not isinstance(data.get("labels", []), list):
        raise ValueError("POVM JSON field 'labels' must be a list")
    elements = []
    for i, e in enumerate(data["elements"]):
        try:
            elements.append(np.array([[complex(re, im) for re, im in row] for row in e]))
        except (TypeError, ValueError):
            raise ValueError(f"POVM JSON field 'elements'[{i}] must be a matrix of "
                             "[re, im] number pairs") from None
    return Povm(elements, labels=data.get("labels"))
