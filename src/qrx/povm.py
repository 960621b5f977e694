"""Measurements: POVM statistics, distances, the Helstrom optimum, and the
binary-tree decomposition with SRM / sequential-measurement builders.

Operators are plain complex matrices.  Binary outcome strings use
little-endian bit order: label l = sum_u 2^(u-1) k_u, k_1 being the first
measured bit.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from math import ceil, log2

import numpy as np

#: support-projector threshold; eigenvalues in the gray zone up to
#: GRAY_ZONE_TOL trigger a warning because pseudo-inverse stability dominates
#: the round-trip accuracy of the tree decomposition
CLAMP_TOL = 1e-12
GRAY_ZONE_TOL = 1e-9


def _as_matrix(x) -> np.ndarray:
    return np.asarray(x, dtype=complex)


def _eigh_clamped(m: np.ndarray, warn: bool = True):
    w, u = np.linalg.eigh(0.5 * (m + m.conj().T))
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


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, u = _eigh_clamped(m, warn=False)
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T


def pinv_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root with the clamped-eigendecomposition
    convention (zero on the numerical kernel)."""
    w, u = _eigh_clamped(m)
    inv = np.where(w > 0.0, 1.0 / np.sqrt(np.where(w > 0.0, w, 1.0)), 0.0)
    return (u * inv) @ u.conj().T


def support_projector(m: np.ndarray) -> np.ndarray:
    w, u = _eigh_clamped(m)
    return (u * (w > 0.0)) @ u.conj().T


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
        for e in els:
            if e.shape != (d, d):
                raise ValueError("inconsistent element dimensions")
            if np.max(np.abs(e - e.conj().T)) > 1e-9:
                raise ValueError("POVM element not Hermitian")
            if np.linalg.eigvalsh(0.5 * (e + e.conj().T)).min() < -1e-10:
                raise ValueError("POVM element not positive")
            e.setflags(write=False)
            total += e
        # complete on the active subspace: spectrum of the sum is {0, 1}
        w = np.linalg.eigvalsh(0.5 * (total + total.conj().T))
        if np.max(np.minimum(np.abs(w), np.abs(w - 1.0))) > 1e-9:
            raise ValueError("POVM elements do not sum to a projector/identity")
        labels = list(self.labels) if self.labels is not None else list(range(len(els)))
        if len(labels) != len(els):
            raise ValueError("labels/elements length mismatch")
        object.__setattr__(self, "elements", els)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


def measure(povm: Povm, rho) -> np.ndarray:
    r = _as_matrix(rho)
    return np.array([np.trace(e @ r).real for e in povm.elements])


def post_state(povm: Povm, rho, k: int) -> np.ndarray:
    r = _as_matrix(rho)
    s = sqrt_psd(povm.elements[k])
    out = s @ r @ s
    p = np.trace(out).real
    if p <= 0:
        raise ValueError(f"outcome {k} has zero probability")
    return out / p


# ---------------------------------------------------------------- distances


def trace_distance(r1, r2) -> float:
    """D = 1/2 ||r1 - r2||_1 (also accepts unnormalized weighted states)."""
    d = _as_matrix(r1) - _as_matrix(r2)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (d + d.conj().T))).sum())


def fidelity(r1, r2) -> float:
    """F = (Tr sqrt(sqrt(r1) r2 sqrt(r1)))^2."""
    a = sqrt_psd(_as_matrix(r1))
    inner = a @ _as_matrix(r2) @ a
    w = np.clip(np.linalg.eigvalsh(0.5 * (inner + inner.conj().T)), 0.0, None)
    return float(np.sqrt(w).sum() ** 2)


def helstrom_binary(rho0, rho1, p0: float = 0.5):
    """Minimum-error discrimination of rho0 (prior p0) vs rho1.

    Returns (p_err, Povm) with p_err = 1/2 - D(p0 rho0, p1 rho1); the POVM
    projects onto the positive/nonpositive support of p0 rho0 - p1 rho1 and
    achieves p_err exactly.
    """
    if not 0.0 <= p0 <= 1.0:
        raise ValueError("p0 must lie in [0, 1]")
    gamma = p0 * _as_matrix(rho0) - (1.0 - p0) * _as_matrix(rho1)
    w, u = np.linalg.eigh(0.5 * (gamma + gamma.conj().T))
    p_err = 0.5 - 0.5 * float(np.abs(w).sum())
    e0 = (u * (w > 0.0)) @ u.conj().T
    e1 = np.eye(gamma.shape[0]) - e0
    return p_err, Povm([e0, e1], labels=[0, 1])


# ------------------------------------------------------------- nested POVMs


@dataclass(frozen=True)
class NestedPovm:
    """Binary tree of conditional two-outcome POVMs.

    nodes maps the prefix bit string (k_1, ..., k_{u-1}) — () for the root —
    to the pair (B_0, B_1), weakly complete on the support of the parent
    element.  Leaf labels are little-endian: l = sum_u 2^(u-1) k_u.
    """

    depth: int
    nodes: dict = field(repr=False)
    n_original: int = None  # leaves with label >= n_original are null padding

    @property
    def dim(self) -> int:
        return self.nodes[()][0].shape[0]

    def is_null_leaf(self, label: int) -> bool:
        return self.n_original is not None and label >= self.n_original


def _bits(label: int, depth: int) -> tuple:
    return tuple((label >> (u - 1)) & 1 for u in range(1, depth + 1))


def binary_tree_decompose(povm: Povm) -> NestedPovm:
    """Decompose an M-outcome POVM into ceil(log2 M) nested binary steps.

    Each node element is the SRM-style renormalization
    B^(u) = |T^(1/2) (B^(1))^{-1/2} ... (B^(u-1))^{-1/2}|^2 with T the sum of
    the original elements sharing the first u outcome bits; pseudo-inverses
    use the clamped eigendecomposition.
    """
    m = len(povm)
    depth = max(1, ceil(log2(m)))
    mt = 2**depth
    d = povm.dim
    els = list(povm.elements) + [np.zeros((d, d), dtype=complex)] * (mt - m)

    nodes: dict = {}

    def build(prefix: tuple, pinv_chain: np.ndarray):
        u = len(prefix) + 1
        bs = []
        for k in (0, 1):
            total = np.zeros((d, d), dtype=complex)
            for label in range(mt):
                if _bits(label, depth)[:u] == prefix + (k,):
                    total += els[label]
            x = sqrt_psd(total) @ pinv_chain
            bs.append(x.conj().T @ x)
        nodes[prefix] = (bs[0], bs[1])
        if u < depth:
            for k in (0, 1):
                build(prefix + (k,), pinv_chain @ pinv_sqrt_psd(bs[k]))

    build((), np.eye(d, dtype=complex))
    return NestedPovm(depth=depth, nodes=nodes, n_original=m)


def reconstruct(nested: NestedPovm) -> Povm:
    """Leaf elements F = |sqrt(B^(u_F)) ... sqrt(B^(1))|^2."""
    d = nested.dim
    elements = []
    for label in range(2**nested.depth):
        bits = _bits(label, nested.depth)
        x = np.eye(d, dtype=complex)
        for u in range(1, nested.depth + 1):
            b = nested.nodes[bits[: u - 1]][bits[u - 1]]
            x = sqrt_psd(b) @ x
        elements.append(x.conj().T @ x)
    return Povm(elements)


def simulate_tree(nested: NestedPovm, rho) -> np.ndarray:
    """Outcome distribution from sequentially applying the conditional binary
    measurements with explicit post-measurement states (the operational
    reading of the nested POVM)."""
    d = nested.dim
    probs = np.zeros(2**nested.depth)

    def walk(prefix: tuple, state: np.ndarray, weight: float):
        u = len(prefix) + 1
        b0, b1 = nested.nodes[prefix]
        for k, b in ((0, b0), (1, b1)):
            s = sqrt_psd(b)
            post = s @ state @ s
            p = np.trace(post).real
            if p <= 1e-300:
                continue
            if u == nested.depth:
                label = sum(bit << (v - 1) for v, bit in enumerate(prefix + (k,), start=1))
                probs[label] += weight * p
            else:
                walk(prefix + (k,), post / p, weight * p)

    walk((), _as_matrix(rho), 1.0)
    return probs


def weak_completeness_defect(nested: NestedPovm) -> float:
    """Max deviation of B_0 + B_1 from the support projector of the parent
    element across all tree nodes."""
    worst = 0.0
    for prefix, (b0, b1) in nested.nodes.items():
        if prefix == ():
            parent_support = np.eye(nested.dim, dtype=complex)
        else:
            parent = nested.nodes[prefix[:-1]][prefix[-1]]
            parent_support = support_projector(parent)
        worst = max(worst, float(np.max(np.abs(b0 + b1 - parent_support))))
    return worst


# ------------------------------------------------------- POVM constructions


def srm(projectors) -> Povm:
    """Square-root (pretty good) measurement S^{-1/2} Pi_x S^{-1/2}."""
    mats = [_as_matrix(p) for p in projectors]
    s = sum(mats)
    si = pinv_sqrt_psd(s)
    # complete on the support of S (the element sum is the support projector)
    return Povm([si @ m @ si for m in mats])


def sequential_povm(projectors) -> Povm:
    """Sequential measurement E_l = |Pi_l Xi_{l-1} ... Xi_1|^2 with
    Xi = 1 - Pi, plus the error element E_err = 1 - sum E_l."""
    mats = [_as_matrix(p) for p in projectors]
    d = mats[0].shape[0]
    elements = []
    chain = np.eye(d, dtype=complex)  # Xi_{l-1} ... Xi_1
    for pi in mats:
        x = pi @ chain
        elements.append(x.conj().T @ x)
        chain = (np.eye(d) - pi) @ chain
    err = np.eye(d) - sum(elements)
    elements.append(err)
    return Povm(elements, labels=list(range(len(mats))) + ["err"])


# ------------------------------------------------------------ serialization


def povm_to_json(povm: Povm) -> str:
    """JSON schema: complex entries as [re, im] pairs."""
    return json.dumps(
        {
            "dim": povm.dim,
            "labels": [str(label) for label in povm.labels],
            "elements": [
                [[[z.real, z.imag] for z in row] for row in e] for e in povm.elements
            ],
        }
    )


def povm_from_json(text: str) -> Povm:
    """Inverse of povm_to_json; malformed input raises a ValueError that
    names the field."""
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
