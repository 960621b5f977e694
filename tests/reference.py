"""Reference constructions that the tests check `qrx` against or build their
inputs with; no command runs them.  Most moved here from `qrx` unchanged.

* hadamard: the Hadamard matrix, the PSK Hadamard codewords and their PPM
  map, which checks the claim that H_N/sqrt(N) turns every codeword into a
  single pulse;
* povm: outcome statistics, trace distance and fidelity, the binary Helstrom
  measurement, the square-root and sequential measurements, the binary tree
  and its leaves node by node (the arithmetic `qrx.povm` runs on whole
  levels), and the JSON writer whose output `qrx.povm.povm_from_json` reads;
* qubit_disc: Bloch states, the F-function maximum over Q, the polytope
  construction and cyclic-symmetric pure-state sets;
* gaussian: the symplectic generators and the attenuator and amplifier
  channels.
"""

from __future__ import annotations

import json
import math

import numpy as np

from qrx.gaussian import GaussianChannel
from qrx.hadamard import _require_power_of_two
from qrx.povm import Povm, _as_matrix, pinv_sqrt_psd, sqrt_psd
from qrx.qubit_disc import _dual, _rnorm, f_value

# ----------------------------------------------------------------- hadamard


def hadamard_matrix(n: int) -> np.ndarray:
    """Symmetric Hadamard matrix of order ``n`` (a power of two), integer ±1.

    Entry (j, k) is (−1) raised to the bitwise scalar product of the binary
    representations of j and k, so H is symmetric and H·Hᵀ = n·I exactly.
    """
    _require_power_of_two(n)
    idx = np.arange(n, dtype=np.uint64)
    parity = np.zeros((n, n), dtype=np.int64)
    bits = np.bitwise_and.outer(idx, idx)
    while np.any(bits):
        parity ^= (bits & 1).astype(np.int64)
        bits >>= 1
    return 1 - 2 * parity


def hadamard_codewords(n: int, m: int, alpha: complex) -> np.ndarray:
    """N×(N·M) amplitude matrix of the order-``m`` PSK Hadamard code of
    length ``n`` and base amplitude ``alpha``: column m'·N + k is codeword
    (k, m'), the per-mode amplitudes α_{m'}·H_N[:, k] with α_{m'} = α·e^{i2πm'/m}.
    The mean energy per mode is E = |α|²."""
    _require_power_of_two(n)
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ValueError(f"number of phases must be a positive integer, got {m!r}")
    return np.kron(alpha * np.exp(2j * np.pi * np.arange(m) / m), hadamard_matrix(n))


def ppm_transform_check(n: int, m: int, alpha: complex) -> float:
    """Max deviation of (H_N/√N)·codeword from a single pulse √N·α_{m'} on slot k."""
    codewords = hadamard_codewords(n, m, alpha)
    # row 0 of H_N is all ones, so row 0 of the codewords holds each α_{m'} N times
    pulses = math.sqrt(n) * np.kron(codewords[0, ::n], np.eye(n))
    return float(np.max(np.abs((hadamard_matrix(n) / math.sqrt(n)) @ codewords - pulses)))


# --------------------------------------------------------------------- povm


def measure(povm: Povm, rho) -> np.ndarray:
    r = _as_matrix(rho)
    return np.array([np.trace(e @ r).real for e in povm.elements])


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


def tree_by_nodes(povm: Povm) -> dict:
    """The binary-tree decomposition one node at a time: {(u, c): B^(u)} for
    the node whose first u outcome bits have the little-endian code c, each
    T summed leaf by leaf in label order from zero and each chain X the
    parent's X times the parent's inverse root.  `povm.binary_tree_decompose`
    runs the same arithmetic on whole levels."""
    m, d = len(povm), povm.dim
    depth = max(1, math.ceil(math.log2(m)))
    leaves = list(povm.elements) + [np.zeros((d, d), dtype=complex)] * (2**depth - m)
    nodes, chains = {}, {(0, 0): np.eye(d, dtype=complex)}
    for u in range(1, depth + 1):
        for c in range(2**u):
            total = np.zeros((d, d), dtype=complex)
            for label in range(c, 2**depth, 2**u):
                total += leaves[label]
            x = sqrt_psd(total) @ chains[u - 1, c % 2 ** (u - 1)]
            nodes[u, c] = x.conj().T @ x
            if u < depth:
                chains[u, c] = chains[u - 1, c % 2 ** (u - 1)] @ pinv_sqrt_psd(nodes[u, c])
    return nodes


def leaves_by_path(nodes: dict) -> list:
    """Each leaf |sqrt(B^(depth)) ... sqrt(B^(1))|^2 rebuilt along its own
    path through a `tree_by_nodes` tree, in label order."""
    depth = max(u for u, _ in nodes)
    leaves = []
    for label in range(2**depth):
        x = np.eye(len(nodes[1, 0]), dtype=complex)
        for u in range(1, depth + 1):
            x = sqrt_psd(nodes[u, label % 2**u]) @ x
        leaves.append(x.conj().T @ x)
    return leaves


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


# --------------------------------------------------------------- qubit_disc


def bloch_state(r_vec, p: float = 1.0) -> np.ndarray:
    """Weighted state sigma = p * (1 + r.sigma)/2 for a Bloch vector |r|<=1,
    as the array (c, rx, ry, rz) = p/2 (1, r)."""
    r = np.asarray(r_vec, dtype=float)
    if r.shape != (3,):
        raise ValueError("r must be a real 3-vector")
    if np.linalg.norm(r) > 1 + 1e-10:
        raise ValueError("Bloch vector outside the sphere")
    return 0.5 * p * np.concatenate(([1.0], r))


def f_optimize(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Maximize F_Q over 0 <= Q <= 1.  Returns (value, Q*).

    The four operators (A+B, C, A-B, -C) + t 1, t the smallest shift that
    makes all four positive, have this (A, B, C) and prefactor 2t, so F is
    largest at Q* = Pi_0 + Pi_2 of their optimal POVM (`_dual`), where it
    equals their dual value less 2t.
    """
    ops = np.array([a + b, c, a - b, -c])
    t = max(_rnorm(op) - op[0] for op in ops)
    _, povm = _dual(ops + [t, 0.0, 0.0, 0.0])
    q = povm[0] + povm[2]
    return f_value(q, a, b, c), q


def polytope_ratio_psucc(r_vectors) -> float:
    """Success probability 1/M + 2 rho* for equiprobable pure qubit states
    from the Bloch-polytope construction, rho* being the radius of the
    smallest ball that encloses the weighted vertices r_k/(2M): the dual
    (`_dual`) of states with c_k = 1/(2M)."""
    rs = np.asarray(r_vectors, dtype=float)
    if np.any(np.abs(np.linalg.norm(rs, axis=1) - 1.0) > 1e-9):
        raise ValueError("polytope construction requires pure states")
    return _dual([bloch_state(r, 1.0 / len(rs)) for r in rs])[0]

def cyclic_symmetric_perr(psi0: np.ndarray, u: np.ndarray, m: int) -> float:
    """Minimum error probability for the cyclic-symmetric pure-state set
    {U^l |psi0>, l = 0..M-1, priors 1/M} with U^M = 1, up to a global phase
    (which leaves the states unchanged); other U raise ValueError.

    The set is geometrically uniform, so the square-root measurement is
    optimal and P_succ = (Tr sqrt(G) / M)^2, G being the Gram matrix
    <psi_k|psi_l> of the set (Ban et al., IJTP 36, 1269 (1997))."""
    u = np.asarray(u, dtype=complex)
    um = np.linalg.matrix_power(u, m)
    if np.linalg.norm(um - (np.trace(um) / len(um)) * np.eye(len(um))) > 1e-9:
        raise ValueError("U^M must be the identity (up to a global phase)")
    states = [np.asarray(psi0, dtype=complex)]
    for _ in range(m - 1):
        states.append(u @ states[-1])
    s = np.array(states)
    return float(1.0 - (np.trace(sqrt_psd(s.conj() @ s.T)).real / m) ** 2)


# ----------------------------------------------------------------- gaussian


def symplectic(kind: str, params) -> np.ndarray:
    """The printed one- and two-mode symplectic generators.

    kinds: 'phase' S_p(phi), 'squeeze' S_sq(r), 'beamsplitter' S_bs(theta),
    'two_mode_squeeze' S_2sq(r).
    """
    if kind == "phase":
        phi = float(params)
        return np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]])
    if kind == "squeeze":
        r = float(params)
        return np.diag([np.exp(-r), np.exp(r)])
    if kind == "beamsplitter":
        th = float(params)
        i2 = np.eye(2)
        return np.block([[i2 * np.cos(th), i2 * np.sin(th)], [-i2 * np.sin(th), i2 * np.cos(th)]])
    if kind == "two_mode_squeeze":
        r = float(params)
        i2 = np.eye(2)
        s3 = np.diag([1.0, -1.0])
        return np.block([[i2 * np.cosh(r), s3 * np.sinh(r)], [s3 * np.sinh(r), i2 * np.cosh(r)]])
    raise ValueError(f"unknown symplectic kind {kind!r}")


def attenuator(eta: float, nbar: float = 0.0, n_modes: int = 1) -> GaussianChannel:
    """E_{eta,nbar}: A = sqrt(eta) 1, B = (1-eta)(nbar+1/2) 1."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    d = 2 * n_modes
    return GaussianChannel(np.sqrt(eta) * np.eye(d), (1 - eta) * (nbar + 0.5) * np.eye(d), np.zeros(d))


def amplifier(kappa: float, nbar: float = 0.0, n_modes: int = 1) -> GaussianChannel:
    """A_{kappa,nbar}: A = sqrt(kappa) 1, B = (kappa-1)(nbar+1/2) 1."""
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    d = 2 * n_modes
    return GaussianChannel(
        np.sqrt(kappa) * np.eye(d), (kappa - 1) * (nbar + 0.5) * np.eye(d), np.zeros(d)
    )
