"""Seeded request generation for the three benchmark workloads.

A run is a fixed number of *rounds*, set by the workload and ``--seconds``
alone (`rounds_for`).  Every round holds the same request classes in the
same numbers; the seed only draws the inputs (energies, amplitudes, Bloch
vectors, matrices) inside fixed strata and the order of requests within the
round.  So two seeds cost about the same, every run of a workload has the
same mix and the same number of requests, and a request that fails on every
seed (the cavity receiver at the start of the alpha grid) fails the same
number of times in every run.  Round ``r`` of ``n`` is generated from
``(seed, workload, r, n)`` alone.

A `Request` carries the ``qrx`` argv without its input/output paths; the
runner adds ``--in`` (when the request has an input file) and ``--out`` or
``--outdir``.  ``meta`` holds what the output checks need to know about how
the inputs were built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("rates", "bpsk", "disc")

#: code lengths of every hadamard-rates request (the documented doubling list)
LENGTHS = "2,4,...,1024"
N_LENGTHS = 10
#: energy strata of the realistic requests: log10 E in [-4, 0] cut in six
E_STRATA = 6

#: documented alpha grid of bpsk-sweep: 0.05:1.0:40
ALPHA_LO, ALPHA_HI = 0.05, 1.0
ALPHA_GRID = np.linspace(ALPHA_LO, ALPHA_HI, 40)
#: consecutive grid points per alpha stratum; ten strata cover the grid
ALPHA_STRATUM = 4

#: seconds one round takes at the commit that added the benchmark (2-core
#: x86 VM, one BLAS thread); a run holds ``round(seconds / ROUND_SECONDS)``
#: rounds, so a faster program finishes the same work sooner
ROUND_SECONDS = {"rates": 9.0, "bpsk": 4.7, "disc": 8.0}


@dataclass(frozen=True)
class Request:
    id: str
    kind: str
    argv: tuple
    output: str  # "csv", "json" or "figures"
    input_text: str | None = None
    input_suffix: str = ""
    meta: dict = field(default_factory=dict, compare=False)

    def key(self) -> tuple:
        """Everything that decides what the program is asked to do."""
        return (self.id, self.kind, self.argv, self.output, self.input_text)


def _rng(seed: int, workload: str, round_index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload), int(round_index)])


def _num(x: float) -> str:
    return repr(float(x))


# -------------------------------------------------------------------- rates

#: (kernel, M, J) of the Helstrom hadamard-rates classes, one request each
HELSTROM_CLASSES = (
    ("helstrom", 3, "inf"), ("helstrom", 4, "inf"), ("helstrom", 8, "inf"),
    ("helstrom", 8, "10"), ("helstrom", 8, "30"), ("helstrom", 8, "100"), ("helstrom", 3, "100"),
)
#: realistic classes, one request per energy stratum each
REALISTIC_CLASSES = (("realistic", 3, "inf"), ("realistic", 4, "inf"))
#: datasets of the run's figures requests
FIGURES_ONLY = ("optimal-rates", "helstrom-rates")
#: --points of the run's two figures requests add up to this
FIGURES_POINTS = 9


def _rates_round(rng, r: int, shifts: np.ndarray) -> list:
    """hadamard-rates requests of all ten code lengths at one energy each;
    round 0 adds the run's two figures requests.

    The Helstrom kernel at J=inf (adaptive quadrature) for M in {3, 4, 8}
    and as plain sums at J in {10, 30, 100} (M=8, the dearest kernel call,
    and M=3), once per round each.  The realistic cascade for M in {3, 4}
    (quadrature inside quadrature) costs ten times more at E=1 than at 1e-4,
    so it runs once in each of six log strata of [1e-4, 1] every round.
    ``shifts`` holds, per class, the place of this round's energy within
    [1e-4, 1] (Helstrom) or within each stratum (realistic): the rounds of a
    run sit on a lattice of that interval with one seeded offset per class,
    so a run covers log E evenly whatever the seed, and its median and tail
    do not move with the draw of energies.  The figures requests write the
    optimal-rates and helstrom-rates datasets (0.3-0.7 s each), 16 rows per
    --points: one has a seeded --points in 3..6 and the other the rest of
    FIGURES_POINTS, so the rows of a run do not depend on the seed.  The
    envelope datasets take 5-8 s, a sixth of a run for one request, and
    would tie the throughput to the seed.
    """
    n_helstrom = len(HELSTROM_CLASSES)
    specs = [(c, float(10.0 ** (-4.0 + 4.0 * shifts[i]))) for i, c in enumerate(HELSTROM_CLASSES)]
    specs += [(c, float(10.0 ** (-4.0 + 4.0 * (k + shifts[n_helstrom + i]) / E_STRATA)))
              for i, c in enumerate(REALISTIC_CLASSES) for k in range(E_STRATA)]
    out = [_rates_spec(*c, LENGTHS, f"log:{_num(e)}:{_num(e)}:1", N_LENGTHS) for c, e in specs]
    if r == 0:
        points = int(rng.integers(3, 7))
        out += [_figures_spec(points), _figures_spec(FIGURES_POINTS - points)]
    return out


def _rates_spec(kernel: str, m: int, j: str, lengths: str, grid: str, rows: int) -> tuple:
    argv = ("hadamard-rates", "--M", str(m), "--N", lengths, "--E-grid", grid, "--kernel", kernel,
            "--J", j)
    return (f"rates.{kernel}.M{m}.J{j}", argv, "csv", None, "",
            {"M": m, "kernel": kernel, "J": j, "rows": rows})


def _figures_spec(points: int) -> tuple:
    argv = ("figures", "--points", str(points), "--only", ",".join(FIGURES_ONLY))
    return ("rates.figures", argv, "figures", None, "", {"points": points, "only": FIGURES_ONLY})


# --------------------------------------------------------------------- bpsk

BPSK_RECEIVERS = ("opt_kennedy", "dephaser", "cavity", "nhpa", "ts")


def _bpsk_round(rng, r: int) -> list:
    """One request per (receiver, alpha).

    The alphas are points of the documented grid 0.05:1.0:40, cut into ten
    strata of four consecutive points.  Every single-step receiver gets one
    seeded point of each stratum; in round 0 the outer strata use the grid's
    endpoints 0.05 and 1.0.  So every round asks each receiver about the
    same stretches of the grid, and the cavity receiver's TruncationError,
    which hits the first four grid points, fails exactly one request per
    round.  One Dolinar request per round at a seeded grid point, over nhpa
    in even rounds (4 or 5 steps) and over opt_kennedy in odd ones (4..8
    steps), the step count cycling with the round; nhpa at 8 steps costs
    ~7 s, more than a round.  Keeping the Dolinar requests few puts the tail
    percentile inside the ts/nhpa class rather than at its edge.
    """
    strata = len(ALPHA_GRID) // ALPHA_STRATUM

    def alpha(k: int) -> float:
        if r == 0 and k == 0:
            return ALPHA_LO
        if r == 0 and k == strata - 1:
            return ALPHA_HI
        return float(ALPHA_GRID[ALPHA_STRATUM * k + int(rng.integers(ALPHA_STRATUM))])

    specs = [(receiver, 1, alpha(k)) for receiver in BPSK_RECEIVERS for k in range(strata)]
    dolinar = ("opt_kennedy", (4, 6, 8, 5, 7)[(r // 2) % 5]) if r % 2 else ("nhpa", 4 + (r // 2) % 2)
    specs.append((*dolinar, float(ALPHA_GRID[rng.integers(len(ALPHA_GRID))])))
    return [_bpsk_spec(*spec) for spec in specs]


def _bpsk_spec(receiver: str, steps: int, a: float) -> tuple:
    argv = ("bpsk-sweep", "--receiver", receiver, "--alpha-grid", f"{_num(a)}:{_num(a)}:1")
    kind = f"bpsk.{receiver}"
    if steps > 1:
        argv += ("--steps", str(steps))
        kind = f"bpsk.dolinar.{receiver}"
    return (kind, argv, "csv", None, "", {"receiver": receiver, "steps": steps, "alpha": a})


# --------------------------------------------------------------------- disc


def _random_rotation(rng) -> np.ndarray:
    q, rr = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(rr))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _bloch_vectors(rng, n: int, coplanar: bool, pure: bool) -> np.ndarray:
    if coplanar:
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
        v = np.stack([np.cos(phi), np.zeros(n), np.sin(phi)], axis=1)
    else:
        v = rng.normal(size=(n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    v = v @ _random_rotation(rng).T
    if not pure:
        v *= rng.uniform(0.3, 0.95, size=(n, 1))
    return v


def _priors(rng, n: int) -> np.ndarray:
    p = rng.uniform(0.5, 1.5, size=n)
    p /= p.sum()
    p[-1] = 1.0 - p[:-1].sum()
    return p


def _qubit_csv(vectors: np.ndarray, priors: np.ndarray) -> str:
    rows = ["c,rx,ry,rz,p"]
    for v, p in zip(vectors, priors):
        rows.append(",".join(_num(x) for x in (0.5, *(0.5 * v), p)))
    return "\n".join(rows) + "\n"


def _random_povm(rng, d: int, m: int) -> list:
    """m full-rank effects S^{-1/2} G_k S^{-1/2} from random Wishart G_k."""
    gs = []
    for _ in range(m):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gs.append(a @ a.conj().T / d)
    w, u = np.linalg.eigh(sum(gs))
    s_inv = (u / np.sqrt(w)) @ u.conj().T
    return [s_inv @ g @ s_inv for g in gs]


def _povm_json(elements: list) -> str:
    return json.dumps({
        "dim": int(elements[0].shape[0]),
        "labels": [str(k) for k in range(len(elements))],
        "elements": [[[[z.real, z.imag] for z in row] for row in e] for e in elements],
    })


def _symplectic_orthogonal(rng, n: int) -> np.ndarray:
    """Passive symplectic in (q1, p1, q2, p2, ...) order from a Haar unitary."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u, _ = np.linalg.qr(z)
    s = np.zeros((2 * n, 2 * n))
    s[0::2, 0::2] = u.real
    s[0::2, 1::2] = -u.imag
    s[1::2, 0::2] = u.imag
    s[1::2, 1::2] = u.real
    return s


def _gaussian_json(rng, physical: bool) -> str:
    """A state and a channel that are both physical, or both not.

    The state has symplectic eigenvalues 1/2 (first mode) and above, squeezed
    and mixed by passive optics; the unphysical one scales its covariance
    by 0.3, putting one symplectic eigenvalue at 0.15 < 1/2.  The channel is
    a passive map times sqrt(eta) with isotropic noise B; it is completely
    positive iff B >= (1 - eta)/2, and the unphysical one takes 0.2(1 - eta).
    """
    n = int(rng.integers(1, 4))
    nu = np.concatenate([[0.5], 0.5 + rng.exponential(1.0, size=n - 1)])
    squeeze = np.exp(rng.uniform(-1.0, 1.0, size=n))
    sq = np.diag(np.ravel(np.column_stack([squeeze, 1.0 / squeeze])))
    s = _symplectic_orthogonal(rng, n) @ sq @ _symplectic_orthogonal(rng, n)
    cov = s @ np.diag(np.repeat(nu, 2)) @ s.T
    cov = 0.5 * (cov + cov.T)
    eta = float(rng.uniform(0.2, 0.9))
    a = math.sqrt(eta) * _symplectic_orthogonal(rng, n)
    if physical:
        noise = (1.0 - eta) * (0.5 + float(rng.uniform(0.1, 1.0)))
    else:
        cov = 0.3 * cov
        noise = 0.2 * (1.0 - eta)
    payload = {
        "state": {"mean": rng.normal(size=2 * n).tolist(), "cov": cov.tolist()},
        "channel": {"A": a.tolist(), "B": (noise * np.eye(2 * n)).tolist(),
                    "b": np.zeros(2 * n).tolist()},
    }
    return json.dumps(payload)


#: qubit-disc classes: (name, states, coplanar, pure)
QUBIT_CLASSES = (
    ("3.pure.3d", 3, False, True), ("3.mixed.3d", 3, False, False),
    ("3.pure.plane", 3, True, True), ("4.pure.plane", 4, True, True),
    ("4.mixed.plane", 4, True, False),
)
#: the symmetric trine in the xz-plane, pure states
TRINE = np.stack([np.cos(2.0 * math.pi * np.arange(3) / 3.0), np.zeros(3),
                  np.sin(2.0 * math.pi * np.arange(3) / 3.0)], axis=1)
#: tree-decompose dimension strata, [lo, hi)
TREE_STRATA = ((4, 8), (8, 16), (16, 24), (24, 33))


def _disc_round(rng, r: int) -> list:
    """Qubit ensembles over every search path of qubit_disc, one POVM for
    tree-decompose and one Gaussian check.

    3-state ensembles take the reduced (c, phi) search, coplanar 4-state
    ones a 3-D grid, and the rotated trine also the closed form; each of
    these comes twice per round.  One fully 3-D 4-state ensemble takes the
    4-D grid (~5 s).  The tree's dimension cycles through four strata of
    [4, 32] with the round, and the Gaussian input is physical in even
    rounds and unphysical in odd ones.
    """
    out = []
    for name, n, coplanar, pure in QUBIT_CLASSES * 2 + (("4.mixed.3d", 4, False, False),):
        v = _bloch_vectors(rng, n, coplanar, pure)
        out.append(_qubit_spec(name, v, _priors(rng, n)))
    for _ in range(2):
        out.append(_qubit_spec("trine", TRINE @ _random_rotation(rng).T, np.full(3, 1.0 / 3.0)))
    lo, hi = TREE_STRATA[r % len(TREE_STRATA)]
    out.append(_tree_spec(rng, int(rng.integers(lo, hi)), int(rng.integers(3, 9))))
    out.append(_gaussian_spec(rng, r % 2 == 0))
    return out


def _qubit_spec(name: str, vectors: np.ndarray, priors: np.ndarray) -> tuple:
    return (f"disc.qubit.{name}", ("qubit-disc",), "json", _qubit_csv(vectors, priors), ".csv",
            {"vectors": vectors.tolist(), "priors": priors.tolist()})


def _tree_spec(rng, d: int, m: int) -> tuple:
    return ("disc.tree", ("tree-decompose",), "json", _povm_json(_random_povm(rng, d, m)), ".json",
            {"d": d, "m": m})


def _gaussian_spec(rng, physical: bool) -> tuple:
    return ("disc.gaussian", ("gaussian-check",), "json", _gaussian_json(rng, physical), ".json",
            {"physical": physical})


# -------------------------------------------------------------------- rounds


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds of a run: about ``seconds`` of work at the commit that added
    the benchmark, and the same for every seed and every machine."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def make_round(workload: str, seed: int, r: int, n_rounds: int) -> list:
    """Requests of round ``r`` of a run of ``n_rounds``, in a seeded order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = _rng(seed, workload, r)
    if workload == "rates":
        offsets = np.random.default_rng([int(seed), WORKLOADS.index(workload)]).uniform(
            size=len(HELSTROM_CLASSES) + len(REALISTIC_CLASSES))
        specs = _rates_round(rng, r, (offsets + r) / n_rounds)
    elif workload == "bpsk":
        specs = _bpsk_round(rng, r)
    else:
        specs = _disc_round(rng, r)
    order = rng.permutation(len(specs))
    return [
        Request(f"{workload}.{r}.{i}", *specs[j][:5], meta=specs[j][5])
        for i, j in enumerate(order)
    ]


def make_rounds(workload: str, seed: int, n_rounds: int) -> list:
    return [make_round(workload, seed, r, n_rounds) for r in range(n_rounds)]


def make_requests(workload: str, seed: int, n_rounds: int) -> list:
    return [req for rnd in make_rounds(workload, seed, n_rounds) for req in rnd]


# ---------------------------------------------------------------- reference


def reference_requests(workload: str) -> list:
    """Fixed warm-up requests, one of each kind, whose outputs at the commit
    that added the benchmark are kept in ``reference.json``.  Their inputs
    lie outside every seeded round (no endpoint alpha, no seeded energy)."""
    rng = np.random.default_rng(20171023)
    if workload == "rates":
        grid = "log:0.002:0.3:2"
        specs = [_rates_spec("helstrom", 3, "inf", "2,4,...,16", grid, 8),
                 _rates_spec("helstrom", 8, "30", "2,4,...,16", grid, 8),
                 _rates_spec("realistic", 3, "inf", "2,4", grid, 4),
                 _rates_spec("realistic", 4, "inf", "2,4", grid, 4),
                 _figures_spec(2)]
    elif workload == "bpsk":
        specs = [_bpsk_spec(receiver, steps, 0.3)
                 for receiver, steps in (("opt_kennedy", 1), ("dephaser", 1), ("cavity", 1),
                                         ("nhpa", 1), ("ts", 1), ("opt_kennedy", 4), ("nhpa", 4))]
    elif workload == "disc":
        plane = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.8], [-0.6, 0.0, 0.0], [0.3, 0.0, -0.5]])
        specs = [_qubit_spec("trine", TRINE, np.full(3, 1.0 / 3.0)),
                 _qubit_spec("4.mixed.plane", plane, np.array([0.4, 0.3, 0.2, 0.1])),
                 _tree_spec(rng, 4, 5),
                 _gaussian_spec(rng, True), _gaussian_spec(rng, False)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [Request(f"ref.{workload}.{i}", *s[:5], meta=s[5]) for i, s in enumerate(specs)]
