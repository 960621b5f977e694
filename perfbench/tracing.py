"""In-memory tracer that wraps the public functions of the ``qrx`` modules
from outside; nothing under ``src/`` changes.

Every wrapped call becomes a node of one tree per request:

* a *span* (one node per call, with start and end) for calls that are few
  and coarse: commands, optimizers, Fock operators, rate evaluations;
* an *aggregate* (one node per name and parent, with a call count and the
  summed duration) for hot calls such as the objective functions of the
  receivers and the detection kernels inside quadrature integrands.  These
  run up to millions of times, so a span each would dominate the run.

Quadrature is counted without a node per integrand evaluation: the
``scipy.integrate`` reference inside ``qrx.hadamard`` is replaced by a shim
whose ``quad`` asks QUADPACK for its own evaluation count.

A layer's self time is the duration of its nodes minus the part covered by
their children (`self_times`), so time in numpy or scipy counts towards the
``qrx`` layer that called it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
import warnings

#: qrx modules measured as layers; ``info`` has no CLI caller today
LAYERS = ("cli", "hadamard", "receivers", "fock", "qubit_disc", "povm", "gaussian")


def layer_modules() -> dict:
    """Layer name -> imported ``qrx`` module."""
    return {name: importlib.import_module(f"qrx.{name}") for name in LAYERS}

#: calls recorded as aggregates (hot inner calls)
AGGREGATED = {
    "hadamard": {"psk_eigenvalues", "psk_helstrom_prob", "realistic_psk", "vp_vacuum_prob",
                 "classical_capacity", "quad"},
    "receivers": {"kennedy_psucc", "nhpa_psucc", "nhpa_overlaps", "dephaser_psucc",
                  "helstrom_bpsk", "homodyne_perr", "nhpa_optimize_beta", "_step_probs"},
    "fock": {"auto_cutoff", "annihilation"},
    "qubit_disc": {"f_value", "bloch_state"},
}
#: private functions that the per-layer metrics need, besides public ones
PRIVATE = {
    "cli": ("_cmd_bpsk_sweep", "_cmd_hadamard_rates", "_cmd_qubit_disc", "_cmd_tree_decompose",
            "_cmd_gaussian_check", "_cmd_figures", "_sweep_point", "_write_csv", "_write_json"),
    "receivers": ("_step_probs",),
    "qubit_disc": ("_optimize_general", "_pattern_search"),
}
#: output formatting, kept apart from the rest of cli's own time
IO_FUNCS = {"_write_csv", "_write_json"}
#: the receivers' objective functions, one call per trial point
PSUCC_FUNCS = {f"receivers.{n}" for n in ("kennedy_psucc", "nhpa_psucc", "dephaser_psucc",
                                          "cavity_psucc", "ts_psucc", "_step_probs")}
#: fock calls whose result sizes the truncated space
CUTOFF_FUNCS = {"fock.coherent_state", "fock.squeeze_operator"}


class Node:
    """A span (count 1, with start and end) or an aggregate of calls."""

    __slots__ = ("id", "name", "layer", "parent", "request", "start", "end", "dur", "count")

    def __init__(self, node_id, name, layer, parent, request, start=None):
        self.id = node_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.request = request
        self.start = start
        self.end = None
        self.dur = 0.0
        self.count = 0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def self_times(nodes) -> dict:
    """Per-layer self time: each node's duration minus its children's."""
    child = {}
    for n in nodes:
        if n.parent is not None:
            child[n.parent] = child.get(n.parent, 0.0) + n.dur
    out: dict = {}
    for n in nodes:
        out[n.layer] = out.get(n.layer, 0.0) + n.dur - child.get(n.id, 0.0)
    return out


def inclusive_times(nodes) -> dict:
    """Per-name summed duration, counting a call nested in a call of the
    same name once (the outermost one)."""
    by_id = {n.id: n for n in nodes}
    out: dict = {}
    for n in nodes:
        p = by_id.get(n.parent)
        while p is not None and p.name != n.name:
            p = by_id.get(p.parent)
        if p is None:
            out[n.name] = out.get(n.name, 0.0) + n.dur
    return out


class Tracer:
    def __init__(self):
        self.nodes: list = []
        self.stack: list = []
        self.aggregates: dict = {}
        self.counters: dict = {}
        self.request = None
        self.active = False
        self._patches: list = []

    # ---------------------------------------------------------- recording

    def count(self, name: str, by: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def _enter(self, name: str, layer: str, aggregate: bool) -> Node:
        parent = self.stack[-1] if self.stack else None
        if aggregate:
            key = (parent.id if parent else None, name)
            node = self.aggregates.get(key)
            if node is None:
                node = Node(len(self.nodes), name, layer, key[0], self.request)
                self.aggregates[key] = node
                self.nodes.append(node)
        else:
            node = Node(len(self.nodes), name, layer, parent.id if parent else None,
                        self.request, time.perf_counter())
            self.nodes.append(node)
        self.stack.append(node)
        return node

    def _wrap(self, fn, name: str, layer: str, aggregate: bool):
        tracer = self
        cutoff = name in CUTOFF_FUNCS
        psucc = name in PSUCC_FUNCS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if psucc:
                tracer.count("receivers.psucc.calls")
            node = tracer._enter(name, layer, aggregate)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._escaped(node, exc)
                raise
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                node.dur += t1 - t0
                node.count += 1
                if not aggregate:
                    node.end = t1
            if cutoff:
                tracer.count("fock.cutoff.sum", result.cutoff)
                tracer.count("fock.cutoff.n")
            return result

        return wrapper

    def _escaped(self, node: Node, exc: BaseException) -> None:
        """Count an exception once, where it leaves its layer."""
        layer = node.layer.split(".")[0]
        parent = self.stack[-2] if len(self.stack) > 1 else None
        if parent is None or parent.layer.split(".")[0] != layer:
            self.count(f"{layer}.errors")
            self.count(f"{layer}.errors.{type(exc).__name__}")

    def warning(self, category) -> None:
        """Attribute a warning to the layer of the innermost open node."""
        layer = self.stack[-1].layer.split(".")[0] if self.stack else "outside"
        self.count(f"{layer}.warnings")
        self.count(f"{layer}.warnings.{category.__name__}")

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, qrx_modules: dict) -> None:
        """Wrap the public functions (and the private ones the metrics name)
        of every layer module; ``qrx_modules`` is `layer_modules()`."""
        for layer, mod in qrx_modules.items():
            names = [n for n, obj in vars(mod).items()
                     if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                     and not n.startswith("_")]
            names += list(PRIVATE.get(layer, ()))
            for n in names:
                agg = n in AGGREGATED.get(layer, ())
                node_layer = "cli.io" if layer == "cli" and n in IO_FUNCS else layer
                self._patch(mod, n, self._wrap(getattr(mod, n), f"{layer}.{n}", node_layer, agg))
        gaussian = qrx_modules["gaussian"]
        for cls in (gaussian.GaussianState, gaussian.GaussianChannel):
            name = f"gaussian.{cls.__name__}"
            self._patch(cls, "__post_init__",
                        self._wrap(cls.__post_init__, name, "gaussian", False))
        hadamard = qrx_modules["hadamard"]
        self._patch(hadamard, "integrate", self._quad_shim(hadamard.integrate))

    def _quad_shim(self, integrate):
        """Stand-in for ``scipy.integrate`` that counts quad calls and
        integrand evaluations (QUADPACK's ``neval``) and behaves like quad,
        warnings included."""
        tracer = self
        real_quad = integrate.quad

        def quad(fun, a, b, **kwargs):
            out = real_quad(fun, a, b, full_output=1, **kwargs)
            tracer.count("hadamard.quad.evals", out[2]["neval"])
            if len(out) > 3:
                warnings.warn(out[3], integrate.IntegrationWarning, stacklevel=2)
            return out[0], out[1]

        shim = types.SimpleNamespace(IntegrationWarning=integrate.IntegrationWarning)
        shim.quad = self._wrap(quad, "hadamard.quad", "hadamard", True)
        return shim

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------- metrics

    def per_layer(self) -> dict:
        """Every per-layer metric, from the recorded nodes and counters."""
        incl = inclusive_times(self.nodes)
        own = self_times(self.nodes)
        calls: dict = {}
        for n in self.nodes:
            calls[n.name] = calls.get(n.name, 0) + n.count
        c = self.counters
        quad_calls = calls.get("hadamard.quad", 0)
        points = calls.get("cli._sweep_point", 0)
        m = {
            "hadamard.vp_prob.s": incl.get("hadamard.vp_prob", 0.0),
            "hadamard.vp_prob.calls": calls.get("hadamard.vp_prob", 0),
            "hadamard.quad.calls": quad_calls,
            "hadamard.quad.evals": c.get("hadamard.quad.evals", 0),
            "hadamard.quad.evals_per_call": c.get("hadamard.quad.evals", 0) / quad_calls
            if quad_calls else 0.0,
            "hadamard.psk_helstrom_prob.s": incl.get("hadamard.psk_helstrom_prob", 0.0),
            "hadamard.realistic_psk.s": incl.get("hadamard.realistic_psk", 0.0),
            "hadamard.optimal_rate.s": incl.get("hadamard.optimal_rate", 0.0),
            "hadamard.self_s": own.get("hadamard", 0.0),
            "hadamard.errors": c.get("hadamard.errors", 0),
        }
        for opt in ("optimized_kennedy", "nhpa_optimize", "dephaser_optimize", "cavity_optimize",
                    "ts_optimize", "dolinar_multistep"):
            m[f"receivers.{opt}.s"] = incl.get(f"receivers.{opt}", 0.0)
        m["receivers.psucc.calls"] = c.get("receivers.psucc.calls", 0)
        m["receivers.evals_per_point"] = m["receivers.psucc.calls"] / points if points else 0.0
        m["receivers.self_s"] = own.get("receivers", 0.0)
        m.update({
            "fock.squeeze_operator.s": incl.get("fock.squeeze_operator", 0.0),
            "fock.squeeze_operator.calls": calls.get("fock.squeeze_operator", 0),
            "fock.squeezed_displaced_state.s": incl.get("fock.squeezed_displaced_state", 0.0),
            "fock.coherent_state.calls": calls.get("fock.coherent_state", 0),
            "fock.cutoff_mean": c["fock.cutoff.sum"] / c["fock.cutoff.n"]
            if c.get("fock.cutoff.n") else 0.0,
            "fock.truncation_errors": c.get("fock.errors.TruncationError", 0),
            "fock.self_s": own.get("fock", 0.0),
            "qubit_disc.f_optimize.s": incl.get("qubit_disc.f_optimize", 0.0),
            "qubit_disc.f_optimize.calls": calls.get("qubit_disc.f_optimize", 0),
            "qubit_disc.grid.s": incl.get("qubit_disc._optimize_general", 0.0),
            "qubit_disc.pattern_search.s": incl.get("qubit_disc._pattern_search", 0.0),
            "qubit_disc.pattern_search.calls": calls.get("qubit_disc._pattern_search", 0),
            "qubit_disc.f_value_matrix.calls": calls.get("qubit_disc.f_value_matrix", 0),
            "qubit_disc.warnings": c.get("qubit_disc.warnings", 0),
            "povm.binary_tree_decompose.s": incl.get("povm.binary_tree_decompose", 0.0),
            "povm.reconstruct.s": incl.get("povm.reconstruct", 0.0),
            "gaussian.s": sum(n.dur for n in self.nodes if n.layer == "gaussian"
                              and (n.parent is None or self.nodes[n.parent].layer != "gaussian")),
            "cli.io_s": own.get("cli.io", 0.0),
            "cli.self_s": own.get("cli", 0.0),
        })
        return m
