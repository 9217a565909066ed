"""In-memory span tracer for the traced benchmark run.

The tracer wraps callables from the benchmark's own files; nothing under
``src/`` changes.  It wraps

* every public function of every ``cpdkernels`` module, rebound in each
  ``cpdkernels`` module (and the package) that imported that name;
* ``Kernel.is_hermitian``, and ``AlgebraElement.__init__`` (counted, not timed);
* ``numpy.linalg.eigh``, ``eigvalsh``, ``norm``, ``pinv`` and ``qr``, looked up
  by the package as ``np.linalg.<name>`` at call time.

A span records its name, start, end, parent span and operation id.  Spans stay
in flat arrays in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from cpdkernels.kernels import Verdict

MODULES = ("algebra", "kernels", "decomposition", "embedding", "generators",
           "serialize", "cli")
LAYERS = MODULES + ("linalg",)
LINALG = ("eigh", "eigvalsh", "norm", "pinv", "qr")


def _eigh_flops(args, kwargs, result) -> float:
    # Golub & Van Loan count the symmetric QR algorithm with eigenvectors as
    # about 9 m^3 real flops; complex arithmetic costs about 4x that.
    a = args[0]
    m = a.shape[-1]
    batch = math.prod(a.shape[:-2])
    return (36.0 if np.iscomplexobj(a) else 9.0) * m**3 * batch


NOTES = {
    "linalg.eigh": _eigh_flops,
    "serialize.load_document": lambda args, kwargs, result: len(args[0]),
    "serialize.dump_json": lambda args, kwargs, result: len(result),
    "embedding.validate_metric":
        lambda args, kwargs, result: args[0].n * (args[0].n - 1) * (args[0].n - 2),
}


class Tracer:
    """Spans and counters of one traced run.

    ``active`` is on only while an operation (``op_id >= 0``) or a traced
    set-up (``op_id == -1``) runs, so the checker's own calls into the
    package are not recorded.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, float] = {}     # bytes, flops or triples of a span
        self.passed: dict[int, bool] = {}     # spans that returned a Verdict
        self.raised: dict[int, str] = {}      # spans that ended in an exception
        self.kinds: dict[int, str] = {}       # per traced op: its kind
        self.latency: dict[int, float] = {}   # per traced op: its wall time
        self.expected: dict[int, tuple[str, ...]] = {}  # per traced op: exceptions raised by design
        self.elements = 0
        self.op_id = -1
        self.active = False
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name),
            parent=np.asarray(self.parent),
            op=np.asarray(self.op),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            kinds=np.array([self.kinds.get(i, "") for i in range(max(self.kinds, default=-1) + 1)]),
        )


def _traced(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    note = NOTES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        sid = tracer.begin(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.finish(sid)
            tracer.raised[sid] = type(exc).__name__
            raise
        tracer.finish(sid)
        if isinstance(result, Verdict):
            tracer.passed[sid] = bool(result.holds)
        if note is not None:
            tracer.notes[sid] = note(args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap the package's entry points for ``tracer``; returns the undo."""
    import cpdkernels
    from cpdkernels.algebra import AlgebraElement
    from cpdkernels.kernels import Kernel

    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    modules = [sys.modules[f"cpdkernels.{m}"] for m in MODULES]
    namespaces = [cpdkernels] + modules
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name in mod.__all__:
            fn = getattr(mod, name)
            if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                continue
            wrapped = _traced(tracer, f"{layer}.{name}", fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        rebind(ns, attr, wrapped)

    rebind(Kernel, "is_hermitian",
           _traced(tracer, "kernels.Kernel.is_hermitian", Kernel.is_hermitian))

    init = AlgebraElement.__init__

    def counted_init(self, *args, **kwargs):
        if tracer.active and tracer.op_id >= 0:
            tracer.elements += 1
        init(self, *args, **kwargs)

    rebind(AlgebraElement, "__init__", counted_init)

    for name in LINALG:
        fn = getattr(np.linalg, name)
        if name == "norm":
            two = _traced(tracer, "linalg.norm2", fn)
            other = _traced(tracer, "linalg.norm", fn)

            def norm(x, ord=None, *args, **kwargs):
                return (two if ord == 2 else other)(x, ord, *args, **kwargs)

            rebind(np.linalg, name, functools.wraps(fn)(norm))
        else:
            rebind(np.linalg, name, _traced(tracer, f"linalg.{name}", fn))

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall


class Spans:
    """Read-only arrays of a tracer's spans, with self times precomputed."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.names = tracer.names
        self.name = np.asarray(tracer.name, dtype=np.int64)
        self.parent = np.asarray(tracer.parent, dtype=np.int64)
        self.op = np.asarray(tracer.op, dtype=np.int64)
        self.dur = np.asarray(tracer.end) - np.asarray(tracer.start)
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        layers = np.array([n.split(".", 1)[0] for n in self.names], dtype=object)
        self.layer = layers[self.name]

    def mask(self, names, ops: bool = True) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names]
        in_phase = self.op >= 0 if ops else self.op == -1
        return np.isin(self.name, ids) & in_phase

    def prefix_mask(self, prefix: str, ops: bool = True) -> np.ndarray:
        return self.mask({n for n in self.names if n.startswith(prefix)}, ops)

    def covered(self, mask: np.ndarray) -> float:
        """Wall time covered by the spans in ``mask``: a span nested in
        another span of ``mask`` is not counted twice."""
        nested = np.zeros_like(mask)
        anc = self.parent.copy()
        live = anc >= 0
        while live.any():
            nested[live] |= mask[anc[live]]
            anc[live] = self.parent[anc[live]]
            live = anc >= 0
        return float(self.dur[mask & ~nested].sum())

    def discarded_eigh(self, eigh: np.ndarray) -> int:
        """``eigh`` calls whose nearest enclosing decision returned a pass,
        so their eigenvectors were thrown away."""
        passed = self.tracer.passed
        count = 0
        for sid in np.flatnonzero(eigh):
            anc = self.parent[sid]
            while anc >= 0 and int(anc) not in passed:
                anc = self.parent[anc]
            if anc >= 0 and passed[int(anc)]:
                count += 1
        return count


GROUPS = {
    "kernels.validate": {"kernels.Kernel.is_hermitian"},
    "kernels.norm": {"kernels.kernel_norm"},
    "kernels.assemble": {"kernels.assemble_gram", "kernels.compressed_gram"},
    "kernels.shift": {"kernels.shift_transform"},
    "kernels.decide": {"kernels.is_conditionally_positive_definite",
                       "kernels.is_positive_definite",
                       "kernels.cond_positive_matrix_check"},
    "linalg.norm2": {"linalg.norm2"},
    "linalg.eigh": {"linalg.eigh"},
    "linalg.other": {"linalg.eigvalsh", "linalg.pinv", "linalg.qr"},
    "serialize.load": {"serialize.load_document"},
    "serialize.dump": {"serialize.dump_json"},
    "decomposition.factor": {"decomposition.factor_pd"},
    "decomposition.reconstruct": {"decomposition.reconstruct_cpd",
                                  "decomposition.sum_sq_diff_reconstruct",
                                  "decomposition.majorized_kernel"},
    "embedding.validate": {"embedding.validate_metric"},
}


def layer_metrics(tracer: Tracer, focus: dict) -> dict:
    """Per-layer metrics of the traced operations, normalised per operation.

    The traced operations ran in whole cycles.  Set-up spans (``op_id == -1``) feed
    only the ``generators`` metrics, per set-up.  ``focus.<part>.share`` is
    the share of the part's operation time spent in the spans ``focus``
    names for it.  Returns ``{name: (value, unit)}``; a layer's metrics
    appear only where the layer ran.
    """
    ops, op_time = len(tracer.latency), math.fsum(tracer.latency.values())
    sp = Spans(tracer)
    out = {}
    groups = {k: sp.mask(v) for k, v in GROUPS.items()}
    groups["serialize.encode"] = sp.mask(
        {n for n in sp.names if n.startswith("serialize.") and n.endswith("_to_json")})

    def calls(g):
        out[f"{g}.calls"] = (int(groups[g].sum()) / ops, "calls/op")

    def seconds(g):
        out[f"{g}.s"] = (sp.covered(groups[g]) / ops, "s/op")

    def self_s(name, mask):
        out[name] = (float(sp.self_time[mask].sum()) / ops, "s/op")

    for g in ("kernels.validate", "kernels.norm", "linalg.norm2"):
        calls(g)
        seconds(g)
    out["algebra.elements"] = (tracer.elements / ops, "count/op")
    seconds("kernels.assemble")
    seconds("kernels.shift")
    self_s("kernels.decide.self_s", groups["kernels.decide"])
    out["kernels.validate_per_op"] = (int(groups["kernels.validate"].sum()) / ops, "ratio")

    eigh = groups["linalg.eigh"]
    calls("linalg.eigh")
    seconds("linalg.eigh")
    out["linalg.eigh.flops"] = (
        sum(tracer.notes[int(s)] for s in np.flatnonzero(eigh)) / ops, "flop/op")
    out["linalg.eigh.discarded_ratio"] = (
        sp.discarded_eigh(eigh) / max(1, int(eigh.sum())), "ratio")
    if groups["linalg.other"].any():
        calls("linalg.other")
        seconds("linalg.other")

    if sp.prefix_mask("serialize.").any():
        calls("serialize.load")
        seconds("serialize.load")
        out["serialize.load.bytes"] = (_note_sum(tracer, groups["serialize.load"]) / ops, "B/op")
        seconds("serialize.encode")
        seconds("serialize.dump")
        out["serialize.dump.bytes"] = (_note_sum(tracer, groups["serialize.dump"]) / ops, "B/op")
    if sp.prefix_mask("decomposition.").any():
        calls("decomposition.factor")
        seconds("decomposition.factor")
        seconds("decomposition.reconstruct")
        self_s("decomposition.self_s", sp.prefix_mask("decomposition."))
    if sp.prefix_mask("embedding.").any():
        calls("embedding.validate")
        seconds("embedding.validate")
        out["embedding.validate.triples"] = (
            _note_sum(tracer, groups["embedding.validate"]) / ops, "count/op")
        self_s("embedding.self_s", sp.prefix_mask("embedding."))
    cli = sp.prefix_mask("cli.")
    if cli.any():
        out["cli.calls"] = (int(sp.mask({"cli.main"}).sum()) / ops, "calls/op")
        self_s("cli.self_s", cli)

    gen = sp.prefix_mask("generators.", ops=False)
    out["generators.s"] = (sp.covered(gen), "s")
    made = sp.mask({"generators.random_non_cpd_kernel"}, ops=False)
    if made.any():
        checks = sp.mask({"kernels.is_conditionally_positive_definite"}, ops=False)
        inside = checks & np.isin(sp.parent, np.flatnonzero(made))
        returned = sum(1 for s in np.flatnonzero(made) if int(s) not in tracer.raised)
        out["generators.accept_ratio"] = (returned / max(1, int(inside.sum())), "ratio")

    for layer in LAYERS:
        failed = sum(
            1 for sid, exc in tracer.raised.items()
            if sp.layer[sid] == layer and sp.op[sid] >= 0
            and exc not in tracer.expected[int(sp.op[sid])]
        )
        out[f"{layer}.failed"] = (failed, "count")
    for layer in LAYERS:
        mask = sp.prefix_mask(layer + ".")
        if mask.any():
            out[f"share.{layer}"] = (float(sp.self_time[mask].sum()) / op_time, "ratio")
    for part, patterns in focus.items():
        ids = [i for i, kind in tracer.kinds.items() if kind.startswith(part + "-")]
        spans = sp.mask(set(patterns) | _expand(sp.names, patterns)) & np.isin(sp.op, ids)
        part_time = math.fsum(tracer.latency[i] for i in ids)
        out[f"focus.{part}.share"] = (sp.covered(spans) / part_time, "ratio")
    return out


def _expand(names, patterns) -> set:
    """Span names matching ``patterns``; a pattern ending in ``.`` is a prefix."""
    return {n for n in names for p in patterns if p.endswith(".") and n.startswith(p)}


def _note_sum(tracer: Tracer, mask: np.ndarray) -> float:
    return float(sum(tracer.notes.get(int(s), 0.0) for s in np.flatnonzero(mask)))
