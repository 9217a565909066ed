"""Construction shortcuts shared by the test modules, and per-entry
reference implementations that the array code is compared against."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np

import cpdkernels.generators as gen
from cpdkernels import (
    DEFAULT_TOL,
    AlgebraDescriptor,
    AlgebraElement,
    CStarMetric,
    IndexSet,
    Kernel,
    ModuleElement,
    Verdict,
    Witness,
    adjoint,
    assemble_gram,
    compressed_gram,
    distance_matrix_from_points,
    kernel_norm,
    module_inner,
    op_norm,
    psd_defect,
    re_part,
)
from cpdkernels.algebra import _BAND
from cpdkernels.serialize import element_to_json


def single_block(matrix) -> AlgebraElement:
    """Element of a one-summand matrix algebra from a plain square array."""
    b = np.atleast_2d(np.asarray(matrix, dtype=np.complex128))
    return AlgebraElement(AlgebraDescriptor([b.shape[0]]), [b])


def two_summands(a, b) -> AlgebraElement:
    """Element of a two-summand algebra from two plain square arrays."""
    a = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    b = np.atleast_2d(np.asarray(b, dtype=np.complex128))
    return AlgebraElement(AlgebraDescriptor([a.shape[0], b.shape[0]]), [a, b])


def block_kernel(tables, labels) -> Kernel:
    """Kernel over a one-summand algebra from an n x n nested list of square
    arrays (one array per entry)."""
    values = [[single_block(v) for v in row] for row in tables]
    return Kernel(IndexSet(labels), values[0][0].descriptor, values)


KERNEL_DESCRIPTORS = ([1], [2], [3], [1, 1], [2, 1], [3, 2], [2, 2, 1], [4], [1, 2, 3])


def reference_kernel_norm(K) -> float:
    """Largest entry C*-norm, one 2-norm per entry block."""
    return max(op_norm(v) for row in K.values for v in row)


def reference_is_hermitian(K, tol=DEFAULT_TOL) -> bool:
    """The per-entry hermiticity loop: one 2-norm per pair ``i <= j``."""
    scale = max(1.0, reference_kernel_norm(K))
    for i in range(K.n):
        for j in range(i, K.n):
            diff = K.values[i][j] - adjoint(K.values[j][i])
            if op_norm(diff) > tol.tol_rel * scale:
                return False
    return True


def reference_table(K) -> list:
    """``K``'s entries as elements over contiguous copies of their blocks,
    the way the per-entry table held them."""
    return [
        [AlgebraElement(K.descriptor, [np.array(b) for b in v.blocks]) for v in row]
        for row in K.values
    ]


def reference_entrywise(op, K1, K2) -> list:
    """The table of ``op`` applied to the entries one element at a time."""
    rows = zip(reference_table(K1), reference_table(K2))
    return [[op(a, b) for a, b in zip(ra, rb)] for ra, rb in rows]


def reference_shift(K, s0) -> list:
    """The base-point shift ``(((K_ij - K_im) - K_mj) + K_mm) / 2`` at
    ``s0 = s_m``, one element at a time."""
    t, m = reference_table(K), K.index_set.index(s0)
    return [
        [0.5 * (((t[i][j] - t[i][m]) - t[m][j]) + t[m][m]) for j in range(K.n)]
        for i in range(K.n)
    ]


def reference_kernel_json(K) -> dict:
    """The kernel document rendered one element at a time."""
    return {
        "algebra": {"summands": list(K.descriptor.summand_dims)},
        "set": list(K.index_set.labels),
        "values": [[element_to_json(v) for v in row] for row in reference_table(K)],
    }


def same_bits(K, table) -> bool:
    """Whether every block of ``K`` equals the block of ``table`` bit for bit."""
    return all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for row, ref_row in zip(K.values, table, strict=True)
        for v, w in zip(row, ref_row, strict=True)
        for a, b in zip(v.blocks, w.blocks, strict=True)
    )


def raw_scalar_kernel(matrix) -> Kernel:
    """A scalar kernel on ``s1, s2, ...`` built through the internal path that
    takes arrays over, which, unlike the public constructors, accepts
    infinite and NaN values: decisions must still fail closed on them."""
    mat = np.array(matrix, dtype=np.complex128)
    labels = [f"s{i + 1}" for i in range(mat.shape[0])]
    return Kernel._of(IndexSet(labels), AlgebraDescriptor([1]), [mat])


def difference_basis(n: int, d: int) -> np.ndarray:
    """Columns ``(e_i - e_n) (x) I_d``, ``i < n``: a basis of the zero-sum
    coefficient tuples."""
    T = np.zeros((n * d, (n - 1) * d))
    for i in range(n - 1):
        T[i * d : (i + 1) * d, i * d : (i + 1) * d] = np.eye(d)
        T[(n - 1) * d :, i * d : (i + 1) * d] = -np.eye(d)
    return T


def _reference_eigh_defect(h):
    w, u = np.linalg.eigh(h)
    return w[0] / max(1.0, float(np.max(np.abs(w)))), float(w[0]), u[:, 0].copy()


def reference_psd_verdict(mats, tol=DEFAULT_TOL) -> Verdict:
    """The summand-by-summand PSD verdict: every summand's hermitian part
    decided, and its witness built, by ``psd_defect``; then the worst margin,
    the first on a tie, with margins within ``2 _BAND N`` of the worst (but
    those of exactly -1) re-taken from ``eigh``."""
    def part(M):
        return 0.5 * (M + M.conj().swapaxes(-1, -2))

    defects = [(found, k) for k, M in enumerate(mats)
               if (found := psd_defect(part(M), tol)) is not None]
    if not defects:
        return Verdict(True)
    cut = min(f[0] for f, _ in defects) + 2 * _BAND * max(M.shape[0] for M in mats)
    ties = [(f, k) for f, k in defects if f[0] <= cut]
    if len(ties) > 1:
        ties = [(f if f[0] == -1.0 else _reference_eigh_defect(part(mats[k])), k)
                for f, k in ties]
    (_, lam, vec), k = min(ties, key=lambda fk: fk[0][0])
    return Verdict(False, Witness(k, lam, vec))


def eigh_verdict(mats, tol=DEFAULT_TOL) -> Verdict:
    """PSD verdict from full eigendecompositions only: the worst relative
    margin over the summands, with that summand's bottom eigenpair."""
    worst = None
    for k, mat in enumerate(mats):
        w, u = np.linalg.eigh(0.5 * (mat + mat.conj().T))
        margin = w[0] / max(1.0, float(np.max(np.abs(w))))
        if worst is None or margin < worst[0]:
            worst = (margin, k, float(w[0]), u[:, 0].copy())
    if worst[0] < -tol.tol_rel:
        return Verdict(False, Witness(*worst[1:]))
    return Verdict(True)


def equal_distance_metric(x, dims, labels=None) -> CStarMetric:
    """``d(s_i, s_j) = x[i][j] I`` on every summand."""
    desc = AlgebraDescriptor(dims)
    n = len(x)
    return CStarMetric(IndexSet(labels or [f"p{i}" for i in range(n)]), desc, [
        [AlgebraElement(desc, [x[i][j] * np.eye(d) for d in dims]) for j in range(n)]
        for i in range(n)])


def overflow_metric(factor: float = 1.0) -> CStarMetric:
    """A metric over [2] whose triangle (a, e, b) fails, behind slacks that
    overflow at ``factor = 1`` and are first in the visit order."""
    far = {("a", "b"): 1e301, ("a", "e"): 1e300, ("b", "e"): 1e300,
           ("a", "c"): 1e308, ("b", "c"): 1e308, ("c", "e"): 1e308}
    labels = ["a", "b", "c", "e"]
    x = [[factor * far.get((s, t), far.get((t, s), 0.0)) for t in labels] for s in labels]
    return equal_distance_metric(x, [2], labels)


def reference_factor_kernel(fact) -> list:
    """``V(s)* V(t)``, one entry at a time."""
    labels = fact.index_set.labels
    return [[module_inner(fact.V[s], fact.V[t]) for t in labels] for s in labels]


def reference_reconstruct_cpd(dec) -> list:
    """``2 V(s)*V(t) - V(s)*V(s) - V(t)*V(t) - h(s) - h(t)*``, one entry at a time."""
    fact, labels = dec.factorization, dec.factorization.index_set.labels
    diag = {s: module_inner(fact.V[s], fact.V[s]) for s in labels}
    return [[2.0 * module_inner(fact.V[s], fact.V[t]) - diag[s] - diag[t]
             - dec.h[s] - adjoint(dec.h[t]) for t in labels] for s in labels]


def reference_sum_sq_diff_reconstruct(families, index_set, descriptor) -> list:
    """``-sum_k |e_s^k - e_t^k|^2``, one entry and family at a time."""
    table = []
    for s in index_set.labels:
        row = []
        for t in index_set.labels:
            acc = AlgebraElement.zero(descriptor)
            for fam in families:
                delta = fam[s] - fam[t]
                acc = acc - adjoint(delta) @ delta
            row.append(acc)
        table.append(row)
    return table


def reference_majorized_kernel(fact, P) -> list:
    """``2 V(s)*P V(t) - V(s)*P V(s) - V(t)*P V(t)``, one entry at a time."""
    labels = fact.index_set.labels

    def form(s, t):
        return AlgebraElement(fact.descriptor, [
            vs.conj().T @ p @ vt for vs, vt, p in zip(fact.V[s].blocks, fact.V[t].blocks, P)])

    return [[2.0 * form(s, t) - form(s, s) - form(t, t) for t in labels] for s in labels]


def same_verdict(a, b) -> bool:
    """Whether two verdicts agree on ``holds`` and the context, and their
    witnesses on the summand and, bit for bit, the eigenvalue and vector."""
    if (a.holds, a.context, a.witness is None) != (b.holds, b.context, b.witness is None):
        return False
    if a.witness is None:
        return True
    u, v = a.witness, b.witness
    return (u.summand == v.summand
            and np.float64(u.eigenvalue).tobytes() == np.float64(v.eigenvalue).tobytes()
            and u.vector.dtype == v.vector.dtype and u.vector.tobytes() == v.vector.tobytes())


def _min_eig(a):
    w, u = np.linalg.eigh(a)
    return float(w[0]), u[:, 0].copy()


def _reference_positive_defect(x, tol):
    for k, b in enumerate(x.blocks):
        if np.linalg.norm(b - b.conj().T, 2) > tol.tol_rel * max(1.0, np.linalg.norm(b, 2)):
            return ("hermitian", k, None, None)
    worst = None
    for k, b in enumerate(x.blocks):
        lam, vec = _min_eig(0.5 * (b + b.conj().T))
        margin = lam / max(1.0, op_norm(x))
        if worst is None or margin < worst[0]:
            worst = (margin, k, lam, vec)
    if worst[0] < -tol.tol_rel:
        return ("negative",) + worst[1:]
    return None


def reference_validate_metric(dm, tol=DEFAULT_TOL) -> Verdict:
    """The metric axioms checked one entry, pair and triple at a time, with
    one ``eigh`` and one 2-norm per block."""
    labels, n = dm.index_set.labels, dm.n
    scale = max(1.0, max(op_norm(v) for row in dm.values for v in row))
    for i, s in enumerate(labels):
        for j, t in enumerate(labels):
            defect = _reference_positive_defect(dm.values[i][j], tol)
            if defect is not None:
                kind, k, lam, vec = defect
                if kind == "hermitian":
                    return Verdict(False, None, context=f"value at ({s}, {t}) is not self-adjoint")
                return Verdict(False, Witness(k, lam, vec),
                               context=f"value at ({s}, {t}) is not positive")
    for i in range(n):
        for j in range(i + 1, n):
            if op_norm(dm.values[i][j] - dm.values[j][i]) > tol.tol_rel * scale:
                return Verdict(False, None, context=f"symmetry fails at ({labels[i]}, {labels[j]})")
    for i, s in enumerate(labels):
        if op_norm(dm.values[i][i]) > tol.tol_rel * scale:
            return Verdict(False, None, context=f"diagonal is not zero at {s}")
    for i in range(n):
        for j in range(i + 1, n):
            if op_norm(dm.values[i][j]) <= tol.tol_rel * scale:
                return Verdict(False, None, context=(
                    f"distinct labels ({labels[i]}, {labels[j]}) are at distance zero"))
    worst = None
    for i, s in enumerate(labels):
        for j, t in enumerate(labels):
            for u_idx, u in enumerate(labels):
                if i == j or u_idx == i or u_idx == j:
                    continue
                slack = dm.values[i][u_idx] + dm.values[u_idx][j] - dm.values[i][j]
                for k, b in enumerate(slack.blocks):
                    lam, vec = _min_eig(0.5 * (b + b.conj().T))
                    margin = lam / max(1.0, op_norm(slack))
                    if worst is None or margin < worst[0]:
                        worst = (margin, k, lam, vec, s, u, t)
    if worst is not None and worst[0] < -tol.tol_rel:
        _, k, lam, vec, s, u, t = worst
        return Verdict(False, Witness(k, lam, vec),
                       context=f"triangle inequality fails for ({s}, {u}, {t})")
    return Verdict(True)


def _reference_pair_positivity(diffs, tol) -> Verdict:
    worst = None
    for (s, t), diff in diffs.items():
        for k, b in enumerate(diff.blocks):
            skew = float(np.linalg.norm(b - b.conj().T, 2))
            if skew > tol.tol_rel * max(1.0, float(np.linalg.norm(b, 2))):
                return Verdict(False, None, context=f"non-hermitian difference at ({s}, {t})")
            w, u = np.linalg.eigh(0.5 * (b + b.conj().T))
            margin = w[0] / max(1.0, float(np.max(np.abs(w))))
            if worst is None or margin < worst[0]:
                worst = (margin, k, float(w[0]), u[:, 0].copy(), s, t)
    if worst[0] < -tol.tol_rel:
        _, k, lam, vec, s, t = worst
        return Verdict(False, Witness(k, lam, vec), context=f"pair ({s}, {t})")
    return Verdict(True)


def reference_cauchy_schwarz_cpd(K, tol=DEFAULT_TOL) -> Verdict:
    """``2 Re K(s,t) <= K(s,s) + K(t,t)``, one pair and block at a time."""
    v, labels = K.values, K.index_set.labels
    return _reference_pair_positivity({
        (s, t): v[i][i] + v[j][j] - 2.0 * re_part(v[i][j])
        for i, s in enumerate(labels) for j, t in enumerate(labels)
    }, tol)


def reference_cauchy_schwarz_pd(L, tol=DEFAULT_TOL) -> Verdict:
    """``L(s,t) L(t,s) <= ||L(t,t)|| L(s,s)``, one pair and block at a time."""
    v, labels = L.values, L.index_set.labels
    return _reference_pair_positivity({
        (s, t): op_norm(v[j][j]) * v[i][i] - v[i][j] @ v[j][i]
        for i, s in enumerate(labels) for j, t in enumerate(labels)
    }, tol)


def _reference_render(obj, out, level):
    pad, closing = "  " * (level + 1), "  " * level
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        if not math.isfinite(float(obj)):
            raise ValueError("non-finite floats cannot be serialized")
        out.append(format(float(obj), ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (dict, list, tuple)) and not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(pad + json.dumps(k) + ": ")
            _reference_render(v, out, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(closing + "}")
    elif isinstance(obj, (list, tuple)):
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _reference_render(v, out, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(closing + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dump_json(obj) -> str:
    """``dump_json`` rendered one JSON node at a time."""
    out = []
    _reference_render(obj, out, 0)
    return "".join(out) + "\n"


def reference_parse_table(doc: dict, key: str) -> list:
    """The ``(n, n, d, d)`` stack of each summand of a document's table under
    ``key``, read one ``[re, im]`` pair at a time."""
    n, dims = len(doc["set"]), doc["algebra"]["summands"]
    stacks = [np.empty((n, n, d, d), dtype=np.complex128) for d in dims]
    for i, row in enumerate(doc[key]):
        for j, entry in enumerate(row):
            for S, block in zip(stacks, entry, strict=True):
                for a, block_row in enumerate(block):
                    for b, (re, im) in enumerate(block_row):
                        S[i, j, a, b] = complex(float(re), float(im))
    return stacks


def same_stacks(table, stacks) -> bool:
    """Whether the entries of a kernel or metric equal ``stacks``, one
    ``(n, n, d, d)`` array per summand, bit for bit."""
    mine = [np.array([[v.blocks[k] for v in row] for row in table.values])
            for k in range(table.descriptor.num_summands)]
    return [(S.shape, S.tobytes()) for S in mine] == [(S.shape, S.tobytes()) for S in stacks]


def reference_shape_failure(K, tol=DEFAULT_TOL, s0=None, name="K"):
    """The message of the first failed precondition, one entry at a time:
    ``sum_sq_diff_decomposition``'s (every entry self-adjoint) when ``s0`` is
    ``None``, else ``recover_contraction``'s on ``name`` (the entries at
    ``(s, s0)`` self-adjoint); ``None`` when they hold."""
    scale, labels = max(1.0, reference_kernel_norm(K)), K.index_set.labels
    for i in range(K.n):
        if op_norm(K.values[i][i]) > tol.tol_rel * scale:
            if s0 is None:
                return f"diagonal entry at {labels[i]!r} is not zero"
            return f"{name} must vanish on the diagonal"
        for j in range(K.n) if s0 is None else [K.index_set.index(s0)]:
            x = K.values[i][j]
            if op_norm(x - adjoint(x)) > tol.tol_rel * scale:
                if s0 is None:
                    return ("kernel entries must be self-adjoint "
                            f"(offender at ({labels[i]!r}, {labels[j]!r}))")
                return f"{name}(s, {s0!r}) must be self-adjoint for every s"
    return None


def load_bench_module(name: str, siblings=()):
    """``perfbench/<name>.py``, loaded read-only (no bytecode is written).
    ``siblings`` names the ``perfbench`` modules it imports.  They, and the
    module itself (``dataclasses`` looks it up), are in ``sys.modules`` only
    while it loads."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    added = {s: load_bench_module(s) for s in siblings} | {spec.name: module}
    saved = {key: sys.modules.get(key) for key in added}
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules.update(added)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
        for key, old in saved.items():
            if old is None:
                del sys.modules[key]
            else:
                sys.modules[key] = old
    return module


# The seeded generators as they were written one entry at a time: the same
# per-call draws and per-entry formulas.  The array generators must build the
# same tables bit for bit.


def _reference_rng(cfg, *key):
    return np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=key))


def _reference_complex_matrix(rng, rows, cols, magnitude):
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return magnitude / np.sqrt(2.0) * (re + 1j * im)


def _reference_blocks(rng, desc, magnitude):
    return [_reference_complex_matrix(rng, d, d, magnitude) for d in desc.summand_dims]


def _reference_kernel(cfg, entry) -> Kernel:
    """The kernel whose entry ``(i, j)`` has the blocks ``entry(i, j)``."""
    desc, n = cfg.descriptor, cfg.n
    return Kernel(IndexSet([f"s{i + 1}" for i in range(n)]), desc, [
        [AlgebraElement(desc, entry(i, j)) for j in range(n)] for i in range(n)])


def reference_random_gram_kernel(cfg) -> Kernel:
    rng = _reference_rng(cfg, gen._GRAM)
    g = [_reference_blocks(rng, cfg.descriptor, cfg.magnitude) for _ in range(cfg.n)]
    return _reference_kernel(cfg, lambda i, j: [a.conj().T @ b for a, b in zip(g[i], g[j])])


def reference_random_cpd_kernel(cfg, diagonal_zero=False) -> Kernel:
    if diagonal_zero:
        rng = _reference_rng(cfg, gen._CPD_DIAG)
        q = cfg.rank if cfg.rank is not None else 2
        dims = cfg.descriptor.summand_dims
        frames = [np.linalg.qr(_reference_complex_matrix(rng, d, d, 1.0))[0] for d in dims]
        fams = [[[p.conj().T @ np.diag(cfg.magnitude * rng.standard_normal(d)) @ p
                  for d, p in zip(dims, frames)] for _ in range(cfg.n)] for _ in range(q)]

        def entry(i, j):
            blocks = []
            for k, d in enumerate(dims):
                acc = np.zeros((d, d), dtype=np.complex128)
                for fam in fams:
                    delta = fam[i][k] - fam[j][k]
                    acc = acc - delta.conj().T @ delta
                blocks.append(acc)
            return blocks

        return _reference_kernel(cfg, entry)
    rng = _reference_rng(cfg, gen._CPD_MIX)
    alpha = 0.5 + rng.uniform()
    g = [_reference_blocks(rng, cfg.descriptor, cfg.magnitude) for _ in range(cfg.n)]
    c = [_reference_blocks(rng, cfg.descriptor, cfg.magnitude) for _ in range(cfg.n)]
    return _reference_kernel(cfg, lambda i, j: [
        alpha * (gi.conj().T @ gj) + ci + cj.conj().T
        for gi, gj, ci, cj in zip(g[i], g[j], c[i], c[j])])


def reference_random_hermitian_kernel(cfg, detail=0) -> Kernel:
    rng = _reference_rng(cfg, gen._HERMITIAN, detail)
    table = {}
    for i in range(cfg.n):
        for j in range(i, cfg.n):
            x = _reference_blocks(rng, cfg.descriptor, cfg.magnitude)
            if i == j:
                table[i, i] = [0.5 * (b + b.conj().T) for b in x]
            else:
                table[i, j], table[j, i] = x, [b.conj().T for b in x]
    return _reference_kernel(cfg, lambda i, j: table[i, j])


def reference_random_non_cpd_kernel(cfg) -> Kernel:
    H = reference_random_hermitian_kernel(cfg, 0)
    c = gen.NON_CPD_MARGIN
    M = max(1.0, kernel_norm(H))
    eigs = [np.linalg.eigh(0.5 * (C + C.conj().T)) for C in compressed_gram(H)]
    mu = max(0.0, (max(w[0] for w, _ in eigs) + c * M) / (1.0 - c))
    if mu == 0.0:
        return H
    n = cfg.n
    grams = assemble_gram(H)
    for k, (d, (w, u)) in enumerate(zip(cfg.descriptor.summand_dims, eigs)):
        mu_k = w[0] + c * (M + mu)
        if mu_k <= 0.0:
            continue
        tail = u[:, 0].reshape(n - 1, d)
        x = np.concatenate([tail, -tail.sum(axis=0, keepdims=True)]).ravel()
        x /= np.linalg.norm(x)
        grams[k] = grams[k] - mu_k * np.outer(x, x.conj())
    return Kernel._of(H.index_set, cfg.descriptor, grams)


def reference_random_metric(cfg) -> CStarMetric:
    dims = cfg.descriptor.summand_dims
    frame_rng = _reference_rng(cfg, gen._METRIC_FRAME)
    frames = [np.linalg.qr(_reference_complex_matrix(frame_rng, d, d, 1.0))[0] for d in dims]
    for attempt in range(gen._MAX_ATTEMPTS):
        rng = _reference_rng(cfg, gen._METRIC_CORES, attempt)
        cores = [[cfg.magnitude / np.sqrt(2.0)
                  * (rng.standard_normal(d) + 1j * rng.standard_normal(d)) for d in dims]
                 for _ in range(cfg.n)]
        separated = all(
            max(np.max(np.abs(zi - zj)) for zi, zj in zip(cores[i], cores[j]))
            > 1e-6 * cfg.magnitude
            for i in range(cfg.n) for j in range(i + 1, cfg.n))
        if separated:
            return distance_matrix_from_points({
                f"s{i + 1}": ModuleElement(cfg.descriptor, dims,
                                           [np.diag(z) @ p for z, p in zip(cores[i], frames)])
                for i in range(cfg.n)})
    raise RuntimeError("rejection sampling failed to separate the points")
