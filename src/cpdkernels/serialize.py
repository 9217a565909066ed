"""JSON schema for kernels, metrics, and certificates.

One document shape serves kernels and metrics: the algebra is
``{"summands": [d_1, ...]}``, the labeled set is a list of strings, and the
table is a row-major n x n array of elements under ``"values"`` (kernels) or
``"metric"`` (metrics).  An element is an array of blocks, one per summand;
a block is a row-major 2-D array of ``[re, im]`` pairs.

Floats are emitted with 17 significant digits so that a dump/load cycle is
the identity on IEEE doubles, and key order is fixed, so equal objects
serialize to identical bytes.  Both directions work on whole blocks: a
rectangular nest of floats (a block, or a whole table when the summands
have one size) is rendered by one ``%`` format of a layout built for its
shape, and each summand of a table is read as one array.  Anything else
takes the per-node path: the renderer recurses, and the reader walks the
table pair by pair, raising ``SchemaError`` with the path into the
offending document node.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    AlgebraElement,
    ModuleElement,
    ToleranceConfig,
)
from .decomposition import CPDDecomposition, Factorization, MajorizationCertificate
from .embedding import CStarMetric, EmbeddingResult
from .kernels import IndexSet, Kernel, Verdict, Witness, _assembled

__all__ = [
    "SchemaError",
    "dump_json",
    "kernel_to_json",
    "kernel_from_json",
    "metric_to_json",
    "metric_from_json",
    "load_document",
    "element_to_json",
    "module_element_to_json",
    "verdict_to_json",
    "tolerances_to_json",
    "factorization_to_json",
    "decomposition_to_json",
    "embedding_to_json",
    "certificate_to_json",
    "families_to_json",
]


class SchemaError(ValueError):
    """A document does not match the schema; ``path`` locates the node."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _children(nodes: list, *shape: int):
    """The items ``len(shape)`` levels below ``nodes``, in reading order,
    when every node is a nest of lists of ``shape``; else ``None``."""
    for m in shape:
        if set(map(type, nodes)) != {list} or set(map(len, nodes)) != {m}:
            return None
        nodes = list(chain.from_iterable(nodes))
    return nodes


def _float_nest(obj):
    """The shape and leaves of ``obj`` when it is a nonempty rectangular nest
    of lists whose leaves are all floats, else ``None``."""
    shape, x = [], obj
    while type(x) is list and x:
        shape.append(len(x))
        x = x[0]
    leaves = _children([obj], *shape)
    if type(x) is not float or leaves is None or set(map(type, leaves)) != {float}:
        return None
    return shape, leaves


def _layout(shape, indent: int, level: int) -> str:
    """The ``%`` format string of a float nest of ``shape`` at ``level``."""
    if not shape:
        return "%.17g"  # equals format(x, ".17g") for every finite double
    pad = " " * (indent * (level + 1))
    item = _layout(shape[1:], indent, level + 1)
    return "[\n" + pad + (",\n" + pad).join([item] * shape[0]) + "\n" + " " * (indent * level) + "]"


def _render(obj, out: list, indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    closing = " " * (indent * level)
    # Lists first: they are most of the nodes of a document.
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        nest = _float_nest(obj)
        if nest is not None:  # a whole block or table, in one format
            shape, leaves = nest
            if not all(map(math.isfinite, leaves)):
                raise ValueError("non-finite floats cannot be serialized")
            out.append(_layout(shape, indent, level) % tuple(leaves))
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _render(v, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(closing + "]")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError("non-finite floats cannot be serialized")
        out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise ValueError("object keys must be strings")
            out.append(pad + json.dumps(k) + ": ")
            _render(v, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(closing + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj, indent: int = 2) -> str:
    """Deterministic JSON text: fixed key order, 17-significant-digit floats."""
    out: list[str] = []
    _render(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def _block_to_json(b: np.ndarray) -> list:
    return np.stack([b.real, b.imag], axis=-1).tolist()


def _elements_to_json(elements: list) -> list:
    """``element_to_json`` of each of ``elements`` (module elements too), by
    one ``tolist`` per summand of their stacked blocks."""
    if not elements:
        return []
    pairs = [_block_to_json(np.array([x.blocks[k] for x in elements]))
             for k in range(len(elements[0].blocks))]
    return [list(blocks) for blocks in zip(*pairs)]


def element_to_json(x: AlgebraElement) -> list:
    return [_block_to_json(b) for b in x.blocks]


def module_element_to_json(x: ModuleElement) -> dict:
    return {"ranks": list(x.ranks), "blocks": [_block_to_json(b) for b in x.blocks]}


def _table_to_json(T, key: str) -> dict:
    # One nested list of [re, im] pairs per summand, indexed [i][j][row][col].
    pairs, n = [_block_to_json(S) for S in T._stacks], T.n
    return {
        "algebra": {"summands": list(T.descriptor.summand_dims)},
        "set": list(T.index_set.labels),
        key: [[[P[i][j] for P in pairs] for j in range(n)] for i in range(n)],
    }


def kernel_to_json(K: Kernel) -> dict:
    return _table_to_json(K, "values")


def metric_to_json(dm: CStarMetric) -> dict:
    return _table_to_json(dm, "metric")


def verdict_to_json(v: Verdict) -> dict:
    witness = None
    if v.witness is not None:
        witness = {
            "summand": v.witness.summand,
            "eigenvalue": float(v.witness.eigenvalue),
            "vector": _block_to_json(np.asarray(v.witness.vector).ravel()),
        }
    return {"holds": v.holds, "witness": witness, "context": v.context}


def tolerances_to_json(tol: ToleranceConfig) -> dict:
    return {"tol_rel": tol.tol_rel, "rank_tol_rel": tol.rank_tol_rel}


def factorization_to_json(fact: Factorization) -> dict:
    return {
        "algebra": {"summands": list(fact.descriptor.summand_dims)},
        "set": list(fact.index_set.labels),
        "ranks": list(fact.ranks),
        "points": _elements_to_json([fact.V[s] for s in fact.index_set.labels]),
    }


def decomposition_to_json(dec: CPDDecomposition) -> dict:
    fact = dec.factorization
    return {
        "factorization": factorization_to_json(fact),
        "affine": _elements_to_json([dec.h[s] for s in fact.index_set.labels]),
        "base_point": dec.base_point,
    }


def embedding_to_json(res: EmbeddingResult) -> dict:
    return {
        "factorization": factorization_to_json(res.factorization),
        "base_point": res.base_point,
    }


def certificate_to_json(cert: MajorizationCertificate) -> dict:
    return {
        "W": [_block_to_json(w) for w in cert.W],
        "C": [_block_to_json(c) for c in cert.C],
        "residual": cert.residual,
        "norm_W": cert.norm_W,
    }


def families_to_json(families, index_set: IndexSet) -> list:
    """Families from the sum-of-squared-differences split, each rendered as
    one element per label in set order."""
    n = index_set.n
    flat = _elements_to_json([fam[s] for fam in families for s in index_set.labels])
    return [flat[f * n : (f + 1) * n] for f in range(len(families))]


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(path, message)


def _get(doc: dict, key: str, path: str):
    _expect(isinstance(doc, dict), path, "expected an object")
    if key not in doc:
        raise SchemaError(path, f"missing key {key!r}")
    return doc[key]


def _parse_number(x, path: str) -> float:
    _expect(isinstance(x, (int, float)) and not isinstance(x, bool), path, "expected a number")
    try:
        value = float(x)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    _expect(math.isfinite(value), path, "expected a finite number, not NaN or Infinity")
    return value


def _parse_header(doc, path: str) -> tuple[AlgebraDescriptor, IndexSet]:
    summands = _get(_get(doc, "algebra", path), "summands", f"{path}.algebra")
    _expect(isinstance(summands, list) and summands, f"{path}.algebra.summands",
            "expected a nonempty list of sizes")
    for k, d in enumerate(summands):
        _expect(isinstance(d, int) and not isinstance(d, bool) and d >= 1,
                f"{path}.algebra.summands[{k}]", "expected an integer >= 1")
    labels = _get(doc, "set", path)
    _expect(isinstance(labels, list) and labels, f"{path}.set",
            "expected a nonempty list of labels")
    for i, s in enumerate(labels):
        _expect(isinstance(s, str), f"{path}.set[{i}]", "expected a string label")
    _expect(len(set(labels)) == len(labels), f"{path}.set", "labels must be distinct")
    return AlgebraDescriptor(summands), IndexSet(labels)


def _float_stacks(node, desc: AlgebraDescriptor, n: int):
    """The ``(n, n, d, d)`` stack of each summand of a well-formed ``n x n``
    table whose numbers are all finite, by one array conversion per summand
    (the bits of ``complex(re, im)``); else ``None``.  Integers are read by
    ``float``, as the pair walk reads them: ``dump_json`` writes ``0.0`` as
    ``0``."""
    m = desc.num_summands
    blocks = _children([node], n, n, m)
    if blocks is None:
        return None
    stacks = []
    for k, d in enumerate(desc.summand_dims):
        leaves = _children(blocks[k::m], d, d, 2)
        if leaves is None or not set(map(type, leaves)) <= {float, int}:
            return None
        try:
            a = np.fromiter(map(float, leaves), np.float64, len(leaves))
        except OverflowError:  # an integer beyond the float range
            return None
        if not np.isfinite(a).all():
            return None
        stacks.append(a.view(np.complex128).reshape(n, n, d, d))
    return stacks


def _parse_stacks(node, desc: AlgebraDescriptor, n: int, path: str) -> list[np.ndarray]:
    """The ``(n, n, d, d)`` stack of each summand of an ``n x n`` table, read
    whole by ``_float_stacks`` where it can be.  Else the table is walked
    pair by pair in reading order: the walk accepts every number the schema
    allows and raises ``SchemaError`` at the first node that breaks it."""
    stacks = _float_stacks(node, desc, n)
    if stacks is not None:
        return stacks
    m, dims = desc.num_summands, desc.summand_dims
    stacks = [np.empty((n, n, d, d), dtype=np.complex128) for d in dims]
    _expect(isinstance(node, list) and len(node) == n, path, f"expected {n} rows")
    for i, row in enumerate(node):
        _expect(isinstance(row, list) and len(row) == n, f"{path}[{i}]", f"expected {n} entries")
        for j, entry in enumerate(row):
            p = f"{path}[{i}][{j}]"
            _expect(isinstance(entry, list) and len(entry) == m, p, f"expected {m} blocks")
            for k, (S, block, d) in enumerate(zip(stacks, entry, dims)):
                _expect(isinstance(block, list) and len(block) == d, f"{p}[{k}]",
                        f"expected {d} rows")
                for a, line in enumerate(block):
                    _expect(isinstance(line, list) and len(line) == d, f"{p}[{k}][{a}]",
                            f"expected {d} entries")
                    for b, pair in enumerate(line):
                        q = f"{p}[{k}][{a}][{b}]"
                        _expect(isinstance(pair, list) and len(pair) == 2, q,
                                "expected an [re, im] pair")
                        S[i, j, a, b] = complex(_parse_number(pair[0], f"{q}[0]"),
                                                _parse_number(pair[1], f"{q}[1]"))
    return stacks


def _table_from_json(cls, key: str, doc, path: str):
    desc, index_set = _parse_header(doc, path)
    stacks = _parse_stacks(_get(doc, key, path), desc, index_set.n, f"{path}.{key}")
    return cls._of(index_set, desc, [_assembled(S) for S in stacks])


def kernel_from_json(doc, path: str = "$") -> Kernel:
    return _table_from_json(Kernel, "values", doc, path)


def metric_from_json(doc, path: str = "$") -> CStarMetric:
    return _table_from_json(CStarMetric, "metric", doc, path)


def load_document(text: str):
    """Parse a kernel or metric document, deciding by which table key is
    present."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"malformed JSON: {exc}") from None
    _expect(isinstance(doc, dict), "$", "expected a top-level object")
    if "values" in doc and "metric" in doc:
        raise SchemaError("$", "document has both 'values' and 'metric'")
    if "values" in doc:
        return kernel_from_json(doc)
    if "metric" in doc:
        return metric_from_json(doc)
    raise SchemaError("$", "document has neither 'values' nor 'metric'")
