"""JSON schema for kernels, metrics, and certificates.

One document shape serves kernels and metrics: the algebra is
``{"summands": [d_1, ...]}``, the labeled set is a list of strings, and the
table is a row-major n x n array of elements under ``"values"`` (kernels) or
``"metric"`` (metrics).  An element is an array of blocks, one per summand;
a block is a row-major 2-D array of ``[re, im]`` pairs.

Floats are emitted with 17 significant digits so that a dump/load cycle is
the identity on IEEE doubles, and key order is fixed, so equal objects
serialize to identical bytes.  Both directions work on whole blocks: the
CLI keeps each array of a report in a node (``_Arrays``) that is rendered by
one ``%`` format of a layout built for its shape, a rectangular nest of
floats in a plain document is rendered the same way, and each summand of a
table is read as one array.  Anything else takes the per-node path: the
renderer recurses, and the reader walks the table pair by pair, raising
``SchemaError`` with the path into the offending document node.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .algebra import AlgebraDescriptor, AlgebraElement, ToleranceConfig
from .decomposition import CPDDecomposition, Factorization, MajorizationCertificate
from .embedding import CStarMetric, EmbeddingResult
from .kernels import IndexSet, Kernel, Verdict, _assembled, _Points

__all__ = [
    "SchemaError",
    "dump_json",
    "kernel_to_json",
    "kernel_from_json",
    "metric_to_json",
    "metric_from_json",
    "load_document",
    "element_to_json",
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
        types = set(map(type, nodes))
        if not all(issubclass(t, list) for t in types) or set(map(len, nodes)) != {m}:
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


def _layout(shape, level: int) -> str:
    """The ``%`` format string of a float nest of ``shape`` at ``level``.  A
    list of shapes in ``shape`` stands for one list holding a nest of each;
    a zero-length level renders as ``[]``."""
    if not shape:
        return "%.17g"  # equals format(x, ".17g") for every finite double
    if not shape[0]:
        return "[]"
    pad = "  " * (level + 1)
    if type(shape[0]) is list:
        items = [_layout(s, level + 1) for s in shape[0]]
    else:
        items = [_layout(shape[1:], level + 1)] * shape[0]
    return "[\n" + pad + (",\n" + pad).join(items) + "\n" + "  " * level + "]"


@dataclass(frozen=True, eq=False)
class _Arrays:
    """A report node: the nest of ``shape`` whose entry at each index lists
    the ``[re, im]`` block of every array there (``shape`` is the arrays'
    leading axes), or, with ``shape`` ``None``, the nest of the one array."""

    shape: tuple | None
    arrays: tuple


def _render(obj, out: list, level: int) -> None:
    pad, closing = "  " * (level + 1), "  " * level
    if isinstance(obj, _Arrays):  # one format; the leaves by one tolist
        lead, outer = math.prod(obj.shape or ()), len(obj.shape or ())
        blocks = [A.shape[outer:] + (2,) for A in obj.arrays]
        leaves = np.concatenate([A.reshape(lead, -1) for A in obj.arrays], axis=1,
                                dtype=np.complex128).view(np.float64) if lead else np.empty(0)
        if not np.isfinite(leaves).all():
            raise ValueError("non-finite floats cannot be serialized")
        shape = blocks[0] if obj.shape is None else obj.shape + (blocks,)
        out.append(_layout(shape, level) % tuple(leaves.ravel().tolist()))
    # Lists next: they are most of the other nodes of a document.
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        nest = _float_nest(obj)
        if nest is not None:  # a whole block or table, in one format
            shape, leaves = nest
            if not all(map(math.isfinite, leaves)):
                raise ValueError("non-finite floats cannot be serialized")
            out.append(_layout(shape, level) % tuple(leaves))
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _render(v, out, level + 1)
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
            _render(v, out, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(closing + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj) -> str:
    """Deterministic JSON text: fixed key order, two-space indent,
    17-significant-digit floats."""
    out: list[str] = []
    _render(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _block_to_json(b: np.ndarray) -> list:
    return np.stack([b.real, b.imag], axis=-1).tolist()


def _plain(obj):
    """``obj`` with every ``_Arrays`` node in it turned into nested lists."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if not isinstance(obj, _Arrays):
        return obj

    def entries(nests, depth: int) -> list:
        return list(nests) if depth == 0 else [entries(t, depth - 1) for t in zip(*nests)]

    nests = [_block_to_json(A) for A in obj.arrays]
    return nests[0] if obj.shape is None else entries(nests, len(obj.shape))


def _points_to_json(points: _Points) -> _Arrays:
    """Each element of ``points`` in set order."""
    return _Arrays((points.index_set.n,), points._arrays)


def element_to_json(x: AlgebraElement) -> list:
    return [_block_to_json(b) for b in x.blocks]


def _table_to_json(T, key: str) -> dict:
    # One (n, n, d, d) stack per summand, indexed [i][j][row][col].
    return {
        "algebra": {"summands": list(T.descriptor.summand_dims)},
        "set": list(T.index_set.labels),
        key: _Arrays((T.n, T.n), T._stacks),
    }


def kernel_to_json(K: Kernel) -> dict:
    return _plain(_table_to_json(K, "values"))


def metric_to_json(dm: CStarMetric) -> dict:
    return _plain(_table_to_json(dm, "metric"))


def _verdict_to_json(v: Verdict) -> dict:
    witness = None
    if v.witness is not None:
        witness = {
            "summand": v.witness.summand,
            "eigenvalue": float(v.witness.eigenvalue),
            "vector": _Arrays(None, (np.asarray(v.witness.vector).ravel(),)),
        }
    return {"holds": v.holds, "witness": witness, "context": v.context}


def verdict_to_json(v: Verdict) -> dict:
    return _plain(_verdict_to_json(v))


def tolerances_to_json(tol: ToleranceConfig) -> dict:
    return {"tol_rel": tol.tol_rel, "rank_tol_rel": tol.rank_tol_rel}


def _factorization_to_json(fact: Factorization) -> dict:
    return {
        "algebra": {"summands": list(fact.descriptor.summand_dims)},
        "set": list(fact.index_set.labels),
        "ranks": list(fact.ranks),
        "points": _points_to_json(fact.V),
    }


def factorization_to_json(fact: Factorization) -> dict:
    return _plain(_factorization_to_json(fact))


def _decomposition_to_json(dec: CPDDecomposition) -> dict:
    return {
        "factorization": _factorization_to_json(dec.factorization),
        "affine": _points_to_json(dec.h),
        "base_point": dec.base_point,
    }


def decomposition_to_json(dec: CPDDecomposition) -> dict:
    return _plain(_decomposition_to_json(dec))


def _embedding_to_json(res: EmbeddingResult) -> dict:
    return {
        "factorization": _factorization_to_json(res.factorization),
        "base_point": res.base_point,
    }


def embedding_to_json(res: EmbeddingResult) -> dict:
    return _plain(_embedding_to_json(res))


def _certificate_to_json(cert: MajorizationCertificate) -> dict:
    return {
        "W": _Arrays((), cert.W),
        "C": _Arrays((), cert.C),
        "residual": cert.residual,
        "norm_W": cert.norm_W,
    }


def certificate_to_json(cert: MajorizationCertificate) -> dict:
    return _plain(_certificate_to_json(cert))


def _families_to_json(families, index_set: IndexSet) -> _Arrays:
    points = [_Points.of(index_set, fam)._arrays for fam in families]
    return _Arrays((len(points), index_set.n), tuple(np.stack(X) for X in zip(*points)))


def families_to_json(families, index_set: IndexSet) -> list:
    """Families from the sum-of-squared-differences split, each rendered as
    one element per label in set order."""
    return _plain(_families_to_json(families, index_set))


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(path, message)


def _get(doc: dict, key: str, path: str):
    _expect(isinstance(doc, dict), path, "expected an object")
    if key not in doc:
        raise SchemaError(path, f"missing key {key!r}")
    return doc[key]


def _number_type(t: type) -> bool:
    """Whether the schema reads a value of type ``t`` as a number: ``bool``
    is not one."""
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _parse_number(x, path: str) -> float:
    _expect(_number_type(type(x)), path, "expected a number")
    try:
        value = float(x)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    _expect(math.isfinite(value), path, "expected a finite number, not NaN or Infinity")
    return value


def _parse_header(doc) -> tuple[AlgebraDescriptor, IndexSet]:
    summands = _get(_get(doc, "algebra", "$"), "summands", "$.algebra")
    _expect(isinstance(summands, list) and summands, "$.algebra.summands",
            "expected a nonempty list of sizes")
    for k, d in enumerate(summands):
        _expect(isinstance(d, int) and not isinstance(d, bool) and d >= 1,
                f"$.algebra.summands[{k}]", "expected an integer >= 1")
    labels = _get(doc, "set", "$")
    _expect(isinstance(labels, list) and labels, "$.set",
            "expected a nonempty list of labels")
    for i, s in enumerate(labels):
        _expect(isinstance(s, str), f"$.set[{i}]", "expected a string label")
    _expect(len(set(labels)) == len(labels), "$.set", "labels must be distinct")
    return AlgebraDescriptor(summands), IndexSet(labels)


def _float_stacks(node, desc: AlgebraDescriptor, n: int):
    """The ``(n, n, d, d)`` stack of each summand of a well-formed ``n x n``
    table whose numbers are all finite, by one array conversion per summand
    (the bits of ``complex(re, im)``); else ``None``.  It accepts what the
    pair walk accepts: integers are read by ``float``, as the walk reads
    them (``dump_json`` writes ``0.0`` as ``0``)."""
    m = desc.num_summands
    blocks = _children([node], n, n, m)
    if blocks is None:
        return None
    stacks = []
    for k, d in enumerate(desc.summand_dims):
        leaves = _children(blocks[k::m], d, d, 2)
        if leaves is None or not all(map(_number_type, set(map(type, leaves)))):
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
    whole by ``_float_stacks``.  A table it refuses is walked pair by pair in
    reading order, only to raise ``SchemaError`` at the first node that
    breaks the schema; the walk builds nothing."""
    stacks = _float_stacks(node, desc, n)
    if stacks is not None:
        return stacks
    m, dims = desc.num_summands, desc.summand_dims
    _expect(isinstance(node, list) and len(node) == n, path, f"expected {n} rows")
    for i, row in enumerate(node):
        _expect(isinstance(row, list) and len(row) == n, f"{path}[{i}]", f"expected {n} entries")
        for j, entry in enumerate(row):
            p = f"{path}[{i}][{j}]"
            _expect(isinstance(entry, list) and len(entry) == m, p, f"expected {m} blocks")
            for k, (block, d) in enumerate(zip(entry, dims)):
                _expect(isinstance(block, list) and len(block) == d, f"{p}[{k}]",
                        f"expected {d} rows")
                for a, line in enumerate(block):
                    _expect(isinstance(line, list) and len(line) == d, f"{p}[{k}][{a}]",
                            f"expected {d} entries")
                    for b, pair in enumerate(line):
                        q = f"{p}[{k}][{a}][{b}]"
                        _expect(isinstance(pair, list) and len(pair) == 2, q,
                                "expected an [re, im] pair")
                        _parse_number(pair[0], f"{q}[0]")
                        _parse_number(pair[1], f"{q}[1]")
    raise SchemaError(path, "table not read")  # fail closed: the walk raises first


def _table_from_json(cls, key: str, doc):
    desc, index_set = _parse_header(doc)
    stacks = _parse_stacks(_get(doc, key, "$"), desc, index_set.n, f"$.{key}")
    return cls._of(index_set, desc, [_assembled(S) for S in stacks])


def kernel_from_json(doc) -> Kernel:
    return _table_from_json(Kernel, "values", doc)


def metric_from_json(doc) -> CStarMetric:
    return _table_from_json(CStarMetric, "metric", doc)


def load_document(text: str):
    """Parse a kernel or metric document, deciding by which table key is
    present."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # the digit limit, deep nesting
        raise SchemaError("$", f"malformed JSON: {exc}") from None
    _expect(isinstance(doc, dict), "$", "expected a top-level object")
    if "values" in doc and "metric" in doc:
        raise SchemaError("$", "document has both 'values' and 'metric'")
    if "values" in doc:
        return kernel_from_json(doc)
    if "metric" in doc:
        return metric_from_json(doc)
    raise SchemaError("$", "document has neither 'values' nor 'metric'")
