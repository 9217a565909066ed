"""JSON schema for kernels, metrics, and certificates.

One document shape serves kernels and metrics: the algebra is
``{"summands": [d_1, ...]}``, the labeled set is a list of strings, and the
table is a row-major n x n array of elements under ``"values"`` (kernels) or
``"metric"`` (metrics).  An element is an array of blocks, one per summand;
a block is a row-major 2-D array of ``[re, im]`` pairs.

Floats are emitted with 17 significant digits so that a dump/load cycle is
the identity on IEEE doubles, and key order is fixed, so equal objects
serialize to identical bytes.  Loaders raise ``SchemaError`` carrying the
path into the offending document node.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    AlgebraElement,
    ModuleElement,
    ToleranceConfig,
)
from .decomposition import CPDDecomposition, Factorization, MajorizationCertificate
from .embedding import CStarMetric, EmbeddingResult, _metric_of
from .kernels import IndexSet, Kernel, Verdict, Witness, _kernel_from_entries, _stack

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


def _render(obj, out: list, indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    closing = " " * (indent * level)
    # Lists first: they are most of the nodes of a document.
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        if all(type(v) is float for v in obj):  # a leaf list, in one join
            if not all(map(math.isfinite, obj)):
                raise ValueError("non-finite floats cannot be serialized")
            items = (",\n" + pad).join([format(v, ".17g") for v in obj])
            out.append("[\n" + pad + items + "\n" + closing + "]")
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


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _block_to_json(b: np.ndarray) -> list:
    return np.stack([b.real, b.imag], axis=-1).tolist()


def element_to_json(x: AlgebraElement) -> list:
    return [_block_to_json(b) for b in x.blocks]


def module_element_to_json(x: ModuleElement) -> dict:
    return {
        "ranks": list(x.ranks),
        "blocks": [_block_to_json(b) for b in x.blocks],
    }


def _table_to_json(index_set: IndexSet, desc: AlgebraDescriptor, key: str, stacks) -> dict:
    # One nested list of [re, im] pairs per summand, indexed [i][j][row][col].
    pairs, n = [_block_to_json(S) for S in stacks], index_set.n
    return {
        "algebra": {"summands": list(desc.summand_dims)},
        "set": list(index_set.labels),
        key: [[[P[i][j] for P in pairs] for j in range(n)] for i in range(n)],
    }


def kernel_to_json(K: Kernel) -> dict:
    return _table_to_json(K.index_set, K.descriptor, "values", [_stack(G, K.n) for G in K._grams])


def metric_to_json(dm: CStarMetric) -> dict:
    return _table_to_json(dm.index_set, dm.descriptor, "metric", dm._stacks)


def verdict_to_json(v: Verdict) -> dict:
    witness = None
    if v.witness is not None:
        witness = {
            "summand": v.witness.summand,
            "eigenvalue": float(v.witness.eigenvalue),
            "vector": [_pair(z) for z in np.asarray(v.witness.vector).ravel()],
        }
    return {"holds": v.holds, "witness": witness, "context": v.context}


def tolerances_to_json(tol: ToleranceConfig) -> dict:
    return {"tol_rel": tol.tol_rel, "rank_tol_rel": tol.rank_tol_rel}


def factorization_to_json(fact: Factorization) -> dict:
    return {
        "algebra": {"summands": list(fact.descriptor.summand_dims)},
        "set": list(fact.index_set.labels),
        "ranks": list(fact.ranks),
        "points": [
            [_block_to_json(b) for b in fact.V[s].blocks]
            for s in fact.index_set.labels
        ],
    }


def decomposition_to_json(dec: CPDDecomposition) -> dict:
    fact = dec.factorization
    return {
        "factorization": factorization_to_json(fact),
        "affine": [
            element_to_json(dec.h[s]) for s in fact.index_set.labels
        ],
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
    return [
        [element_to_json(fam[s]) for s in index_set.labels] for fam in families
    ]


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(path, message)


def _get(doc: dict, key: str, path: str):
    _expect(isinstance(doc, dict), path, "expected an object")
    if key not in doc:
        raise SchemaError(path, f"missing key {key!r}")
    return doc[key]


def _parse_number(x, path: str) -> float:
    if type(x) is float and math.isfinite(x):  # the common case, decided first
        return x
    _expect(
        isinstance(x, (int, float)) and not isinstance(x, bool),
        path,
        "expected a number",
    )
    try:
        value = float(x)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    _expect(math.isfinite(value), path, "expected a finite number, not NaN or Infinity")
    return value


def _parse_block(node, d: int, path: str) -> np.ndarray:
    _expect(isinstance(node, list) and len(node) == d, path, f"expected {d} rows")
    entries = []
    for i, row in enumerate(node):
        if not (isinstance(row, list) and len(row) == d):
            raise SchemaError(f"{path}[{i}]", f"expected {d} entries")
        for j, pair in enumerate(row):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise SchemaError(f"{path}[{i}][{j}]", "expected an [re, im] pair")
            re, im = pair
            # Paths are formatted only for numbers off the finite-float fast path.
            if not (type(re) is float and type(im) is float
                    and math.isfinite(re) and math.isfinite(im)):
                re = _parse_number(re, f"{path}[{i}][{j}][0]")
                im = _parse_number(im, f"{path}[{i}][{j}][1]")
            entries.append(complex(re, im))
    return np.array(entries, dtype=np.complex128).reshape(d, d)


def _parse_header(doc, path: str) -> tuple[AlgebraDescriptor, IndexSet]:
    algebra = _get(doc, "algebra", path)
    summands = _get(algebra, "summands", f"{path}.algebra")
    _expect(
        isinstance(summands, list) and summands,
        f"{path}.algebra.summands",
        "expected a nonempty list of sizes",
    )
    for k, d in enumerate(summands):
        _expect(
            isinstance(d, int) and not isinstance(d, bool) and d >= 1,
            f"{path}.algebra.summands[{k}]",
            "expected an integer >= 1",
        )
    labels = _get(doc, "set", path)
    _expect(
        isinstance(labels, list) and labels,
        f"{path}.set",
        "expected a nonempty list of labels",
    )
    for i, s in enumerate(labels):
        _expect(isinstance(s, str), f"{path}.set[{i}]", "expected a string label")
    _expect(
        len(set(labels)) == len(labels), f"{path}.set", "labels must be distinct"
    )
    return AlgebraDescriptor(summands), IndexSet(labels)


def _parse_entries(node, desc: AlgebraDescriptor, n: int, path: str):
    """Yields ``(i, j, blocks)`` for the entries of an ``n x n`` table in
    reading order, each entry's blocks parsed."""
    _expect(isinstance(node, list) and len(node) == n, path, f"expected {n} rows")
    for i, row in enumerate(node):
        _expect(
            isinstance(row, list) and len(row) == n,
            f"{path}[{i}]",
            f"expected {n} entries",
        )
        for j, entry in enumerate(row):
            epath = f"{path}[{i}][{j}]"
            _expect(
                isinstance(entry, list) and len(entry) == desc.num_summands,
                epath,
                f"expected {desc.num_summands} blocks",
            )
            yield i, j, [
                _parse_block(b, d, f"{epath}[{k}]")
                for k, (b, d) in enumerate(zip(entry, desc.summand_dims))
            ]


def kernel_from_json(doc, path: str = "$") -> Kernel:
    """Parses each block straight into its slot of the kernel's arrays."""
    desc, index_set = _parse_header(doc, path)
    node = _get(doc, "values", path)
    return _kernel_from_entries(
        index_set, desc, _parse_entries(node, desc, index_set.n, f"{path}.values"))


def metric_from_json(doc, path: str = "$") -> CStarMetric:
    desc, index_set = _parse_header(doc, path)
    n = index_set.n
    stacks = [np.empty((n, n, d, d), dtype=np.complex128) for d in desc.summand_dims]
    for i, j, blocks in _parse_entries(_get(doc, "metric", path), desc, n, f"{path}.metric"):
        for S, b in zip(stacks, blocks):
            S[i, j] = b
    return _metric_of(index_set, desc, stacks)


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
