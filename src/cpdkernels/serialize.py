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
from .embedding import CStarMetric, EmbeddingResult
from .kernels import IndexSet, Kernel, Verdict, Witness

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
    if obj is None:
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
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _render(v, out, indent, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(closing + "]")
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
    return [[_pair(b[i, j]) for j in range(b.shape[1])] for i in range(b.shape[0])]


def element_to_json(x: AlgebraElement) -> list:
    return [_block_to_json(b) for b in x.blocks]


def module_element_to_json(x: ModuleElement) -> dict:
    return {
        "ranks": list(x.ranks),
        "blocks": [_block_to_json(b) for b in x.blocks],
    }


def _table_to_json(values) -> list:
    return [[element_to_json(v) for v in row] for row in values]


def kernel_to_json(K: Kernel) -> dict:
    return {
        "algebra": {"summands": list(K.descriptor.summand_dims)},
        "set": list(K.index_set.labels),
        "values": _table_to_json(K.values),
    }


def metric_to_json(dm: CStarMetric) -> dict:
    return {
        "algebra": {"summands": list(dm.descriptor.summand_dims)},
        "set": list(dm.index_set.labels),
        "metric": _table_to_json(dm.values),
    }


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
    out = np.empty((d, d), dtype=np.complex128)
    for i, row in enumerate(node):
        _expect(
            isinstance(row, list) and len(row) == d,
            f"{path}[{i}]",
            f"expected {d} entries",
        )
        for j, pair in enumerate(row):
            ppath = f"{path}[{i}][{j}]"
            _expect(
                isinstance(pair, list) and len(pair) == 2,
                ppath,
                "expected an [re, im] pair",
            )
            out[i, j] = complex(
                _parse_number(pair[0], ppath + "[0]"),
                _parse_number(pair[1], ppath + "[1]"),
            )
    return out


def _parse_element(node, desc: AlgebraDescriptor, path: str) -> AlgebraElement:
    _expect(
        isinstance(node, list) and len(node) == desc.num_summands,
        path,
        f"expected {desc.num_summands} blocks",
    )
    blocks = [
        _parse_block(b, d, f"{path}[{k}]")
        for k, (b, d) in enumerate(zip(node, desc.summand_dims))
    ]
    return AlgebraElement(desc, blocks)


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


def _parse_table(node, desc, index_set, path: str):
    n = index_set.n
    _expect(isinstance(node, list) and len(node) == n, path, f"expected {n} rows")
    values = []
    for i, row in enumerate(node):
        _expect(
            isinstance(row, list) and len(row) == n,
            f"{path}[{i}]",
            f"expected {n} entries",
        )
        values.append(
            [
                _parse_element(v, desc, f"{path}[{i}][{j}]")
                for j, v in enumerate(row)
            ]
        )
    return values


def kernel_from_json(doc, path: str = "$") -> Kernel:
    desc, index_set = _parse_header(doc, path)
    values = _parse_table(_get(doc, "values", path), desc, index_set, f"{path}.values")
    return Kernel(index_set, desc, values)


def metric_from_json(doc, path: str = "$") -> CStarMetric:
    desc, index_set = _parse_header(doc, path)
    values = _parse_table(_get(doc, "metric", path), desc, index_set, f"{path}.metric")
    return CStarMetric(index_set, desc, values)


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
