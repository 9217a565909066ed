"""Digest the command-line reports of one checkout over a fixed corpus.

    python tools/report_digests.py SRC OUT.json

Imports ``cpdkernels`` from ``SRC/src``, generates the corpus with that
checkout, runs every command through ``cli.main`` in-process with
``--no-timings``, and writes one SHA-256 per command, of its exit code,
standard output, standard error and the warnings it raised, to ``OUT.json``.
Two checkouts give the same bytes exactly where their digest files agree
under ``diff``.

The corpus: gram, cpd, cpd-diag, hermitian, non-cpd and metric documents
from ``gen`` and the pair of ``random_majorized_pair``, over summands
``[1]``, ``[2,1]``, ``[8,8]``, ``[3,2]``, n in {1, 2, 3, 6, 10} and seeds
{1, 9001}; on each kernel document ``check-pd``, ``check-cpd`` by each
method, ``transform``, ``ssd-decompose --verify`` and ``decompose --verify``
at the first and the last label, and the same on copies of each cpd-diag
document with one summand, or all, set to zero (so a factorization has rank
0 in a summand, and the split has no families); on each metric
``check-metric`` and ``embed --verify`` at the first and the last label,
and, with two labels or more, ``check-metric`` and ``embed --verify`` on
copies of it that each break one axiom (see ``BREAKS``) and on copies placed
at the positivity threshold (see ``MARGINS``); ``majorize`` on the pair in
both orders; the same commands on the four fixtures, and the demo.  Last,
the malformed corpus: copies of the [2,1], n=3, seed-1 cpd and metric
documents that each break the table once, by every kind of ``WALK_ERRORS``,
at the first entry (first block, row, pair and number) and at the last
(last of each), copies that break the header (see ``HEADER_ERRORS``), and
the documents of ``RAW_DOCUMENTS``, each read by ``check-pd`` and by
``check-metric``, and those of them from ``EXTREME_TABLES`` run as kernel
documents are.  A command that raises instead of exiting is recorded by
the name of the exception's type.  Every generated document (``gen``
output, the pair and the fixtures) is also read back and digested as the
public writers render it, ``dump_json(kernel_to_json(.))`` or
``metric_to_json``, so the plain writers are under the same byte check.
Documents are written to a temporary directory and named relative to it,
so no path enters a report.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

DIMS = ("1", "2,1", "8,8", "3,2")
SIZES = (1, 2, 3, 6, 10)
SEEDS = (1, 9001)
CLASSES = ("gram", "cpd", "cpd-diag", "hermitian", "non-cpd", "metric")

# Each break maps entries (i, j) of a metric document to a change of every
# summand's block there; "negative-identity" ties the summands' margins, and
# "triangle" needs three labels.
BREAKS = {
    "non-self-adjoint": {(0, 1): lambda B: B + 1j * np.eye(len(B))},
    "negative": {(0, 1): lambda B: -(B + np.eye(len(B))),
                 (1, 0): lambda B: -(B + np.eye(len(B)))},
    "negative-identity": {(0, 1): lambda B: -np.eye(len(B)), (1, 0): lambda B: -np.eye(len(B))},
    "asymmetric": {(0, 1): lambda B: B + np.eye(len(B))},
    "diagonal": {(0, 0): lambda B: np.eye(len(B))},
    "zero-distance": {(0, 1): lambda B: 0 * B, (1, 0): lambda B: 0 * B},
    "triangle": {(0, 1): lambda B: 1e3 * B, (1, 0): lambda B: 1e3 * B},
}

# Each placed copy of a metric document puts the bottom eigenvalue of every
# summand of one matrix at ``m * TOL_REL`` times that matrix's C*-norm, so its
# relative margin is ``m`` tolerances: the matrix is entry (0, 1) and (1, 0),
# or, with three labels or more, the slack ``d(0,u) + d(u,1) - d(0,1)`` of the
# tightest triangle over (0, 1), placed by moving d(0, 1).  Positivity holds
# down to ``m = -1``; the Cholesky pass test decides clear passes, ``eigh`` the
# rest, so these copies cross the line between the two.
MARGINS = (2.0, 0.5, -0.5, -0.9, -1.1, -2.0)
TOL_REL = 1e-9  # the default tolerance, which every command here runs at


# Each kind maps to ``(depth, value)``: in the list ``depth`` levels below
# the table along index ``t`` (0 or -1; depth 1 is row ``t``, 2 its entry
# ``t``, 3 that entry's block ``t``, 4 the block's row ``t``, 5 that row's
# ``[re, im]`` pair ``t``), item ``t`` is removed (``POP``) or set to ``value``.
POP = object()
WALK_ERRORS = {
    "short-row": (1, POP),
    "entry-object": (1, {}),
    "short-entry": (2, POP),
    "short-block": (3, POP),
    "short-line": (4, POP),
    "short-pair": (5, POP),
    "number-string": (5, "0"),
    "number-bool": (5, True),
    "number-null": (5, None),
    "number-list": (5, [0.5]),
    "number-nan": (5, float("nan")),
    "number-infinity": (5, -float("inf")),
    "number-huge-int": (5, 10**400),
}

# Each kind edits a document's header or its table as a whole.
HEADER_ERRORS = {
    "no-algebra": lambda doc, key: doc.pop("algebra"),
    "algebra-list": lambda doc, key: doc.__setitem__("algebra", [2, 1]),
    "no-summands": lambda doc, key: doc["algebra"].pop("summands"),
    "empty-summands": lambda doc, key: doc["algebra"].__setitem__("summands", []),
    "zero-summand": lambda doc, key: doc["algebra"]["summands"].__setitem__(0, 0),
    "bool-summand": lambda doc, key: doc["algebra"]["summands"].__setitem__(-1, True),
    "extra-summand": lambda doc, key: doc["algebra"]["summands"].append(1),
    "no-set": lambda doc, key: doc.pop("set"),
    "empty-set": lambda doc, key: doc.__setitem__("set", []),
    "number-label": lambda doc, key: doc["set"].__setitem__(0, 1),
    "duplicate-label": lambda doc, key: doc["set"].__setitem__(-1, doc["set"][0]),
    "no-table": lambda doc, key: doc.pop(key),
    "both-tables": lambda doc, key: doc.__setitem__(
        "metric" if key == "values" else "values", doc[key]),
    "table-object": lambda doc, key: doc.__setitem__(key, {}),
    "short-table": lambda doc, key: doc[key].pop(),
}

# The documents the walk errors and the header errors break, with their table keys.
MALFORMED_BASES = (("cpd-2,1-n3-s1.json", "values"), ("metric-2,1-n3-s1.json", "metric"))

# Scalar kernel tables at the numeric extremes, all finite: a hermiticity
# defect whose square overflows, one that overflows itself, then tables
# whose decisions overflow, one not CPD, one CPD but not PD, and one PD;
# last a CPD table whose skew part, doubled, would overflow.
EXTREME_TABLES = {
    "skew-1e300": [[2, -1 + 1e300j], [-1, 2]],
    "skew-overflow": [[0, 1.7e308], [-1.7e308, 0]],
    "overflow-non-cpd": [[1e308, 1.7e308], [1.7e308, 1e308]],
    "overflow-cpd": [[1e308, -1.7e308], [-1.7e308, 1e308]],
    "overflow-pd": [[1e308, -1], [-1, 1e308]],
    "cpd-skew-1.7e308": [[2, 1.7e308j], [-1.7e308j, 2]],
}


def scalar_document(rows: list) -> str:
    """The ``[1]`` kernel document, as text, of a square table of numbers."""
    values = [[[[[[z.real, z.imag]]]] for z in map(complex, row)] for row in rows]
    return json.dumps({"algebra": {"summands": [1]}, "set": [f"s{i + 1}" for i in range(len(rows))],
                       "values": values})


# Whole documents, as text: a 596-GiB summand over an empty block, nesting
# beyond the parser's recursion limit, an integer beyond the digit limit of
# int conversion, text that is not JSON or not an object, and the tables of
# ``EXTREME_TABLES``.
RAW_DOCUMENTS = {
    "huge-summand": '{"algebra": {"summands": [200000]}, "set": ["a"], "values": [[[[]]]]}',
    "deep-nesting": "[" * 5000 + "]" * 5000,
    "long-integer": ('{"algebra": {"summands": [1]}, "set": ["a"], "values": [[[[['
                     + "1" * 5000 + ", 0]]]]]}"),
    "truncated": '{"algebra": {"summands": [1]}, "set": ["a"], "values": [[',
    "top-level-list": "[]",
    **{name: scalar_document(rows) for name, rows in EXTREME_TABLES.items()},
}


def blocks(doc: dict, i: int, j: int) -> list[np.ndarray]:
    """Entry ``(i, j)`` of metric document ``doc``, one complex block per summand."""
    raws = [np.array(raw, dtype=float) for raw in doc["metric"][i][j]]
    return [raw[..., 0] + 1j * raw[..., 1] for raw in raws]


def edited(doc: dict, entries: dict) -> dict:
    """A copy of metric document ``doc`` with ``entries``, ``{(i, j): blocks}``, written in."""
    doc = json.loads(json.dumps(doc))
    for (i, j), mats in entries.items():
        doc["metric"][i][j] = [np.stack([B.real, B.imag], axis=-1).tolist() for B in mats]
    return doc


def broken(doc: dict, edits: dict) -> dict:
    """A copy of metric document ``doc`` with ``edits`` applied."""
    return edited(doc, {ij: [edit(B) for B in blocks(doc, *ij)] for ij, edit in edits.items()})


def zeroed(doc: dict, summands: tuple) -> dict:
    """A copy of kernel document ``doc`` with every block of ``summands`` set to zero."""
    doc = json.loads(json.dumps(doc))
    for entry in (entry for row in doc["values"] for entry in row):
        for k in summands:
            entry[k] = np.zeros(np.shape(entry[k])).tolist()
    return doc


def spectra(mats: list[np.ndarray]) -> list:
    """``eigh`` of the hermitian part of each block."""
    return [np.linalg.eigh(0.5 * (B + B.conj().T)) for B in mats]


def at_margin(mats: list[np.ndarray], m: float) -> list[np.ndarray]:
    """``mats`` with each bottom eigenvalue moved to ``m * TOL_REL * s``, ``s =
    max(1, largest other |eigenvalue|)``, about the C*-norm of the result."""
    eigs = spectra(mats)
    s = max(1.0, *(np.abs(w[1:]).max(initial=0.0) for w, _ in eigs))
    return [B + (m * TOL_REL * s - w[0]) * np.outer(u[:, 0], u[:, 0].conj())
            for B, (w, u) in zip(mats, eigs)]


def placed(doc: dict, m: float, triangle: bool) -> dict:
    """A copy of metric document ``doc`` placed at margin ``m`` (see ``MARGINS``)."""
    if not triangle:
        return edited(doc, {ij: at_margin(blocks(doc, *ij), m) for ij in ((0, 1), (1, 0))})
    sides, slacks = {}, {}
    for u in range(2, len(doc["set"])):
        sides[u] = [a + b for a, b in zip(blocks(doc, 0, u), blocks(doc, u, 1))]
        slacks[u] = [ab - c for ab, c in zip(sides[u], blocks(doc, 0, 1))]

    def margin(u: int) -> float:
        w = [w for w, _ in spectra(slacks[u])]
        return min(x[0] for x in w) / max(1.0, *(np.abs(x).max() for x in w))

    u = min(slacks, key=margin)
    far = [ab - t for ab, t in zip(sides[u], at_margin(slacks[u], m))]
    return edited(doc, {(0, 1): far, (1, 0): far})


def walk_error(doc: dict, key: str, kind: str, t: int) -> dict:
    """A copy of ``doc`` with its table broken by ``WALK_ERRORS[kind]`` at ``t``."""
    doc = json.loads(json.dumps(doc))
    depth, value = WALK_ERRORS[kind]
    node = doc[key]
    for _ in range(depth):
        node = node[t]
    if value is POP:
        node.pop(t)
    else:
        node[t] = value
    return doc


def header_error(doc: dict, key: str, kind: str) -> dict:
    """A copy of ``doc`` with ``HEADER_ERRORS[kind]`` applied."""
    doc = json.loads(json.dumps(doc))
    HEADER_ERRORS[kind](doc, key)
    return doc


def digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def main(src: str, out: str) -> int:
    sys.path.insert(0, str(Path(src, "src").resolve()))
    from cpdkernels import AlgebraDescriptor, GenConfig, random_majorized_pair
    from cpdkernels.cli import main as cli
    from cpdkernels.generators import FIXTURE_NAMES
    from cpdkernels.embedding import CStarMetric
    from cpdkernels.serialize import dump_json, kernel_to_json, load_document, metric_to_json

    digests = {}

    def run(name: str, *argv: str) -> str:
        stdout, stderr = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            try:
                code = cli(["--no-timings", *argv])
            except SystemExit as exc:  # argparse refusing the arguments
                code = exc.code
            except Exception as exc:  # a crash: recorded, and the corpus goes on
                code = type(exc).__name__
        seen = [f"{w.category.__name__}: {w.message}" for w in caught]
        digests[name] = digest(code, stdout.getvalue(), stderr.getvalue(), seen)
        return stdout.getvalue()

    def write(path: str, text: str) -> str | None:
        """Write a generated document; ``None`` when generation failed."""
        if not text:
            return None
        Path(path).write_text(text, encoding="utf-8")
        return path

    def on_plain(path: str) -> None:
        """Digest a generated document as the public writers render it."""
        doc = load_document(Path(path).read_text(encoding="utf-8"))
        to_json = metric_to_json if isinstance(doc, CStarMetric) else kernel_to_json
        digests[f"plain {path}"] = digest(dump_json(to_json(doc)))

    def on_kernel(path: str) -> None:
        last = json.loads(Path(path).read_text(encoding="utf-8"))["set"][-1]
        run(f"{path} check-pd", "check-pd", path)
        for method in ("compression", "shift", "corm"):
            run(f"{path} check-cpd {method}", "check-cpd", "--method", method, path)
        run(f"{path} transform", "transform", path)
        run(f"{path} ssd-decompose", "ssd-decompose", "--verify", path)
        run(f"{path} decompose first", "decompose", "--verify", path)
        run(f"{path} decompose last", "decompose", "--verify", "--base-point", last, path)

    def on_metric(path: str) -> None:
        last = json.loads(Path(path).read_text(encoding="utf-8"))["set"][-1]
        run(f"{path} check-metric", "check-metric", path)
        run(f"{path} embed first", "embed", "--verify", path)
        run(f"{path} embed last", "embed", "--verify", "--base-point", last, path)

    def on_malformed(path: str, text: str) -> None:
        write(path, text)
        for command in ("check-pd", "check-metric"):
            run(f"{path} {command}", command, path)

    def on_zeroed(path: str) -> None:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        m = len(doc["algebra"]["summands"])
        for ks in [(k,) for k in range(m) if m > 1] + [tuple(range(m))]:
            on_kernel(write(f"zero{''.join(map(str, ks))}-{path}", json.dumps(zeroed(doc, ks))))

    def on_broken(path: str) -> None:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if len(doc["set"]) < 2:
            return
        for how, edits in BREAKS.items():
            if how != "triangle" or len(doc["set"]) > 2:
                copy = write(f"{how}-{path}", json.dumps(broken(doc, edits)))
                run(f"{copy} check-metric", "check-metric", copy)
                run(f"{copy} embed", "embed", "--verify", copy)
        for m in MARGINS:
            for triangle in (False, True)[: 1 + (len(doc["set"]) > 2)]:
                where = "triangle" if triangle else "entry"
                copy = write(f"{where}{m:+}-{path}", json.dumps(placed(doc, m, triangle)))
                run(f"{copy} check-metric", "check-metric", copy)
                run(f"{copy} embed", "embed", "--verify", copy)

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for dims in DIMS:
                for n in SIZES:
                    for seed in SEEDS:
                        tag = f"{dims}-n{n}-s{seed}"
                        for klass in CLASSES:
                            name = f"{klass}-{tag}.json"
                            text = run(f"gen {name}", "gen", klass, "--seed", str(seed),
                                       "--n", str(n), "--dims", dims)
                            if write(name, text):
                                on_plain(name)
                                (on_metric if klass == "metric" else on_kernel)(name)
                                if klass == "metric":
                                    on_broken(name)
                                if klass == "cpd-diag":
                                    on_zeroed(name)
                        cfg = GenConfig(seed=seed, n=n, descriptor=AlgebraDescriptor(
                            [int(d) for d in dims.split(",")]))
                        try:
                            K, Kp, s0 = random_majorized_pair(cfg)
                        except ValueError as exc:
                            digests[f"pair-{tag}"] = digest(repr(exc))
                            continue
                        big, small = f"pair-K-{tag}.json", f"pair-Kp-{tag}.json"
                        for path, kernel in ((big, K), (small, Kp)):
                            write(path, dump_json(kernel_to_json(kernel)))
                            digests[f"gen {path}"] = digest(Path(path).read_text())
                            on_plain(path)
                            on_kernel(path)
                        run(f"majorize {tag}", "majorize", "--base-point", s0, big, small)
                        run(f"majorize reversed {tag}", "majorize", "--base-point", s0,
                            small, big)
            for fixture in FIXTURE_NAMES:
                name = f"{fixture}.json"
                text = run(f"gen {name}", "gen", fixture)
                if write(name, text):
                    on_plain(name)
                    (on_metric if '"metric"' in text else on_kernel)(name)
            run("demo schur-counterexample", "demo", "schur-counterexample")
            for name, key in MALFORMED_BASES:
                doc = json.loads(Path(name).read_text(encoding="utf-8"))
                for kind in WALK_ERRORS:
                    for where, t in (("first", 0), ("last", -1)):
                        on_malformed(f"{kind}-{where}-{name}",
                                     json.dumps(walk_error(doc, key, kind, t)))
                for kind in HEADER_ERRORS:
                    on_malformed(f"{kind}-{name}", json.dumps(header_error(doc, key, kind)))
            for name, text in RAW_DOCUMENTS.items():
                on_malformed(f"{name}.json", text)
            for name in EXTREME_TABLES:
                on_kernel(f"{name}.json")
        finally:
            os.chdir(home)
    Path(out).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {out}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
