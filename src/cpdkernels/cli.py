"""Command-line surface: check, transform, decompose, embed, and generate.

Every command reads kernel or metric documents in the package JSON schema,
prints one Report object to standard output, and exits with 0 when the
decided property holds or the construction succeeded, 1 when the property
fails (the report then carries a witness), and 2 on malformed input, schema
violations, or violated preconditions without a decision.  Diagnostics go to
standard error.

Reports are deterministic for fixed inputs and flags once ``--no-timings``
is passed; wall-clock phase timings are the only nondeterministic field.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path

from .algebra import AlgebraDescriptor, ToleranceConfig, spectral_norms
from .decomposition import (
    PreconditionFailure,
    decompose_cpd,
    reconstruct_cpd,
    recover_contraction,
    sum_sq_diff_decomposition,
    sum_sq_diff_reconstruct,
)
from .embedding import CStarMetric, embed, validate_metric
from .generators import (
    FIXTURE_NAMES,
    GenConfig,
    fixture,
    random_cpd_kernel,
    random_gram_kernel,
    random_hermitian_kernel,
    random_metric,
    random_non_cpd_kernel,
)
from .kernels import (
    Kernel,
    Verdict,
    _psd_verdict,
    assemble_gram,
    cond_positive_matrix_check,
    is_conditionally_positive_definite,
    is_positive_definite,
    schur_product,
    shift_transform,
)
from .serialize import (
    SchemaError,
    _certificate_to_json,
    _decomposition_to_json,
    _embedding_to_json,
    _families_to_json,
    _table_to_json,
    _verdict_to_json,
    dump_json,
    load_document,
    tolerances_to_json,
)

__all__ = ["Report", "build_parser", "main"]

GENERATORS = {
    "gram": random_gram_kernel,
    "cpd": random_cpd_kernel,
    "cpd-diag": partial(random_cpd_kernel, diagonal_zero=True),
    "hermitian": random_hermitian_kernel,
    "non-cpd": random_non_cpd_kernel,
    "metric": random_metric,
}
GEN_CLASSES = tuple(GENERATORS)


@dataclass
class Report:
    """What a command decided, with its certificate and the tolerances used."""

    command: str
    verdict: bool | str
    witness: dict | None
    artifacts: dict | None
    timings_ms: dict | None
    tolerances: ToleranceConfig

    def to_json(self) -> dict:
        """The fields in declaration order, the tolerances as JSON."""
        return dict(vars(self), tolerances=tolerances_to_json(self.tolerances))


def _dims(text: str) -> list[int]:
    try:
        dims = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad summand list {text!r}") from None
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError("summand sizes must be integers >= 1")
    return dims


def _base_point(table, chosen: str | None) -> str:
    """``chosen``, or the first label; an unknown label raises ``UnknownLabel``."""
    labels = table.index_set.labels
    return labels[0 if chosen is None else table.index_set.index(chosen)]


@dataclass(frozen=True)
class _Command:
    """A subcommand: its help, its run function, the documents it reads as
    ``(argument, document type, help)`` triples, and its other arguments as
    ``(flags, options)`` pairs.  ``run(args, tol, *documents)`` returns the
    verdict (``None`` for a construction, ``"n/a"`` for a transform), the
    artifacts, and a function rebuilding the first document from them, for
    ``--verify``; ``gen`` writes its document and returns ``None``."""

    help: str
    run: Callable
    reads: tuple = ()
    args: tuple = ()


def _check_pd(args, tol, K):
    return is_positive_definite(K, tol, args.threads), None, None


def _check_cpd(args, tol, K):
    s0 = _base_point(K, args.base_point)
    if args.method == "compression":
        verdict = is_conditionally_positive_definite(K, tol, args.threads)
    elif args.method == "shift":
        assemble_gram(K, tol)  # validates K; its shift is then hermitian
        verdict = _psd_verdict(shift_transform(K, s0, tol)._grams, tol)
    else:
        verdict = cond_positive_matrix_check(K, K.index_set.index(s0) + 1, tol)
    return verdict, {"method": args.method, "base_point": s0}, None


def _transform(args, tol, K):
    s0 = _base_point(K, args.base_point)
    shifted = shift_transform(K, s0, tol)
    return "n/a", {"base_point": s0, "kernel": _table_to_json(shifted, "values")}, None


def _decompose(args, tol, K):
    dec = decompose_cpd(K, _base_point(K, args.base_point), tol)
    return None, {"decomposition": _decomposition_to_json(dec)}, partial(reconstruct_cpd, dec)


def _ssd_decompose(args, tol, K):
    families = sum_sq_diff_decomposition(K, tol)
    return (None, {"families": _families_to_json(families, K.index_set)},
            partial(sum_sq_diff_reconstruct, families, K.index_set, K.descriptor))


def _embed(args, tol, dm):
    result = embed(dm, _base_point(dm, args.base_point), tol)
    return None, {"embedding": _embedding_to_json(result)}, result.realized_metric


def _check_metric(args, tol, dm):
    return validate_metric(dm, tol), None, None


def _majorize(args, tol, K, Kp):
    s0 = _base_point(K, args.base_point)
    cert = recover_contraction(K, Kp, s0, tol)
    return None, {"base_point": s0, "certificate": _certificate_to_json(cert)}, None


def _demo(args, tol):
    K = fixture(args.name)
    base = is_conditionally_positive_definite(K, tol, args.threads)
    square = schur_product(K, K)
    return is_conditionally_positive_definite(square, tol, args.threads), {
        "kernel": _table_to_json(K, "values"),
        "kernel_verdict": _verdict_to_json(base),
        "schur_square": _table_to_json(square, "values"),
    }, None


def _gen(args, tol):
    name = args.klass
    if name in FIXTURE_NAMES:
        obj = fixture(name)
    elif name in GENERATORS:
        obj = GENERATORS[name](GenConfig(
            seed=args.seed, n=args.n, descriptor=AlgebraDescriptor(args.dims),
            rank=args.rank, magnitude=args.magnitude))
    else:
        raise ValueError(
            f"unknown class {name!r}; available: {', '.join(GEN_CLASSES + FIXTURE_NAMES)}")
    text = dump_json(_table_to_json(obj, "metric" if isinstance(obj, CStarMetric) else "values"))
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


_INPUT = (("input", Kernel, "document path, or - for standard input"),)
_METRIC_INPUT = (("input", CStarMetric, _INPUT[0][2]),)
_BASE_POINT = (("--base-point",), {"default": None})
_VERIFY = (("--verify",), {"action": "store_true"})

COMMANDS = {
    "check-pd": _Command("decide positive definiteness", _check_pd, _INPUT),
    "check-cpd": _Command("decide conditional positive definiteness", _check_cpd, _INPUT, (
        (("--base-point",), {
            "default": None,
            "help": "label used by the shift and corm methods (default: first label)"}),
        (("--method",), {
            "choices": ("compression", "shift", "corm"), "default": "compression",
            "help": "decision route; each validates K, then decides a matrix derived from it"}),
    )),
    "transform": _Command("base-point shift of a kernel", _transform, _INPUT, (_BASE_POINT,)),
    "decompose": _Command("factor a CPD kernel at a base point", _decompose, _INPUT, (
        _BASE_POINT,
        (("--verify",), {
            "action": "store_true",
            "help": "reconstruct the input from the artifact and report the error"}),
    )),
    "ssd-decompose": _Command(
        "split a zero-diagonal self-adjoint CPD table into squared differences",
        _ssd_decompose, _INPUT, (_VERIFY,)),
    "embed": _Command("isometrically embed a metric", _embed, _METRIC_INPUT,
                      (_BASE_POINT, _VERIFY)),
    "check-metric": _Command("validate the metric axioms", _check_metric, _METRIC_INPUT),
    "majorize": _Command("recover the contraction certifying Kp <= K", _majorize, (
        ("kernel", Kernel, "document for the dominating kernel K"),
        ("majorized", Kernel, "document for the majorized kernel Kp"),
    ), (_BASE_POINT,)),
    "demo": _Command("run a named walkthrough", _demo, args=(
        (("name",), {"choices": ("schur-counterexample",)}),
    )),
    "gen": _Command("generate a seeded instance or fixture", _gen, args=(
        (("klass",), {"metavar": "class",
                      "help": f"one of {', '.join(GEN_CLASSES + FIXTURE_NAMES)}"}),
        (("--seed",), {"type": int, "default": 0}),
        (("--n",), {"type": int, "default": 3}),
        (("--dims",), {"type": _dims, "default": [2], "help": "summand sizes, comma-separated"}),
        (("--rank",), {"type": int, "default": None}),
        (("--magnitude",), {"type": float, "default": 1.0}),
        (("--out",), {"default": None, "help": "write the document here instead of stdout"}),
    )),
}

# The options that precede the subcommand.
_OPTIONS = (
    (("--tol-rel",), {
        "type": float, "default": ToleranceConfig().tol_rel,
        "help": "relative tolerance for positivity and hermiticity verdicts"}),
    (("--rank-tol-rel",), {
        "type": float, "default": ToleranceConfig().rank_tol_rel,
        "help": "relative eigenvalue cutoff for rank truncation"}),
    (("--threads",), {
        "type": int, "default": 1,
        "help": "accepted for compatibility and ignored: decisions run on one thread"}),
    (("--no-timings",), {
        "action": "store_true",
        "help": "omit wall-clock timings so reports are byte-reproducible"}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpdkernels",
        description=(
            "Positivity checks, decompositions, and metric embeddings for "
            "operator-valued kernels over direct sums of matrix algebras."
        ),
    )
    for flags, options in _OPTIONS:
        parser.add_argument(*flags, **options)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg, _, text in command.reads:
            p.add_argument(arg, help=text)
        for flags, options in command.args:
            p.add_argument(*flags, **options)
    return parser


_DOCUMENTS = {Kernel: "a kernel document (key 'values')",
              CStarMetric: "a metric document (key 'metric')"}


def _load(path: str, kind: type):
    """The document at ``path`` (``-``: standard input), of type ``kind``."""
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    doc = load_document(text)
    if not isinstance(doc, kind):
        raise SchemaError("$", f"expected {_DOCUMENTS[kind]}")
    return doc


def _run(args, tol: ToleranceConfig) -> tuple[int, Report | None]:
    """Load the command's documents, run it, and report: a decision exits
    by its verdict, a construction by its verify block, a transform 0."""
    command, start = COMMANDS[args.command], time.perf_counter()
    docs = [_load(getattr(args, arg), kind) for arg, kind, _ in command.reads]
    parsed = time.perf_counter()
    out = command.run(args, tol, *docs)
    if out is None:
        return 0, None
    verdict, artifacts, rebuild = out
    if getattr(args, "verify", False):
        doc, new = docs[0], rebuild()
        err = max(float(spectral_norms(A - B).max()) for A, B in zip(new._stacks, doc._stacks))
        bound = 10.0 * tol.tol_rel * (1.0 + float(doc._norms.max()))
        artifacts["verify"] = {"max_error": err, "bound": bound, "ok": bool(err <= bound)}
    phases = None if args.no_timings else {
        "parse": round((parsed - start) * 1e3, 3),
        "compute": round((time.perf_counter() - parsed) * 1e3, 3)}
    if isinstance(verdict, Verdict):
        witness, verdict = _verdict_to_json(verdict), bool(verdict.holds)
        code = 0 if verdict else 1
    else:
        witness, code = None, 0 if artifacts.get("verify", {"ok": True})["ok"] else 1
        verdict = code == 0 if verdict is None else verdict
    return code, Report(args.command, verdict, witness, artifacts, phases, tol)


# The parser holds no state between parses, so one serves every call.
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not all(t > 0 and math.isfinite(t) for t in (args.tol_rel, args.rank_tol_rel)):
        print("tolerances must be positive and finite", file=sys.stderr)
        return 2
    tol = ToleranceConfig(tol_rel=args.tol_rel, rank_tol_rel=args.rank_tol_rel)
    try:
        code, report = _run(args, tol)
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        if not isinstance(exc, PreconditionFailure) or exc.verdict is None:
            return 2
        # A failed decision behind the precondition: report it, with its witness.
        code, report = 1, Report(args.command, False, _verdict_to_json(exc.verdict),
                                 None, None, tol)
    if report is not None:
        sys.stdout.write(dump_json(report.to_json()))
    return code


if __name__ == "__main__":
    sys.exit(main())
