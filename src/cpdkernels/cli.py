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
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .algebra import AlgebraDescriptor, DimensionMismatch, ToleranceConfig, spectral_norms
from .decomposition import (
    PreconditionFailure,
    decompose_cpd,
    reconstruct_cpd,
    recover_contraction,
    sum_sq_diff_decomposition,
    sum_sq_diff_reconstruct,
)
from .embedding import (
    CStarMetric,
    InvalidMetric,
    embed,
    metric_norm,
    validate_metric,
)
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
    NotHermitian,
    UnknownLabel,
    cond_positive_matrix_check,
    is_conditionally_positive_definite,
    is_positive_definite,
    kernel_norm,
    schur_product,
    shift_transform,
)
from .serialize import (
    SchemaError,
    certificate_to_json,
    decomposition_to_json,
    dump_json,
    embedding_to_json,
    families_to_json,
    kernel_to_json,
    load_document,
    metric_to_json,
    tolerances_to_json,
    verdict_to_json,
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
        return {
            "command": self.command,
            "verdict": self.verdict,
            "witness": self.witness,
            "artifacts": self.artifacts,
            "timings_ms": self.timings_ms,
            "tolerances": tolerances_to_json(self.tolerances),
        }


def _dims(text: str) -> list[int]:
    try:
        dims = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad summand list {text!r}") from None
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError("summand sizes must be integers >= 1")
    return dims


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpdkernels",
        description=(
            "Positivity checks, decompositions, and metric embeddings for "
            "operator-valued kernels over direct sums of matrix algebras."
        ),
    )
    parser.add_argument(
        "--tol-rel", type=float, default=ToleranceConfig().tol_rel,
        help="relative tolerance for positivity and hermiticity verdicts",
    )
    parser.add_argument(
        "--rank-tol-rel", type=float, default=ToleranceConfig().rank_tol_rel,
        help="relative eigenvalue cutoff for rank truncation",
    )
    parser.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility and ignored: decisions run on one thread",
    )
    parser.add_argument(
        "--no-timings", action="store_true",
        help="omit wall-clock timings so reports are byte-reproducible",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def input_arg(p):
        p.add_argument("input", help="document path, or - for standard input")

    p = sub.add_parser("check-pd", help="decide positive definiteness")
    input_arg(p)

    p = sub.add_parser("check-cpd", help="decide conditional positive definiteness")
    input_arg(p)
    p.add_argument(
        "--base-point", default=None,
        help="label used by the shift and corm methods (default: first label)",
    )
    p.add_argument(
        "--method", choices=("compression", "shift", "corm"), default="compression",
        help="decision route; all three agree on every input",
    )

    p = sub.add_parser("transform", help="base-point shift of a kernel")
    input_arg(p)
    p.add_argument("--base-point", default=None)

    p = sub.add_parser("decompose", help="factor a CPD kernel at a base point")
    input_arg(p)
    p.add_argument("--base-point", default=None)
    p.add_argument(
        "--verify", action="store_true",
        help="reconstruct the input from the artifact and report the error",
    )

    p = sub.add_parser(
        "ssd-decompose",
        help="split a zero-diagonal self-adjoint CPD table into squared differences",
    )
    input_arg(p)
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("embed", help="isometrically embed a metric")
    input_arg(p)
    p.add_argument("--base-point", default=None)
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("check-metric", help="validate the metric axioms")
    input_arg(p)

    p = sub.add_parser("majorize", help="recover the contraction certifying Kp <= K")
    p.add_argument("kernel", help="document for the dominating kernel K")
    p.add_argument("majorized", help="document for the majorized kernel Kp")
    p.add_argument("--base-point", default=None)

    p = sub.add_parser("demo", help="run a named walkthrough")
    p.add_argument("name", choices=("schur-counterexample",))

    p = sub.add_parser("gen", help="generate a seeded instance or fixture")
    p.add_argument("klass", metavar="class", help=f"one of {', '.join(GEN_CLASSES + FIXTURE_NAMES)}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--dims", type=_dims, default=[2], help="summand sizes, comma-separated")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--magnitude", type=float, default=1.0)
    p.add_argument("--out", default=None, help="write the document here instead of stdout")

    return parser


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _load_kernel(path: str) -> Kernel:
    doc = load_document(_read_text(path))
    if not isinstance(doc, Kernel):
        raise SchemaError("$", "expected a kernel document (key 'values')")
    return doc


def _load_metric(path: str) -> CStarMetric:
    doc = load_document(_read_text(path))
    if not isinstance(doc, CStarMetric):
        raise SchemaError("$", "expected a metric document (key 'metric')")
    return doc


def _base_point(labels, chosen: str | None) -> str:
    if chosen is None:
        return labels[0]
    if chosen not in labels:
        raise UnknownLabel(f"label {chosen!r} not in index set")
    return chosen


class _Clock:
    def __init__(self):
        self.phases: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.phases[name] = round((now - self._last) * 1e3, 3)
        self._last = now


def _verify_block(err: float, bound: float) -> dict:
    return {"max_error": err, "bound": bound, "ok": bool(err <= bound)}


def _decided(cmd: str, verdict, artifacts, clock: _Clock, tol) -> tuple[int, Report]:
    """The exit code and report of a command that decides a property."""
    clock.lap("compute")
    return (0 if verdict.holds else 1), Report(
        cmd, bool(verdict.holds), verdict_to_json(verdict), artifacts, clock.phases, tol)


def _built(cmd: str, artifacts: dict, clock: _Clock, tol) -> tuple[int, Report]:
    """The exit code and report of a construction, failed by its verify block."""
    clock.lap("compute")
    code = 0 if artifacts.get("verify", {"ok": True})["ok"] else 1
    return code, Report(cmd, code == 0, None, artifacts, clock.phases, tol)


def _dispatch(args, tol: ToleranceConfig) -> tuple[int, Report | None]:
    clock = _Clock()
    cmd = args.command

    if cmd == "gen":
        return _cmd_gen(args)

    if cmd == "demo":
        K = fixture("schur-counterexample")
        clock.lap("parse")
        base = is_conditionally_positive_definite(K, tol, args.threads)
        square = schur_product(K, K)
        product = is_conditionally_positive_definite(square, tol, args.threads)
        return _decided(cmd, product, {
            "kernel": kernel_to_json(K),
            "kernel_verdict": verdict_to_json(base),
            "schur_square": kernel_to_json(square),
        }, clock, tol)

    if cmd == "check-pd":
        K = _load_kernel(args.input)
        clock.lap("parse")
        return _decided(cmd, is_positive_definite(K, tol, args.threads), None, clock, tol)

    if cmd == "check-cpd":
        K = _load_kernel(args.input)
        s0 = _base_point(K.index_set.labels, args.base_point)
        clock.lap("parse")
        if args.method == "compression":
            verdict = is_conditionally_positive_definite(K, tol, args.threads)
        elif args.method == "shift":
            verdict = is_positive_definite(shift_transform(K, s0, tol), tol, args.threads)
        else:
            verdict = cond_positive_matrix_check(K, K.index_set.index(s0) + 1, tol)
        return _decided(cmd, verdict, {"method": args.method, "base_point": s0}, clock, tol)

    if cmd == "transform":
        K = _load_kernel(args.input)
        s0 = _base_point(K.index_set.labels, args.base_point)
        clock.lap("parse")
        L = shift_transform(K, s0, tol)
        clock.lap("compute")
        return 0, Report(cmd, "n/a", None, {"base_point": s0, "kernel": kernel_to_json(L)},
                         clock.phases, tol)

    if cmd == "decompose":
        K = _load_kernel(args.input)
        s0 = _base_point(K.index_set.labels, args.base_point)
        clock.lap("parse")
        dec = decompose_cpd(K, s0, tol)
        artifacts = {"decomposition": decomposition_to_json(dec)}
        if args.verify:
            err = kernel_norm(reconstruct_cpd(dec) - K)
            artifacts["verify"] = _verify_block(err, 10.0 * tol.tol_rel * (1.0 + kernel_norm(K)))
        return _built(cmd, artifacts, clock, tol)

    if cmd == "ssd-decompose":
        K = _load_kernel(args.input)
        clock.lap("parse")
        families = sum_sq_diff_decomposition(K, tol)
        artifacts = {"families": families_to_json(families, K.index_set)}
        if args.verify:
            err = kernel_norm(sum_sq_diff_reconstruct(families, K.index_set, K.descriptor) - K)
            artifacts["verify"] = _verify_block(err, 10.0 * tol.tol_rel * (1.0 + kernel_norm(K)))
        return _built(cmd, artifacts, clock, tol)

    if cmd == "embed":
        dm = _load_metric(args.input)
        s0 = _base_point(dm.index_set.labels, args.base_point)
        clock.lap("parse")
        result = embed(dm, s0, tol)
        artifacts = {"embedding": embedding_to_json(result)}
        if args.verify:
            err = _metric_error(dm, result.realized_metric())
            artifacts["verify"] = _verify_block(err, 10.0 * tol.tol_rel * (1.0 + metric_norm(dm)))
        return _built(cmd, artifacts, clock, tol)

    if cmd == "check-metric":
        dm = _load_metric(args.input)
        clock.lap("parse")
        return _decided(cmd, validate_metric(dm, tol), None, clock, tol)

    if cmd == "majorize":
        K = _load_kernel(args.kernel)
        Kp = _load_kernel(args.majorized)
        s0 = _base_point(K.index_set.labels, args.base_point)
        clock.lap("parse")
        cert = recover_contraction(K, Kp, s0, tol)
        return _built(cmd, {"base_point": s0, "certificate": certificate_to_json(cert)}, clock, tol)

    raise AssertionError(f"unhandled command {cmd!r}")


def _metric_error(a: CStarMetric, b: CStarMetric) -> float:
    """Largest entry C*-norm of ``a - b``."""
    return max(float(spectral_norms(A - B).max()) for A, B in zip(a._stacks, b._stacks))


def _cmd_gen(args) -> tuple[int, Report | None]:
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
    doc = metric_to_json(obj) if isinstance(obj, CStarMetric) else kernel_to_json(obj)
    text = dump_json(doc)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0, None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not all(t > 0 and math.isfinite(t) for t in (args.tol_rel, args.rank_tol_rel)):
        print("tolerances must be positive and finite", file=sys.stderr)
        return 2
    tol = ToleranceConfig(tol_rel=args.tol_rel, rank_tol_rel=args.rank_tol_rel)
    try:
        code, report = _dispatch(args, tol)
    except PreconditionFailure as exc:
        if exc.verdict is not None:
            report = Report(args.command, False, verdict_to_json(exc.verdict),
                            None, None, tol)
            sys.stdout.write(dump_json(report.to_json()))
            print(f"{args.command}: {exc}", file=sys.stderr)
            return 1
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, NotHermitian, UnknownLabel, DimensionMismatch,
            InvalidMetric, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    if report is not None:
        if args.no_timings:
            report.timings_ms = None
        sys.stdout.write(dump_json(report.to_json()))
    return code


if __name__ == "__main__":
    sys.exit(main())
