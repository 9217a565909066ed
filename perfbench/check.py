"""Correctness checker for benchmark operations.

Every check runs outside the timed region and returns ``None`` when the
output is right, or a one-line reason.  A failure is an unexpected
exception, a wrong exit code, a wrong verdict, a witness that does not
recheck, or a ``--verify`` block that is not ok.

Witnesses are rechecked against matrices the checker rebuilds itself from
the public ``assemble_gram``: ``v* M v`` must equal the reported eigenvalue
within tolerance, for a unit ``v`` and a negative eigenvalue.  Each decide
route is checked against the verdict its input was built to have, so the
three routes agree on every kernel exactly when all of them pass.
"""

from __future__ import annotations

import json

import numpy as np

import cpdkernels

WITNESS_TOL = 1e-9


def shifted(G: np.ndarray, n: int, d: int, m: int) -> np.ndarray:
    """Block matrix ``[G_ij - G_im - G_mj + G_mm]`` of an assembled summand."""
    B = G.reshape(n, d, n, d)
    S = B - B[:, :, m:m + 1, :] - B[m:m + 1, :, :, :] + B[m:m + 1, :, m:m + 1, :]
    return S.reshape(n * d, n * d)


class Checker:
    """Rechecks outputs; caches each input's assembled Gram matrices."""

    def __init__(self, tol: float = WITNESS_TOL):
        self.tol = tol
        self._grams: dict[int, tuple] = {}

    def gram(self, K, summand: int) -> np.ndarray:
        if id(K) not in self._grams:
            # Holding K keeps its id from being reused by another object.
            self._grams[id(K)] = (K, cpdkernels.assemble_gram(K))
        return self._grams[id(K)][1][summand]

    def matrix(self, K, route: str, summand: int) -> np.ndarray:
        """The matrix whose bottom eigenpair a failing ``route`` reports:
        the compression onto zero-sum tuples (anchored at the last label),
        the shift at the first label, or the shifted table at row 1."""
        G = self.gram(K, summand)
        n, d = K.n, K.descriptor.summand_dims[summand]
        if route == "compression":
            return shifted(G, n, d, n - 1)[: (n - 1) * d, : (n - 1) * d]
        if route == "shift":
            return 0.5 * shifted(G, n, d, 0)
        if route == "corm":
            return shifted(G, n, d, 0)
        raise ValueError(f"unknown route {route!r}")

    def witness(self, M: np.ndarray, vector, eigenvalue: float) -> str | None:
        v = np.asarray(vector, dtype=np.complex128).ravel()
        if v.shape != (M.shape[0],):
            return f"witness has length {v.size}, matrix has order {M.shape[0]}"
        if abs(np.linalg.norm(v) - 1.0) > self.tol:
            return "witness is not a unit vector"
        if not eigenvalue < 0.0:
            return f"witness eigenvalue {eigenvalue!r} is not negative"
        value = float(np.real(np.vdot(v, M @ v)))
        if abs(value - eigenvalue) > self.tol * max(1.0, np.linalg.norm(M)):
            return f"v* M v = {value!r} does not recheck eigenvalue {eigenvalue!r}"
        return None

    def decision(self, K, route: str, expected: bool, verdict) -> str | None:
        if bool(verdict.holds) != expected:
            return f"{route} verdict {verdict.holds}, input built as {expected}"
        if verdict.holds:
            return None
        w = verdict.witness
        if w is None:
            return f"{route} failed without a witness"
        return self.witness(self.matrix(K, route, w.summand), w.vector, w.eigenvalue)

    @staticmethod
    def report(result, code: int) -> tuple[dict | None, str | None]:
        """Parse a CLI ``(exit code, stdout, stderr)`` into its report."""
        got, out, err = result
        if got != code:
            return None, f"exit code {got}, expected {code}: {err.strip()[:200]}"
        try:
            return json.loads(out), None
        except json.JSONDecodeError:
            return None, "stdout is not one JSON report"

    def cli_holds(self, result) -> str | None:
        report, why = self.report(result, 0)
        if why is None and report["verdict"] is not True:
            why = f"verdict {report['verdict']!r}"
        return why

    def cli_verified(self, result) -> str | None:
        report, why = self.report(result, 0)
        if why is None and report["artifacts"]["verify"]["ok"] is not True:
            why = f"--verify block not ok: {report['artifacts']['verify']}"
        return why

    def cli_witness(self, K, result) -> str | None:
        """A failing decision on ``K`` by the compression route: exit 1 and
        a witness that rechecks."""
        report, why = self.report(result, 1)
        if why is not None:
            return why
        if report["verdict"] is not False:
            return f"verdict {report['verdict']!r}, expected false"
        w = report["witness"]["witness"]
        vector = [complex(re, im) for re, im in w["vector"]]
        M = self.matrix(K, "compression", w["summand"])
        return self.witness(M, vector, w["eigenvalue"])

    def cli_transform(self, K, result) -> str | None:
        """The shift table printed by ``transform`` equals the one rebuilt
        from ``assemble_gram``."""
        report, why = self.report(result, 0)
        if why is not None:
            return why
        art = report["artifacts"]
        m = K.index_set.index(art["base_point"])
        values = art["kernel"]["values"]
        n = K.n
        for k, d in enumerate(K.descriptor.summand_dims):
            pairs = np.array([[values[i][j][k] for j in range(n)] for i in range(n)])
            got = (pairs[..., 0] + 1j * pairs[..., 1]).transpose(0, 2, 1, 3)
            want = 0.5 * shifted(self.gram(K, k), n, d, m)
            err = np.max(np.abs(got.reshape(n * d, n * d) - want))
            if err > self.tol * max(1.0, np.max(np.abs(want))):
                return f"shift table differs by {err!r} in summand {k}"
        return None
