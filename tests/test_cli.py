"""End-to-end command tests: exit codes, report shape, and reproducibility."""

import argparse
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cpdkernels
from cpdkernels import (
    AlgebraDescriptor,
    AlgebraElement,
    GenConfig,
    ModuleElement,
    dump_json,
    fixture,
    is_conditionally_positive_definite,
    kernel_to_json,
    load_document,
    metric_to_json,
    random_hermitian_kernel,
    random_cpd_kernel,
    random_majorized_pair,
    random_metric,
    scalar_kernel,
    scalar_metric,
)
from cpdkernels import cli
from cpdkernels.cli import build_parser, main
from helpers import overflow_metric, same_bits


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_kernel(tmp_path, K, name="kernel.json"):
    path = tmp_path / name
    path.write_text(dump_json(kernel_to_json(K)), encoding="utf-8")
    return str(path)


def write_metric(tmp_path, dm, name="metric.json"):
    path = tmp_path / name
    path.write_text(dump_json(metric_to_json(dm)), encoding="utf-8")
    return str(path)


@pytest.fixture
def cpd_path(tmp_path):
    return write_kernel(tmp_path, fixture("schur-counterexample"), "cpd.json")


@pytest.fixture
def non_cpd_path(tmp_path):
    return write_kernel(
        tmp_path, scalar_kernel([[0.0, 1.0], [1.0, 0.0]], ["s1", "s2"]), "noncpd.json"
    )


class TestCheckCommands:
    def test_check_cpd_holds(self, capsys, cpd_path):
        code, out, err = run(capsys, "check-cpd", cpd_path)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is True
        assert report["witness"]["holds"] is True

    def test_all_methods_agree(self, capsys, cpd_path, non_cpd_path):
        for path, expected in ((cpd_path, 0), (non_cpd_path, 1)):
            for method in ("compression", "shift", "corm"):
                code, out, _ = run(capsys, "check-cpd", path, "--method", method)
                assert code == expected, (path, method)

    def test_corm_accepts_any_base_point(self, capsys, cpd_path):
        for label in ("s1", "s2"):
            code, out, _ = run(
                capsys, "check-cpd", cpd_path, "--method", "corm", "--base-point", label
            )
            assert code == 0
            assert json.loads(out)["artifacts"]["base_point"] == label

    def test_check_cpd_failure_carries_witness(self, capsys, non_cpd_path):
        code, out, _ = run(capsys, "check-cpd", non_cpd_path)
        assert code == 1
        witness = json.loads(out)["witness"]["witness"]
        assert witness["eigenvalue"] < 0.0

    def test_check_pd(self, capsys, tmp_path):
        good = write_kernel(tmp_path, scalar_kernel([[2.0, 1.0], [1.0, 2.0]]), "g.json")
        bad = write_kernel(tmp_path, scalar_kernel([[1.0, 2.0], [2.0, 1.0]]), "b.json")
        assert run(capsys, "check-pd", good)[0] == 0
        code, out, _ = run(capsys, "check-pd", bad)
        assert code == 1
        assert json.loads(out)["witness"]["witness"]["eigenvalue"] == pytest.approx(-1.0)

    def test_check_metric(self, capsys, tmp_path):
        star = write_metric(tmp_path, fixture("star-metric"), "star.json")
        assert run(capsys, "check-metric", star)[0] == 0
        asym = write_metric(
            tmp_path, scalar_metric([[0.0, 1.0], [2.0, 0.0]]), "asym.json"
        )
        code, out, _ = run(capsys, "check-metric", asym)
        assert code == 1
        assert "symmetry" in json.loads(out)["witness"]["context"]


class TestTransformAndDecompose:
    def test_transform_defaults_to_first_label(self, capsys, cpd_path):
        code, out, _ = run(capsys, "transform", cpd_path)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "n/a"
        assert report["artifacts"]["base_point"] == "s1"
        shifted = load_document(dump_json(report["artifacts"]["kernel"]))
        assert shifted.value(1, 1).blocks[0][0, 0] == pytest.approx(1.0)

    def test_decompose_verify(self, capsys, cpd_path):
        code, out, _ = run(capsys, "decompose", cpd_path, "--verify")
        assert code == 0
        block = json.loads(out)["artifacts"]["verify"]
        assert block["ok"] is True
        assert block["max_error"] <= block["bound"]

    def test_decompose_rejects_non_cpd(self, capsys, non_cpd_path):
        code, out, err = run(capsys, "decompose", non_cpd_path)
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] is False
        assert report["witness"]["witness"]["eigenvalue"] < 0.0
        assert "decompose" in err

    def test_ssd_decompose_verify(self, capsys, cpd_path):
        code, out, _ = run(capsys, "ssd-decompose", cpd_path, "--verify")
        assert code == 0
        report = json.loads(out)
        assert report["artifacts"]["verify"]["ok"] is True
        assert len(report["artifacts"]["families"]) >= 1

    def test_ssd_decompose_shape_violation_is_input_error(self, capsys, tmp_path):
        path = write_kernel(tmp_path, scalar_kernel([[1.0, 0.0], [0.0, 1.0]]))
        code, out, err = run(capsys, "ssd-decompose", path)
        assert code == 2
        assert out == ""
        assert "diagonal" in err

    def test_ssd_decompose_non_cpd_is_a_failed_verdict(self, capsys, non_cpd_path):
        code, out, err = run(capsys, "ssd-decompose", non_cpd_path)
        assert code == 1
        assert json.loads(out)["verdict"] is False
        assert err != ""


class TestEmbedAndMajorize:
    def test_embed_verify(self, capsys, tmp_path):
        path = write_metric(tmp_path, fixture("collinear-3"))
        code, out, _ = run(capsys, "embed", path, "--verify")
        assert code == 0
        report = json.loads(out)
        assert report["artifacts"]["verify"]["ok"] is True
        assert report["artifacts"]["embedding"]["base_point"] == "p1"

    def test_embed_star_fails_with_witness(self, capsys, tmp_path):
        path = write_metric(tmp_path, fixture("star-metric"))
        code, out, err = run(capsys, "embed", path)
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] is False
        assert report["witness"]["witness"]["eigenvalue"] <= -0.1
        assert err != ""

    def test_majorize_pair(self, capsys, tmp_path):
        cfg = GenConfig(seed=11, n=3, descriptor=AlgebraDescriptor([2]))
        K, Kp, s0 = random_majorized_pair(cfg)
        kpath = write_kernel(tmp_path, K, "k.json")
        ppath = write_kernel(tmp_path, Kp, "kp.json")
        code, out, _ = run(capsys, "majorize", kpath, ppath, "--base-point", s0)
        assert code == 0
        cert = json.loads(out)["artifacts"]["certificate"]
        assert cert["norm_W"] <= 1.0 + 1e-8
        assert cert["residual"] <= 1e-8

    def test_majorize_rejects_unordered_pair(self, capsys, tmp_path):
        cfg = GenConfig(seed=11, n=3, descriptor=AlgebraDescriptor([2]))
        K, Kp, s0 = random_majorized_pair(cfg)
        kpath = write_kernel(tmp_path, K, "k.json")
        ppath = write_kernel(tmp_path, Kp, "kp.json")
        code, out, _ = run(capsys, "majorize", ppath, kpath, "--base-point", s0)
        assert code == 1
        assert json.loads(out)["verdict"] is False


class TestDemo:
    def test_schur_walkthrough_exits_one(self, capsys):
        code, out, _ = run(capsys, "demo", "schur-counterexample")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] is False
        assert report["artifacts"]["kernel_verdict"]["holds"] is True
        square = load_document(dump_json(report["artifacts"]["schur_square"]))
        assert not is_conditionally_positive_definite(square)


class TestGen:
    def test_stdout_document_parses(self, capsys):
        code, out, _ = run(capsys, "gen", "cpd", "--seed", "3", "--dims", "2,1")
        assert code == 0
        K = load_document(out)
        assert is_conditionally_positive_definite(K)

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "doc.json"
        code, out, _ = run(capsys, "gen", "metric", "--seed", "4", "--out", str(target))
        assert code == 0
        assert out == ""
        dm = load_document(target.read_text(encoding="utf-8"))
        assert dm.index_set.n == 3

    def test_fixture_names_are_classes(self, capsys):
        code, out, _ = run(capsys, "gen", "star-metric")
        assert code == 0
        assert load_document(out).index_set.labels == ("c", "l1", "l2", "l3")

    def test_generation_is_deterministic(self, capsys):
        a = run(capsys, "gen", "non-cpd", "--seed", "9")[1]
        b = run(capsys, "gen", "non-cpd", "--seed", "9")[1]
        assert a == b

    def test_non_cpd_on_two_scalar_labels_fails_the_check(self, capsys, tmp_path):
        target = tmp_path / "noncpd.json"
        argv = ["gen", "non-cpd", "--n", "2", "--dims", "1", "--seed", "24"]
        assert run(capsys, *argv, "--out", str(target))[0] == 0
        code, out, _ = run(capsys, "check-cpd", str(target))
        assert code == 1
        assert json.loads(out)["witness"]["witness"]["eigenvalue"] < 0.0

    def test_non_cpd_at_zero_magnitude_still_fails_the_check(self, capsys):
        code, out, err = run(capsys, "gen", "non-cpd", "--magnitude", "0")
        assert code == 0
        assert err == ""
        assert not is_conditionally_positive_definite(load_document(out)).holds

    def test_unknown_class(self, capsys):
        code, _, err = run(capsys, "gen", "nonesuch")
        assert code == 2
        assert "unknown class" in err

    def test_diag_zero_class_pipes_into_ssd(self, capsys, tmp_path):
        target = tmp_path / "diag.json"
        assert run(capsys, "gen", "cpd-diag", "--seed", "7", "--out", str(target))[0] == 0
        code, out, _ = run(capsys, "ssd-decompose", str(target), "--verify")
        assert code == 0
        assert json.loads(out)["artifacts"]["verify"]["ok"] is True


class TestInputHandling:
    def test_stdin_dash(self, capsys, monkeypatch, cpd_path):
        with open(cpd_path, encoding="utf-8") as fh:
            text = fh.read()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "check-cpd", "-")
        assert code == 0

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check-pd", "/nonexistent/kernel.json")
        assert code == 2
        assert err != ""

    def test_schema_error_names_the_path(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"algebra": {"summands": [1]}, "set": ["a", "a"], "values": []}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "check-pd", str(path))
        assert code == 2
        assert out == ""
        assert "$.set" in err

    def test_metric_command_rejects_kernel_document(self, capsys, cpd_path):
        for command in ("check-metric", "embed"):
            code, out, err = run(capsys, command, cpd_path)
            assert code == 2 and out == ""
            assert "expected a metric document (key 'metric')" in err

    @pytest.mark.parametrize("argv", [["check-pd"], ["check-cpd"], ["decompose"],
                                      ["majorize", "{metric}"]])
    def test_kernel_command_rejects_metric_document(self, capsys, tmp_path, argv):
        path = write_metric(tmp_path, fixture("collinear-3"))
        code, out, err = run(capsys, argv[0], path, *(a.format(metric=path) for a in argv[1:]))
        assert code == 2 and out == ""
        assert "expected a kernel document (key 'values')" in err

    def test_metric_commands_build_no_elements(self, capsys, tmp_path, monkeypatch):
        cfg = GenConfig(seed=1, n=10, descriptor=AlgebraDescriptor([2, 1]))
        dm = random_metric(cfg)
        path = write_metric(tmp_path, dm)
        cpd = write_kernel(tmp_path, random_cpd_kernel(cfg), "cpd.json")
        diag = write_kernel(tmp_path, random_cpd_kernel(cfg, diagonal_zero=True), "diag.json")
        K, Kp, s0 = random_majorized_pair(cfg)
        big, small = write_kernel(tmp_path, K, "big.json"), write_kernel(tmp_path, Kp, "small.json")
        built = []
        for cls in (AlgebraElement, ModuleElement):
            def counted_init(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self))
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted_init)
        for argv in (["check-metric", path], ["embed", path, "--verify"],
                     ["decompose", cpd, "--verify"], ["ssd-decompose", diag, "--verify"],
                     ["majorize", big, small, "--base-point", s0]):
            code, _, _ = run(capsys, *argv)
            assert code == 0
        assert built == []
        monkeypatch.undo()
        # The table of elements is still there, built on first use over
        # read-only views of the stored arrays.
        loaded = load_document(Path(path).read_text(encoding="utf-8"))
        assert same_bits(loaded, dm.values)
        for row in loaded.values:
            for v in row:
                for block, G in zip(v.blocks, loaded._grams):
                    assert not block.flags.writeable and np.shares_memory(block, G)

    def test_unknown_base_point(self, capsys, cpd_path):
        code, _, err = run(capsys, "check-cpd", cpd_path, "--base-point", "zz")
        assert code == 2
        assert "zz" in err

    def test_nonpositive_tolerance(self, capsys, cpd_path):
        code, _, err = run(capsys, "--tol-rel", "0", "check-cpd", cpd_path)
        assert code == 2
        assert "positive" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--tol-rel", "--rank-tol-rel"])
    def test_non_finite_tolerance(self, capsys, cpd_path, flag, value):
        # "=" keeps argparse from reading "-inf" as an option.
        code, out, err = run(capsys, f"{flag}={value}", "check-pd", cpd_path)
        assert (code, out) == (2, "")
        assert err == "tolerances must be positive and finite\n"


class TestNonFiniteInput:
    @pytest.mark.parametrize("off", [1.7e308, -1.7e308])
    @pytest.mark.parametrize(
        "argv",
        [["check-pd"], ["check-cpd"], ["check-cpd", "--method", "shift"],
         ["check-cpd", "--method", "corm"], ["transform"], ["decompose"]],
    )
    def test_overflow_is_an_input_error_not_a_pass(self, capsys, tmp_path, off, argv):
        path = write_kernel(tmp_path, scalar_kernel([[1e308, off], [off, 1e308]]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv, path)
        assert code == 2
        assert '"holds": true' not in out
        assert "infinite or NaN" in err
        assert [str(w.message) for w in caught] == []
        assert err.count("\n") == 1 and err.startswith(f"{argv[0]}: ")

    @pytest.mark.parametrize("off", [1.7e308, -1.7e308])
    def test_overflow_leaves_only_the_error_on_stderr(self, tmp_path, off):
        # A separate process, with Python's default warning filters.
        path = write_kernel(tmp_path, scalar_kernel([[1e308, off], [off, 1e308]]))
        env = {**os.environ, "PYTHONPATH": str(Path(cpdkernels.__file__).parents[1])}
        for argv in (["check-pd"], ["check-cpd", "--method", "shift"]):
            proc = subprocess.run(
                [sys.executable, "-m", "cpdkernels.cli", *argv, path],
                capture_output=True, text=True, env=env, check=False)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr == (
                f"{argv[0]}: a kernel matrix has an infinite or NaN value (overflow?)\n")

    # The square of the first defect overflows a Frobenius norm, and the
    # second defect overflows itself; each table is refused by the exact test.
    @pytest.mark.parametrize("table", [[[2, -1 + 1e300j], [-1, 2]],
                                       [[0, 1.7e308], [-1.7e308, 0]]])
    @pytest.mark.parametrize(
        "argv",
        [["check-pd"], ["check-cpd"], ["check-cpd", "--method", "shift"],
         ["check-cpd", "--method", "corm"], ["decompose"]],
    )
    def test_huge_skew_entry_is_refused_without_a_warning(self, capsys, tmp_path, table, argv):
        path = write_kernel(tmp_path, scalar_kernel(table))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv, path)
        assert (code, out) == (2, "")
        assert err == f"{argv[0]}: kernel table is not hermitian at tolerance\n"
        assert [str(w.message) for w in caught] == []

    def test_overflowing_metric_is_an_input_error_not_a_pass(self, capsys, tmp_path):
        # The overflowing slacks come first; they used to hide the failing
        # triangle (a, e, b) behind a NaN margin and pass.
        path = write_metric(tmp_path, overflow_metric())
        for argv in (["check-metric"], ["embed", "--verify"]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run(capsys, argv[0], path, *argv[1:])
            assert (code, out) == (2, "")
            assert err == f"{argv[0]}: a matrix has an infinite or NaN value (overflow?)\n"
            assert [str(w.message) for w in caught] == []
        code, out, _ = run(capsys, "check-metric", write_metric(tmp_path, overflow_metric(1e-290)))
        assert code == 1
        assert json.loads(out)["witness"]["context"] == "triangle inequality fails for (a, e, b)"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 10**400])
    def test_non_finite_numbers_are_rejected_with_their_path(self, capsys, tmp_path, bad):
        doc = kernel_to_json(scalar_kernel([[1.0, 0.5], [0.5, 1.0]]))
        doc["values"][0][1][0][0][0][1] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "check-cpd", str(path))
        assert code == 2
        assert out == ""
        assert "$.values[0][1][0][0][0][1]" in err
        assert "finite" in err


class TestUnreadableInput:
    """Documents the reader cannot take end in exit 2 with a located message,
    not a traceback: a summand too large to allocate, nesting beyond the
    parser's recursion limit, an integer beyond the digit limit."""

    DOCUMENTS = {
        "huge-summand": ('{"algebra": {"summands": [200000]}, "set": ["a"], "values": [[[[]]]]}',
                         "$.values[0][0][0]: expected 200000 rows"),
        "deep-nesting": ("[" * 5000 + "]" * 5000, "$: malformed JSON: "),
        "long-integer": ('{"algebra": {"summands": [1]}, "set": ["a"], "values": [[[[['
                         + "1" * 5000 + ', 0]]]]]}', "$: malformed JSON: "),
    }

    @pytest.mark.parametrize("name", DOCUMENTS)
    @pytest.mark.parametrize("command", ["check-pd", "check-metric"])
    def test_exits_two_with_a_located_message(self, capsys, tmp_path, name, command):
        text, message = self.DOCUMENTS[name]
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"{command}: {message}") and err.count("\n") == 1
        assert "Traceback" not in err


class TestReportShape:
    def test_key_order_is_fixed(self, capsys, cpd_path):
        _, out, _ = run(capsys, "check-cpd", cpd_path)
        assert list(json.loads(out).keys()) == [
            "command", "verdict", "witness", "artifacts", "timings_ms", "tolerances",
        ]

    def test_tolerances_echoed(self, capsys, cpd_path):
        _, out, _ = run(capsys, "--tol-rel", "1e-7", "check-cpd", cpd_path)
        assert json.loads(out)["tolerances"]["tol_rel"] == 1e-7

    def test_timings_present_by_default(self, capsys, cpd_path):
        _, out, _ = run(capsys, "check-cpd", cpd_path)
        timings = json.loads(out)["timings_ms"]
        assert set(timings) == {"parse", "compute"}

    def test_no_timings_reports_are_byte_identical_across_threads(
        self, capsys, tmp_path
    ):
        cfg = GenConfig(seed=21, n=4, descriptor=AlgebraDescriptor([3, 2]))
        path = write_kernel(tmp_path, random_hermitian_kernel(cfg))
        outputs = []
        for threads in ("1", "4"):
            code, out, _ = run(
                capsys, "--no-timings", "--threads", threads, "check-cpd", path
            )
            outputs.append((code, out))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][1])["timings_ms"] is None


class TestFailedVerify:
    """A reconstruction coarser than the input fails its verify block: the
    construction reports verdict false and exits 1, on kernels and metrics."""

    @pytest.mark.parametrize("command, make", [
        ("decompose", lambda cfg: random_cpd_kernel(cfg)),
        ("ssd-decompose", lambda cfg: random_cpd_kernel(cfg, diagonal_zero=True)),
        ("embed", random_metric),
    ])
    def test_a_truncated_rank_exits_one(self, capsys, tmp_path, command, make):
        doc = make(GenConfig(seed=1, n=5, descriptor=AlgebraDescriptor([2, 1])))
        write = write_metric if command == "embed" else write_kernel
        path = write(tmp_path, doc)
        code, out, err = run(capsys, "--no-timings", "--rank-tol-rel", "0.9",
                             command, path, "--verify")
        report = json.loads(out)
        block = report["artifacts"]["verify"]
        assert (code, report["verdict"], block["ok"], err) == (1, False, False, "")
        assert block["max_error"] > block["bound"] > 0.0


def _parser_shape(parser):
    """Each argument's name or option strings, default, choices and type."""
    return [
        (tuple(a.option_strings) or a.dest, a.default,
         None if a.choices is None else tuple(a.choices), getattr(a.type, "__name__", None))
        for a in parser._actions
        if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
    ]


class TestParserShape:
    BASE_POINT = (("--base-point",), None, None, None)
    VERIFY = (("--verify",), False, None, None)
    SHAPE = {
        None: [(("--tol-rel",), 1e-09, None, "float"),
               (("--rank-tol-rel",), 1e-10, None, "float"),
               (("--threads",), 1, None, "int"),
               (("--no-timings",), False, None, None)],
        "check-pd": [("input", None, None, None)],
        "check-cpd": [("input", None, None, None), BASE_POINT,
                      (("--method",), "compression", ("compression", "shift", "corm"), None)],
        "transform": [("input", None, None, None), BASE_POINT],
        "decompose": [("input", None, None, None), BASE_POINT, VERIFY],
        "ssd-decompose": [("input", None, None, None), VERIFY],
        "embed": [("input", None, None, None), BASE_POINT, VERIFY],
        "check-metric": [("input", None, None, None)],
        "majorize": [("kernel", None, None, None), ("majorized", None, None, None), BASE_POINT],
        "demo": [("name", None, ("schur-counterexample",), None)],
        "gen": [("klass", None, None, None), (("--seed",), 0, None, "int"),
                (("--n",), 3, None, "int"), (("--dims",), [2], None, "_dims"),
                (("--rank",), None, None, "int"), (("--magnitude",), 1.0, None, "float"),
                (("--out",), None, None, None)],
    }

    def test_every_command_and_option_in_order(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        shape = {None: _parser_shape(parser)}
        shape.update((name, _parser_shape(p)) for name, p in sub.choices.items())
        assert list(shape) == list(self.SHAPE)
        assert shape == self.SHAPE


class TestParserReuse:
    """``main`` parses every call with one parser built per process."""

    def test_one_parser_serves_every_call(self):
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()

    def test_back_to_back_calls_leave_no_state_behind(self, capsys, monkeypatch, tmp_path):
        cfg = GenConfig(seed=3, n=3, descriptor=AlgebraDescriptor([2, 1]))
        K = write_kernel(tmp_path, random_cpd_kernel(cfg), "k.json")
        diag = write_kernel(tmp_path, random_cpd_kernel(cfg, diagonal_zero=True), "d.json")
        dm = write_metric(tmp_path, random_metric(cfg), "m.json")
        calls = [
            ["--tol-rel", "1e-3", "check-cpd", "--method", "shift", "--base-point", "s2", K],
            ["--no-timings", "check-cpd", K],
            ["--no-timings", "check-cpd", "--method", "corm", diag],
            ["--no-timings", "transform", "--base-point", "s3", K],
            ["--no-timings", "--tol-rel", "1e-6", "transform", K],
            ["--no-timings", "decompose", "--verify", "--base-point", "s2", K],
            ["--no-timings", "decompose", K],
            ["--no-timings", "ssd-decompose", "--verify", diag],
            ["--no-timings", "embed", "--base-point", "s3", dm],
            ["--no-timings", "embed", "--verify", dm],
            ["--no-timings", "gen", "cpd", "--n", "2", "--dims", "2,1", "--seed", "4"],
            ["--no-timings", "gen", "metric"],
            ["--no-timings", "check-cpd", "--method", "shift", "--base-point", "s3", K],
        ]

        def report(argv):
            code, out, err = run(capsys, *argv)
            doc = json.loads(out)
            if "--no-timings" not in argv:  # the one field that is not reproducible
                assert set(doc.pop("timings_ms")) == {"parse", "compute"}
            return code, doc, err

        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", build_parser)  # a fresh parser for each call
            alone = [report(argv) for argv in calls]
        assert len({json.dumps(r[1], sort_keys=True) for r in alone}) == len(calls)
        for order in (calls, calls[::-1], calls[::2] + calls[1::2]):
            assert [report(argv) for argv in order] == [alone[calls.index(a)] for a in order]
