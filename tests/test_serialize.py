"""JSON schema round-trips: deterministic rendering, lossless doubles, and
path-labeled schema diagnostics."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpdkernels import (
    AlgebraDescriptor,
    GenConfig,
    Kernel,
    SchemaError,
    Verdict,
    decompose_cpd,
    dump_json,
    embed,
    factor_pd,
    fixture,
    is_positive_definite,
    kernel_from_json,
    kernel_norm,
    kernel_to_json,
    load_document,
    metric_from_json,
    metric_norm,
    metric_to_json,
    random_cpd_kernel,
    random_gram_kernel,
    random_hermitian_kernel,
    random_majorized_pair,
    random_metric,
    random_non_cpd_kernel,
    recover_contraction,
    scalar_kernel,
    sum_sq_diff_decomposition,
)
from cpdkernels import serialize
from cpdkernels.serialize import (
    _Arrays,
    _certificate_to_json,
    _float_stacks,
    _parse_stacks,
    _decomposition_to_json,
    _families_to_json,
    _plain,
    _table_to_json,
    certificate_to_json,
    decomposition_to_json,
    embedding_to_json,
    factorization_to_json,
    families_to_json,
    verdict_to_json,
)

from cpdkernels import cli
from helpers import (
    KERNEL_DESCRIPTORS,
    reference_dump_json,
    reference_parse_table,
    same_stacks,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestDumpJson:
    def test_fixed_layout(self):
        text = dump_json({"b": 1, "a": [True, None, "x"]})
        assert text == '{\n  "b": 1,\n  "a": [\n    true,\n    null,\n    "x"\n  ]\n}\n'

    def test_floats_carry_seventeen_significant_digits(self):
        x = 0.1 + 0.2
        text = dump_json({"x": x})
        assert json.loads(text)["x"] == x

    def test_empty_containers(self):
        assert dump_json({}) == "{}\n"
        assert dump_json([]) == "[]\n"

    def test_non_finite_floats_are_rejected(self):
        with pytest.raises(ValueError):
            dump_json({"x": float("nan")})
        with pytest.raises(ValueError):
            dump_json([float("inf")])

    def test_unsupported_types_are_rejected(self):
        with pytest.raises(TypeError):
            dump_json({"x": object()})
        with pytest.raises(ValueError):
            dump_json({1: "non-string key"})

    def test_rendering_is_reproducible(self):
        doc = kernel_to_json(
            random_cpd_kernel(GenConfig(seed=5, n=3, descriptor=AlgebraDescriptor([2, 1])))
        )
        assert dump_json(doc) == dump_json(doc)

    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_every_double_roundtrips(self, x):
        assert json.loads(dump_json([x]))[0] == x


class Row(list):
    """A list subclass, as a row of a plain nest."""


# Edits of the first entry of a ragged table (see ``ragged_table``).
RAGGED_EDITS = {
    "none": lambda e: None,
    "int 10**20": lambda e: e[1][0][0].__setitem__(0, 10**20),
    "np.float64": lambda e: e[0][1][1].__setitem__(1, np.float64(0.1)),
    "bool": lambda e: e[1][0][0].__setitem__(1, True),
    "tuple block": lambda e: e.__setitem__(0, tuple(e[0])),
    "list-subclass row": lambda e: e[0].__setitem__(1, Row(e[0][1])),
    "negative zero": lambda e: e[0][0][0].__setitem__(0, -0.0),
    "empty block": lambda e: e.__setitem__(1, []),
    "ragged part": lambda e: e[0][1].pop(),
}


def ragged_table(edit: str) -> list:
    """A plain 2 x 2 table over summands [2, 1], its first entry edited by
    ``RAGGED_EDITS[edit]``."""
    table = [[[[[[i - j + 0.5, a - b + 0.25] for b in range(d)] for a in range(d)]
               for d in (2, 1)] for j in range(2)] for i in range(2)]
    RAGGED_EDITS[edit](table[0][0])
    return table


class TestLeafListRenderer:
    """Plain nests of ``[re, im]`` pairs, rectangular or ragged, are rendered
    by one format; the bytes are those of the renderer that recurses into
    every node."""

    @pytest.mark.parametrize("obj", [
        [], [True, 1.0], [1, 2.0], [np.float64(0.1), 0.2], (0.5, -0.0, 1e-300),
        {"x": [[1.0, -2.5e17], [3.0, 4.0]], "y": [np.float64(3.0)]},
        [[]], [[1.0], [2.0, 3.0]], [[1.0, 2]], [[np.float64(1.0)]],
        [[-0.0, 1e-300, 5e-324]], [[[1.0, 2.0]], [(3.0, 4.0)]], [[1.0, [2.0]]],
        {"a": [[[0.5, -1.5], [2.5, 1e16]], [[1e17, 0.1], [3.0, 4.0]]]},
        *(ragged_table(edit) for edit in RAGGED_EDITS),
        {"points": [[[[0.5, 1.0], [2.0, -0.0]], [[3.0, 4.0]]]] * 3},
    ])
    def test_edge_leaves(self, obj):
        assert dump_json(obj) == reference_dump_json(obj)

    @given(leaves=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4,
                           max_size=4))
    def test_every_double_renders_as_one_at_a_time(self, leaves):
        obj = {"pairs": [leaves[:2], leaves[2:]]}
        assert dump_json(obj) == reference_dump_json(obj)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_leaves_are_rejected(self, bad):
        deep = [[[[1.0, 2.0], [3.0, 4.0]]] * 3, [[[1.0, 2.0], [3.0, bad]]] * 3]
        for obj in ([1.0, bad], [np.float64(bad)], deep, {"x": [[0.5], [bad]]}):
            with pytest.raises(ValueError, match="non-finite"):
                dump_json(obj)

    @pytest.mark.parametrize("argv", [["ssd-decompose", "--verify"], ["transform"]])
    def test_megabyte_reports(self, tmp_path, monkeypatch, argv):
        cfg = GenConfig(seed=1, n=10, descriptor=AlgebraDescriptor([8, 8]))
        path = tmp_path / "kernel.json"
        K = random_cpd_kernel(cfg, diagonal_zero=argv[0] == "ssd-decompose")
        path.write_text(dump_json(kernel_to_json(K)), encoding="utf-8")
        reports = []
        monkeypatch.setattr(cli, "dump_json", lambda obj: reports.append(obj) or dump_json(obj))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["--no-timings", argv[0], str(path), *argv[1:]]) == 0
        assert len(reports) == 1 and len(out.getvalue()) > 1_000_000
        # A report holds its arrays as nodes; the reference renders their plain form.
        assert out.getvalue() == reference_dump_json(_plain(reports[0]))

    def test_every_command_report(self, tmp_path, monkeypatch):
        rendered = []

        def spy(obj, *args):
            text = dump_json(obj, *args)
            rendered.append((text, reference_dump_json(_plain(obj))))
            return text

        monkeypatch.setattr(cli, "dump_json", spy)
        desc = AlgebraDescriptor([2, 1])
        docs = {
            "cpd": random_cpd_kernel(GenConfig(seed=5, n=4, descriptor=desc)),
            "diag": random_cpd_kernel(GenConfig(seed=6, n=4, descriptor=desc), diagonal_zero=True),
            "non-cpd": random_non_cpd_kernel(GenConfig(seed=7, n=4, descriptor=desc)),
            "metric": random_metric(GenConfig(seed=8, n=4, descriptor=desc)),
            "star": fixture("star-metric"),
        }
        big, small, s0 = random_majorized_pair(GenConfig(seed=9, n=4, descriptor=desc))
        docs.update(big=big, small=small)
        p = {}
        for name, obj in docs.items():
            to_json = metric_to_json if name in ("metric", "star") else kernel_to_json
            p[name] = tmp_path / f"{name}.json"
            p[name].write_text(dump_json(to_json(obj)), encoding="utf-8")
        commands = [
            ["check-pd", p["cpd"]], ["transform", p["cpd"]],
            *(["check-cpd", p["non-cpd"], "--method", m] for m in ("compression", "shift", "corm")),
            ["decompose", p["cpd"], "--verify"], ["ssd-decompose", p["diag"], "--verify"],
            ["embed", p["metric"], "--verify"], ["embed", p["star"]],
            ["check-metric", p["metric"]], ["majorize", p["big"], p["small"], "--base-point", s0],
            ["demo", "schur-counterexample"], ["gen", "metric", "--n", "4", "--dims", "2,1"],
        ]
        for argv in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                cli.main(["--no-timings", *map(str, argv)])
            assert rendered and rendered[-1][0] == out.getvalue()
        assert len(rendered) == len(commands)
        for text, reference in rendered:
            assert text == reference


def plain_documents(n: int) -> dict:
    """Plain documents of ``n`` labels from the public writers, each with the
    report node builder's document of the same object: kernels and metrics
    over [2, 1] and [3, 2], a decomposition with unequal ranks and a
    majorization certificate."""
    docs = {}
    for dims in ([2, 1], [3, 2]):
        cfg = GenConfig(seed=n, n=n, descriptor=AlgebraDescriptor(dims))
        K, dm = random_cpd_kernel(cfg), random_metric(cfg)
        docs[f"kernel {dims}"] = (kernel_to_json(K), _table_to_json(K, "values"))
        docs[f"metric {dims}"] = (metric_to_json(dm), _table_to_json(dm, "metric"))
    dec = decompose_cpd(K, "s1")
    assert len(set(dec.factorization.ranks)) > 1
    docs["decomposition"] = (decomposition_to_json(dec), _decomposition_to_json(dec))
    big, small, s0 = random_majorized_pair(cfg)
    cert = recover_contraction(big, small, s0)
    docs["certificate"] = (certificate_to_json(cert), _certificate_to_json(cert))
    return docs


class TestPlainDocumentsTakeTheNode:
    """A plain document renders its arrays as the report's nodes do: the
    number of ``_render`` calls, labels aside, does not grow with the set,
    and the bytes are the node builder's and the reference's."""

    def test_render_calls_do_not_grow_with_n(self, monkeypatch):
        calls = []
        render = serialize._render

        def spy(obj, out, level):
            calls.append(type(obj))
            return render(obj, out, level)

        monkeypatch.setattr(serialize, "_render", spy)
        counts = {4: {}, 16: {}}
        for n, count in counts.items():
            for name, (plain, nodes) in plain_documents(n).items():
                calls.clear()
                text = dump_json(plain)
                count[name] = sum(t is not str for t in calls)
                assert text == dump_json(nodes) == reference_dump_json(plain), (name, n)
        assert counts[4] == counts[16]


def array_nodes(dims, n, seed=0) -> dict:
    """One report node of each layout over summands ``dims`` and ``n`` labels,
    with random entries; the points give the summands of size 1 rank 0."""
    rng = np.random.default_rng(seed)

    def arr(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    ranks = [d - 1 for d in dims]
    return {
        "table": _Arrays((n, n), [arr(n, n, d, d) for d in dims]),
        "points": _Arrays((n,), [arr(n, r, d) for r, d in zip(ranks, dims)]),
        "families": _Arrays((3, n), [arr(3, n, d, d) for d in dims]),
        "certificate": _Arrays((), [arr(r, d) for r, d in zip(ranks, dims)]),
        "vector": _Arrays(None, [arr(n * dims[0])]),
    }


class TestArrayRenderer:
    """Report nodes render straight from their arrays; the bytes are those of
    the renderer that recurses into every node of their plain form."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("dims", [[1], [2, 1], [8, 8], [3, 2]])
    def test_nodes_match_the_reference_at_every_level(self, dims, n):
        for name, node in array_nodes(dims, n).items():
            obj = node
            for level in range(5):
                assert dump_json(obj) == reference_dump_json(_plain(obj)), (name, level)
                obj = {"level": obj} if level % 2 else {"level": obj, "next": [1.5]}

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("dims", [[1], [2, 1], [8, 8], [3, 2]])
    def test_report_builders_match_the_reference(self, dims, n):
        cfg = GenConfig(seed=n, n=n, descriptor=AlgebraDescriptor(dims))
        K = random_cpd_kernel(cfg)
        D = random_cpd_kernel(cfg, diagonal_zero=True)
        docs = [_table_to_json(K, "values"), _table_to_json(D, "metric")]
        if n > 1:  # the decompositions need two labels
            docs += [_decomposition_to_json(decompose_cpd(K, "s1")),
                     _families_to_json(sum_sq_diff_decomposition(D), D.index_set)]
        for doc in docs:
            assert dump_json(doc) == reference_dump_json(_plain(doc))

    def test_rank_zero_summands_and_no_families_render_as_empty_lists(self):
        K = scalar_kernel([[0.0, 0.0], [0.0, 0.0]])
        dec = _decomposition_to_json(decompose_cpd(K, "s1"))
        assert dec["factorization"]["ranks"] == [0]
        text = dump_json(dec)
        assert text == reference_dump_json(_plain(dec))
        assert '"points": [\n      [\n        []\n      ],' in text
        families = _families_to_json(sum_sq_diff_decomposition(K), K.index_set)
        assert dump_json(families) == "[]\n" and _plain(families) == []
        node = _Arrays((2,), [np.zeros((2, 0, 3)), np.ones((2, 1, 1))])
        assert dump_json(node) == reference_dump_json(_plain(node))
        assert dump_json(_Arrays((0, 2), [])) == "[]\n"

    def test_negative_zero_renders_as_minus_zero(self):
        node = _Arrays(None, [np.array([complex(-0.0, 0.0), complex(0.0, -0.0)])])
        text = dump_json(node)
        assert text == "[\n  [\n    -0,\n    0\n  ],\n  [\n    0,\n    -0\n  ]\n]\n"
        assert text == reference_dump_json(_plain(node))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("imag", [False, True])
    def test_non_finite_entries_are_rejected(self, bad, imag):
        for node in array_nodes([2, 1], 2).values():
            for A in node.arrays:
                if A.size:
                    A.flat[-1] = complex(0.0, bad) if imag else complex(bad, 0.0)
                    with pytest.raises(ValueError, match="non-finite"):
                        dump_json({"node": node})
                    A.flat[-1] = 0.0


class TestKernelRoundtrip:
    @given(seed=seeds)
    def test_lossless(self, seed):
        K = random_cpd_kernel(GenConfig(seed=seed, n=3, descriptor=AlgebraDescriptor([2, 1])))
        doc = load_document(dump_json(kernel_to_json(K)))
        assert isinstance(doc, Kernel)
        assert doc.index_set.labels == K.index_set.labels
        assert doc.descriptor == K.descriptor
        assert kernel_norm(doc - K) == 0.0

    def test_fixture_roundtrip_is_exact(self):
        K = fixture("schur-counterexample")
        doc = load_document(dump_json(kernel_to_json(K)))
        assert kernel_norm(doc - K) == 0.0

    def test_direct_parse(self):
        K = kernel_from_json(kernel_to_json(scalar_kernel([[0.0, -1.0], [-1.0, 0.0]])))
        assert K.n == 2


class TestBlockParser:
    """Tables are read one array per summand; the bits, the accepted inputs
    and the located errors are those of the reader that walks every pair."""

    @pytest.mark.parametrize("dims", KERNEL_DESCRIPTORS)
    def test_kernels_match_the_pair_reader(self, dims):
        cfg = GenConfig(seed=len(dims), n=4, descriptor=AlgebraDescriptor(dims))
        for K in (random_hermitian_kernel(cfg), random_cpd_kernel(cfg, diagonal_zero=True)):
            doc = json.loads(dump_json(kernel_to_json(K)))
            assert same_stacks(kernel_from_json(doc), reference_parse_table(doc, "values"))

    @pytest.mark.parametrize("dims", [[1], [2, 1], [3, 3]])
    def test_metrics_match_the_pair_reader(self, dims):
        dm = random_metric(GenConfig(seed=3, n=5, descriptor=AlgebraDescriptor(dims)))
        doc = json.loads(dump_json(metric_to_json(dm)))
        assert same_stacks(metric_from_json(doc), reference_parse_table(doc, "metric"))

    def test_integers_are_read_as_floats(self):
        doc = json.loads(dump_json(kernel_to_json(scalar_kernel([[0.0, 2.0], [2.0, 0.0]]))))
        doc["values"][0][1][0][0][0][0] = 2**53 + 1
        doc["values"][1][0][0][0][0] = [-(2**70), 0]
        K = kernel_from_json(doc)
        assert same_stacks(K, reference_parse_table(doc, "values"))
        assert K.value(0, 1).blocks[0][0, 0] == float(2**53 + 1) == 2.0**53

    @pytest.mark.parametrize("leaf, where, message", [
        ("7", "[3][1]", None),
        ("true", "[3][0]", "expected a number"),
        ("NaN", "[3][1]", "expected a finite number, not NaN or Infinity"),
        ("-Infinity", "[3][0]", "expected a finite number, not NaN or Infinity"),
        ("1e999", "[3][1]", "expected a finite number, not NaN or Infinity"),
        ("1" + "0" * 400, "[3][0]", "expected a finite number, not NaN or Infinity"),
        ("[0.5]", "[3]", "expected an [re, im] pair"),
        ("SHORT", "", "expected 8 entries"),
    ])
    def test_deep_leaves_are_read_or_located(self, leaf, where, message):
        K = random_cpd_kernel(GenConfig(seed=2, n=3, descriptor=AlgebraDescriptor([8, 8])))
        doc = kernel_to_json(K)
        row = doc["values"][2][1][1][5]
        if leaf == "SHORT":
            row.pop()
        elif where == "[3]":
            row[3] = json.loads(leaf)
        else:
            row[3][int(where[-2])] = "LEAF"
        text = dump_json(doc).replace('"LEAF"', leaf)
        if message is None:
            parsed = load_document(text)
            assert parsed.value(2, 1).blocks[1][5, 3] == complex(row[3][0], 7.0)
            assert same_stacks(parsed, reference_parse_table(json.loads(text), "values"))
            return
        with pytest.raises(SchemaError) as exc:
            load_document(text)
        assert exc.value.path == "$.values[2][1][1][5]" + where
        assert str(exc.value) == f"{exc.value.path}: {message}"


# Values a mutation writes into a table: numbers the schema reads, numbers
# it refuses, and nodes of every other JSON type.  Builders, so no draw
# shares a list with another.
MUTANTS = [lambda: 0, lambda: 7, lambda: -0.0, lambda: 2.5, lambda: np.float64(0.25),
           lambda: 10**400, lambda: float("nan"), lambda: float("-inf"), lambda: True,
           lambda: None, lambda: "1", lambda: {}, lambda: [], lambda: [0.5],
           lambda: [0.5, 1.0], lambda: [[0.5, 1.0]], lambda: (0.5, 1.0)]


def lists_in(node):
    """Every list of a nest, the root included, in reading order."""
    if isinstance(node, list):
        yield node
        for child in node:
            yield from lists_in(child)


@st.composite
def mutated_tables(draw):
    """A well-formed ``n x n`` table, ``n <= 3``, over ``[1]``, ``[2, 1]`` or
    ``[2, 2]``, then up to three edits: a list item set to a mutant or
    removed, or a mutant appended to a list."""
    dims, n = draw(st.sampled_from([(1,), (2, 1), (2, 2)])), draw(st.integers(1, 3))
    table = [[[[[[float(i - j), 0.5 * (a + b)] for b in range(d)] for a in range(d)]
               for d in dims] for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(list(lists_in(table))))
        op = draw(st.sampled_from(["set", "pop", "append"]))
        if not target or op == "append":
            target.append(draw(st.sampled_from(MUTANTS))())
        elif op == "pop":
            target.pop(draw(st.integers(0, len(target) - 1)))
        else:
            target[draw(st.integers(0, len(target) - 1))] = draw(st.sampled_from(MUTANTS))()
    return table, AlgebraDescriptor(dims), n


class TestPairWalk:
    """The pair walk only names the error: it raises on exactly the tables
    the array conversion refuses, always before its fail-closed end."""

    @given(mutated_tables())
    def test_raises_exactly_where_the_conversion_refuses(self, case):
        table, desc, n = case
        stacks = _float_stacks(table, desc, n)
        try:
            parsed = _parse_stacks(table, desc, n, "$.values")
        except SchemaError as exc:
            assert stacks is None
            assert "table not read" not in str(exc)
        else:
            assert stacks is not None and all(map(np.array_equal, parsed, stacks))


class TestMetricRoundtrip:
    @given(seed=seeds)
    def test_lossless(self, seed):
        dm = random_metric(GenConfig(seed=seed, n=3, descriptor=AlgebraDescriptor([2])))
        doc = load_document(dump_json(metric_to_json(dm)))
        assert doc.index_set.labels == dm.index_set.labels
        err = max(
            np.max(np.abs(a.blocks[k] - b.blocks[k]))
            for ra, rb in zip(doc.values, dm.values)
            for a, b in zip(ra, rb)
            for k in range(len(a.blocks))
        )
        assert err == 0.0

    def test_direct_parse(self):
        dm = fixture("star-metric")
        again = metric_from_json(metric_to_json(dm))
        assert metric_norm(again) == metric_norm(dm)


class TestSchemaErrors:
    def test_malformed_json(self):
        with pytest.raises(SchemaError) as exc:
            load_document("{not json")
        assert exc.value.path == "$"

    def test_top_level_must_be_an_object(self):
        with pytest.raises(SchemaError):
            load_document("[1, 2]")

    def test_both_table_keys_rejected(self):
        with pytest.raises(SchemaError, match="both"):
            load_document('{"algebra": {"summands": [1]}, "set": ["a"], "values": [], "metric": []}')

    def test_neither_table_key_rejected(self):
        with pytest.raises(SchemaError, match="neither"):
            load_document('{"algebra": {"summands": [1]}, "set": ["a"]}')

    def test_missing_algebra(self):
        with pytest.raises(SchemaError) as exc:
            load_document('{"set": ["a"], "values": []}')
        assert exc.value.path == "$"
        assert "algebra" in str(exc.value)

    def test_bad_summand(self):
        doc = '{"algebra": {"summands": [1, 0]}, "set": ["a"], "values": [[[[ [0,0] ]]]]}'
        with pytest.raises(SchemaError) as exc:
            load_document(doc)
        assert exc.value.path == "$.algebra.summands[1]"

    def test_boolean_summand_is_not_an_integer(self):
        doc = '{"algebra": {"summands": [true]}, "set": ["a"], "values": [[[[ [0,0] ]]]]}'
        with pytest.raises(SchemaError) as exc:
            load_document(doc)
        assert exc.value.path == "$.algebra.summands[0]"

    def test_duplicate_labels(self):
        doc = '{"algebra": {"summands": [1]}, "set": ["a", "a"], "values": []}'
        with pytest.raises(SchemaError) as exc:
            load_document(doc)
        assert exc.value.path == "$.set"

    def test_non_string_label(self):
        doc = '{"algebra": {"summands": [1]}, "set": [1], "values": []}'
        with pytest.raises(SchemaError) as exc:
            load_document(doc)
        assert exc.value.path == "$.set[0]"

    def test_wrong_row_count(self):
        doc = '{"algebra": {"summands": [1]}, "set": ["a", "b"], "values": [[]]}'
        with pytest.raises(SchemaError) as exc:
            load_document(doc)
        assert exc.value.path == "$.values"

    def test_wrong_block_count_names_the_entry(self):
        doc = (
            '{"algebra": {"summands": [1, 1]}, "set": ["a"],'
            ' "values": [[ [ [[ [0,0] ]] ] ]]}'
        )
        with pytest.raises(SchemaError) as exc:
            load_document(doc)
        assert exc.value.path == "$.values[0][0]"
        assert "expected 2 blocks" in str(exc.value)

    def test_malformed_pair_names_the_coordinates(self):
        doc = (
            '{"algebra": {"summands": [1]}, "set": ["a"],'
            ' "values": [[ [ [[ [0] ]] ] ]]}'
        )
        with pytest.raises(SchemaError) as exc:
            load_document(doc)
        assert exc.value.path == "$.values[0][0][0][0][0]"

    def test_boolean_number_is_rejected(self):
        doc = (
            '{"algebra": {"summands": [1]}, "set": ["a"],'
            ' "values": [[ [ [[ [true, 0] ]] ] ]]}'
        )
        with pytest.raises(SchemaError) as exc:
            load_document(doc)
        assert exc.value.path.endswith("[0]")
        assert "number" in str(exc.value)


class TestArtifactSerialization:
    def test_verdict_with_witness(self):
        verdict = is_positive_definite(scalar_kernel([[1.0, 2.0], [2.0, 1.0]]))
        doc = verdict_to_json(verdict)
        assert doc["holds"] is False
        w = doc["witness"]
        assert w["eigenvalue"] == pytest.approx(-1.0)
        assert len(w["vector"]) == 2
        text = dump_json(doc)
        assert dump_json(doc) == text

    def test_verdict_without_witness(self):
        doc = verdict_to_json(Verdict(True))
        assert doc == {"holds": True, "witness": None, "context": None}

    def test_factorization_document(self):
        L = random_gram_kernel(GenConfig(seed=4, n=2, descriptor=AlgebraDescriptor([2])))
        fact = factor_pd(L)
        doc = factorization_to_json(fact)
        assert doc["set"] == ["s1", "s2"]
        assert doc["ranks"] == list(fact.ranks)
        assert len(doc["points"]) == 2
        dump_json(doc)

    def test_decomposition_and_embedding_documents(self):
        K = random_cpd_kernel(GenConfig(seed=6, n=3, descriptor=AlgebraDescriptor([1])))
        dec = decompose_cpd(K, "s1")
        doc = decomposition_to_json(dec)
        assert doc["base_point"] == "s1"
        assert len(doc["affine"]) == 3
        dm = fixture("collinear-3")
        emb = embedding_to_json(embed(dm, "p1"))
        assert emb["base_point"] == "p1"
        dump_json(doc)
        dump_json(emb)

    def test_certificate_and_families_documents(self):
        K = fixture("schur-counterexample")
        cert = recover_contraction(K, 0.5 * K, "s1")
        doc = certificate_to_json(cert)
        assert doc["norm_W"] == pytest.approx(1.0 / np.sqrt(2.0))
        assert doc["residual"] <= 1e-12
        fams = sum_sq_diff_decomposition(K)
        fams_doc = families_to_json(fams, K.index_set)
        assert len(fams_doc) == 1
        assert len(fams_doc[0]) == 2
        dump_json(fams_doc)
