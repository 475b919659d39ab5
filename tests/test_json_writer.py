"""The JSON writer gives exactly the stdlib's indented text.

``nuds.cli._write_json`` writes ``nuds.cli._indented_json``: the stdlib
lays out the document, each finite nonempty complex ndarray standing in
as a mark string that the writer then replaces by the array's own text.
Every text here is compared with
``json.dumps(doc, indent=2, sort_keys=True, default=linalg.vector_to_pairs)``
(``oracles.indented_json``): random documents, edge documents, documents
that hold the mark string, documents with non-str keys, and every file
the CLI writes.  The documents the stdlib refuses (a cycle, a leaf that
is not JSON, keys that do not sort) raise its error and write no file.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuds import cli, linalg
from nuds.cli import config_to_json, main
from nuds.dynamics import SystemSpec
from nuds.frames import VectorFamily
from nuds.lattice import SpectralParams
from nuds.scenarios import SCENARIOS

from oracles import indented_json

# --- random documents ---------------------------------------------------------

numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
)
# The writer's mark string among them: such a document is encoded again
# with the arrays as pairs.
scalars = st.one_of(
    st.none(), st.booleans(), numbers, st.text(max_size=8), st.just(cli._MARK)
)


def numeric_arrays(depth: int):
    """Nonempty lists nested ``depth`` deep with numbers at the bottom, ragged."""
    strategy = numbers
    for _ in range(depth):
        strategy = st.lists(strategy, min_size=1, max_size=4)
    return strategy


# Lists of [re, im] pairs and matrices of them, as linalg.vector_to_pairs
# gives them, and near misses, all of which take the generic walk.
pair_lists = st.lists(st.lists(numbers, min_size=2, max_size=2), min_size=1, max_size=5)
arrays = st.one_of(
    pair_lists,
    st.lists(pair_lists, min_size=1, max_size=3),
    st.integers(min_value=1, max_value=4).flatmap(numeric_arrays),
    st.lists(st.lists(scalars, min_size=2, max_size=2), min_size=1, max_size=3),
)
# Complex ndarrays as documents hold them: vectors, matrices and transposed
# views such as W_basis.T, finite (the formatted path) or not (the pairs),
# 1-element arrays among them.
ODD_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, 3.0, 1e16, 1e-5]
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(ODD_FLOATS)
)
any_floats = st.one_of(st.floats(), st.sampled_from(ODD_FLOATS + [math.nan, math.inf, -math.inf]))
# Arrays drawn from a small pool repeat nearly every value, and both signs
# of zero share an array: the writer spells each distinct bit pattern once.
pooled_floats = st.sampled_from([0.0, -0.0, 0.25, 1.0, 5e-324, -5e-324, 1e16, 1e-5])


@st.composite
def complex_arrays(draw):
    shape = draw(
        st.one_of(
            st.tuples(st.integers(1, 6)),
            st.tuples(st.integers(1, 4), st.integers(1, 4)),
        )
    )
    size = 2 * math.prod(shape)
    floats = draw(st.sampled_from([finite_floats, any_floats, pooled_floats]))
    flat = draw(st.lists(floats, min_size=size, max_size=size))
    z = np.array(flat, dtype=np.float64).view(complex).reshape(shape)
    return z.T if z.ndim == 2 and draw(st.booleans()) else z


documents = st.recursive(
    st.one_of(scalars, arrays, complex_arrays()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(documents)
def test_random_documents_encode_as_the_stdlib_encodes_them(doc):
    assert cli._indented_json(doc) == indented_json(doc)


# --- edge documents -----------------------------------------------------------

def _quarter_identity_with_a_negative_zero() -> np.ndarray:
    """thm319's 80 x 80 A = I/4, with one -0.0 among its off-diagonal 0.0s."""
    z = 0.25 * np.eye(80, dtype=complex)
    z[3, 61] = complex(-0.0, 0.0)
    return z


EDGE_DOCUMENTS = {
    "non-finite and odd numbers in pairs": {
        "pairs": [
            [math.nan, math.inf],
            [-math.inf, -0.0],
            [1e-300, 5e-324],
            [1.7976931348623157e308, 0],
            [-(1 << 64), 3],
        ],
        "matrix": [[[math.nan, -0.0]], [[1e300, -math.inf]]],
    },
    "bool and null inside pairs": {"a": [[True, 1.0], [2.0, None]], "b": [[False, 0]]},
    "lists of one and three elements": {
        "one": [1.5],
        "three": [[1.0, 2.0, 3.0]],
        "nested one": [[[0.25]]],
        "mixed": [[1.0], [1.0, 2.0, 3.0]],
    },
    "ragged pair lists": {
        "ragged": [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]],
        "ragged rows": [[[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]]],
        "uneven depth": [[1.0, 2.0], [[3.0, 4.0]]],
        "number beside a list": [[1.0, 2.0], 3.0],
    },
    "pairs that hold a string": {"p": [[1.0, "2.0"], ["re", "im"]], "q": [["]", ","]]},
    "empty containers at several depths": {
        "": {},
        "e": [],
        "l": [[], [[]], {}, [{}]],
        "d": {"x": {"y": {}, "z": []}},
        "pairs then empty": [[1.0, 2.0], []],
        "empty in a matrix": [[[1.0, 2.0]], []],
    },
    "a pair list inside list, dict, list": [
        {"rows": [[[1.0, -2.0], [3.5, 4.0]], [[0.0, 0.0]]], "w": [[1.0, 0.5]]},
        [{"inner": [[6.0, 7.0]]}],
    ],
    "strings and keys with separators": {
        ",": "a,b",
        "]": "[x]",
        '"': 'say "hi"',
        "\n": "line\nbreak",
        "ünïcødé ✓": "Ωmega 𝄞",
        "key, [0]": [["],[", ",\n"]],
    },
    "tuples": {"t": ([1.0, 2.0], (3.0, 4.0)), "u": ((1.0, 2.0),)},
    "numpy scalars": {"f": np.float64(0.1), "pairs": [[np.float64(1.5), 2.0]]},
    "complex ndarrays": {
        "vector": np.array([-0.0 + 5e-324j, 1.7976931348623157e308 - 3.0j, 1e16 + 1e-5j]),
        "matrix": np.array([[1 - 0.0j, 2.5j], [-1e-300, 1e300 + 7j]]),
        "transposed": np.arange(6, dtype=complex).reshape(2, 3).T * (1 - 1j),
        "one entry": np.array([[0.1 + 0.2j]]),
    },
    "I/4 with one -0.0": {
        "A": _quarter_identity_with_a_negative_zero(),
        "A.T": _quarter_identity_with_a_negative_zero().T,
    },
    "non-finite complex ndarrays": {
        "vector": np.array([complex(math.nan, 1.0), complex(-math.inf, -0.0)]),
        "matrix": np.array([[1.0, complex(0.0, math.inf)]]),
    },
    "empty complex ndarrays": {
        "(0,)": np.zeros(0, dtype=complex),
        "(2, 0)": np.zeros((2, 0), dtype=complex),
    },
    "the mark string beside arrays": {
        "s": cli._MARK,
        cli._MARK: np.eye(2, dtype=complex),
        "l": [np.array([0.5j]), cli._MARK, [cli._MARK]],
    },
    "the mark string alone": [cli._MARK, {cli._MARK: cli._MARK}],
    "the mark string inside strings": {
        "quoted": '"' + cli._MARK,
        "both": '"' + cli._MARK + '"',
        "a": np.array([1.0 + 2.0j]),
    },
    "top-level ndarray": np.eye(2, dtype=complex),
    "top-level array": [[1.0, 2.0], [3.0, 4.0]],
    "top-level scalar": -0.0,
    "top-level string": "x,]\n",
}


@pytest.mark.parametrize("doc", EDGE_DOCUMENTS.values(), ids=EDGE_DOCUMENTS.keys())
def test_edge_documents_encode_as_the_stdlib_encodes_them(tmp_path, doc):
    want = indented_json(doc)
    assert cli._indented_json(doc) == want
    path = tmp_path / "doc.json"
    cli._write_json(path, doc)
    assert path.read_bytes() == (want + "\n").encode()


def test_non_str_keys_are_coerced_as_the_stdlib_coerces_them(tmp_path):
    # No document the package builds has such a key.
    path = tmp_path / "doc.json"
    for doc in (
        {"ints": {2: [[3.0, 4.0]], 1: "x"}},
        {"floats": {2.5: None, -0.0: []}},
        {"bools": {True: 1, False: 0}},
        {"none": {None: np.array([1.0 + 2.0j])}},
    ):
        cli._write_json(path, doc)
        assert path.read_bytes() == (indented_json(doc) + "\n").encode()


def _error(encode, doc):
    with pytest.raises(Exception) as info:
        encode(doc)
    return type(info.value), str(info.value)


def _cycle():
    a = [[1.0, 2.0]]
    a.append(a)
    return {"a": a}


def _list_of_itself():
    a = []
    a.append(a)
    return a


@pytest.mark.parametrize(
    "doc",
    [
        {"a": 1, 2: "b"},  # keys that do not sort
        {"x": [[1.0, object()]]},
        {"x": {1j}},
    ],
    ids=["unsortable keys", "object leaf", "set leaf"],
)
def test_documents_the_stdlib_rejects_raise_the_stdlib_error(tmp_path, doc):
    # The error of plain json.dumps: a leaf that is neither JSON nor an
    # ndarray never reaches linalg.vector_to_pairs.
    want = _error(lambda d: json.dumps(d, indent=2, sort_keys=True), doc)
    assert _error(lambda d: cli._write_json(tmp_path / "doc.json", d), doc) == want
    assert not (tmp_path / "doc.json").exists()


@pytest.mark.parametrize("doc", [_cycle(), _list_of_itself()], ids=["cycle", "list of itself"])
def test_a_cyclic_document_raises_and_writes_nothing(tmp_path, doc):
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        cli._write_json(tmp_path / "doc.json", doc)
    assert not (tmp_path / "doc.json").exists()


# --- files the CLI writes -----------------------------------------------------


@pytest.fixture
def written(monkeypatch):
    """Every (path, document) the CLI hands to its JSON writer."""
    calls = []
    write = cli._write_json

    def recording(path, doc):
        calls.append((path, doc))
        write(path, doc)

    monkeypatch.setattr(cli, "_write_json", recording)
    return calls


def _longest_list(doc) -> int:
    if isinstance(doc, dict):
        return max(map(_longest_list, doc.values()), default=0)
    if isinstance(doc, (list, tuple)):
        return max([len(doc), *map(_longest_list, doc)])
    return 0


def _assert_stdlib_text(calls):
    assert calls
    for path, doc in calls:
        # Complex arrays are ndarrays in a document.  A long list means a
        # builder went back to vector_to_pairs lists, which the writer
        # walks item by item: about 30 % of demo time at thm319's size.
        assert _longest_list(doc) <= 64, path.name
        assert cli._indented_json(doc) == indented_json(doc)
        assert path.read_bytes() == (indented_json(doc) + "\n").encode()


@pytest.fixture(scope="module")
def d64_config(tmp_path_factory):
    """A dense d = 64 system like the benchmark's: ρ(A) ≈ 0.5, 2d frame, d/2-dim W."""
    rng = np.random.default_rng(64)
    d = 64

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    W, _ = np.linalg.qr(cplx(d, d // 2))
    spec = SystemSpec(
        params=SpectralParams(N=4, r=3), K=d // 4, A=cplx(d, d) * np.sqrt(0.125 / d),
        g=VectorFamily(vectors=cplx(2 * d, d) * np.sqrt(0.125 / d)), W_basis=W,
        w=W @ cplx(d // 2), x0=cplx(d), xm2=cplx(d),
    )
    path = tmp_path_factory.mktemp("d64") / "config.json"
    path.write_text(json.dumps(config_to_json(spec), default=linalg.vector_to_pairs))
    return path


@pytest.mark.parametrize("mode", ["finite", "infinite"])
def test_recover_report_is_the_stdlib_text(tmp_path, written, d64_config, mode, capsys):
    assert main(["recover", str(d64_config), "--mode", mode, "-o", str(tmp_path)]) == 0
    assert [path.name for path, _ in written] == ["report.json"]
    _assert_stdlib_text(written)


@pytest.mark.parametrize("scenario_id", SCENARIOS)
def test_demo_report_and_config_are_the_stdlib_text(tmp_path, written, scenario_id, capsys):
    assert main(["demo", scenario_id, "--emit-config", "-o", str(tmp_path)]) == 0
    assert [path.name for path, _ in written] == [
        f"{scenario_id}_report.json",
        f"{scenario_id}_config.json",
    ]
    _assert_stdlib_text(written)
