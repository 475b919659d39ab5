"""Config ingestion gives exactly what the serial path gives.

A config is decoded by a walk over its top-level object and a share
parser (see ``nuds.cli._decode_split``).  Each dense matrix is decoded
one row at a time, each row converted when it arrives.  A config whose
arrays are large enough is decoded in two processes: a forked child
decodes and parses part of the array fields while the command decodes
and parses the rest.  ``json.load`` serves only text that the walk or a
share rejects, and text that repeats a key.  Every result here is
compared with the serial path, one ``json.load`` followed by
``parse_config``: the same arrays bit for bit, the same tolerances, and
for invalid input the same exit code and message.
"""

import json
import os
import tracemalloc

import numpy as np
import pytest

from nuds import cli, linalg
from nuds.cli import FORK_MIN_CONFIG_CHARS, config_to_json, main, parse_config
from nuds.dynamics import SystemSpec
from nuds.frames import VectorFamily
from nuds.lattice import SpectralParams
from nuds.linalg import spectral_radius, vector_to_pairs
from nuds.tolerances import DEFAULTS

# d = 96 with a 2d-vector family and a d/2-dimensional W: in compact form
# the child's share is ~0.7M characters, above the fork floor.
DIM = 96
ARRAY_FIELDS = ("A", "g", "W", "w", "x0", "xm2")


def _random_doc(dim: int, seed: int) -> dict:
    """A dim-dimensional config with a 2dim-vector family and a dim/2-dimensional W."""
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    W, _ = np.linalg.qr(cplx(dim, dim // 2))
    spec = SystemSpec(
        params=SpectralParams(N=4, r=3), K=dim // 4, A=0.05 * cplx(dim, dim),
        g=VectorFamily(vectors=cplx(2 * dim, dim)), W_basis=W,
        w=W @ cplx(dim // 2), x0=cplx(dim), xm2=cplx(dim),
    )
    tol = DEFAULTS.with_overrides({"BS_TOL": 3e-7, "PIVOT_TOL": 1e-13})
    return config_to_json(spec, tol)


@pytest.fixture(scope="module")
def doc():
    return _random_doc(DIM, 96)


@pytest.fixture
def loads(monkeypatch):
    """The list that each ``json.load`` call appends to, from now on."""
    real_load, calls = json.load, []

    def counted_load(fh, *args, **kwargs):
        calls.append(fh)
        return real_load(fh, *args, **kwargs)

    monkeypatch.setattr(json, "load", counted_load)
    return calls


def _text(items, indent=None) -> str:
    """JSON text of an object with these (key, value) members, duplicates kept."""
    if indent is None:
        sep = ","
        members = [
            json.dumps(k) + ":" + json.dumps(v, separators=(",", ":"), default=vector_to_pairs)
            for k, v in items
        ]
    else:
        sep = ",\n  "
        members = [
            json.dumps(k)
            + ": "
            + json.dumps(v, indent=indent, default=vector_to_pairs).replace("\n", "\n  ")
            for k, v in items
        ]
    return "{" + sep.join(members) + "}"


def _write(tmp_path, text: str, name="config.json"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _serial(path):
    """Today's serial path: the result or the error of json.load + parse_config."""
    with open(path) as fh:
        return parse_config(json.load(fh))


def _shares(text: str):
    """The keys of the array fields the child parses, and of those kept here."""
    theirs, mine = cli._split(cli._walk(text), radius=False)
    return [m.key for m in theirs], [m.key for m in mine]


def _assert_identical(got, want, rho=None):
    """``got``, the loader's record, holds the serial spec and tolerances, seeded with ``rho``."""
    spec, tol, got_rho = got.spec, got.tol, vars(got).get("rho")  # a seeded rho only
    ref, ref_tol = want
    assert got_rho == rho
    assert tol == ref_tol
    assert (spec.params, spec.dim, spec.K) == (ref.params, ref.dim, ref.K)
    for name in ("A", "W_basis", "w", "x0", "xm2"):
        a, b = getattr(spec, name), getattr(ref, name)
        assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides), name
        assert a.tobytes() == b.tobytes(), name
    assert spec.g.vectors.strides == ref.g.vectors.strides
    assert spec.g.vectors.tobytes() == ref.g.vectors.tobytes()


@pytest.fixture(scope="module")
def texts(doc):
    items = list(doc.items())
    # Keys reordered, and A given twice: the first value is replaced.
    reordered = items[::-1]
    reordered.insert(2, ("A", [[[0.0, 0.0]] * DIM] * DIM))
    # A string member whose text looks like array members.
    noted = [("note", '"g": [[1, 2]], "A": ')] + items
    text = _text(items)
    A = text.index('"A":')
    A_end = text.index("]]]", A) + 3
    # The largest array this process keeps parses after the fork.
    _, mine = cli._split(cli._walk(text), radius=False)
    kept = max(mine, key=lambda m: m.size)
    return {
        "compact": text,
        "indent": _text(items, indent=2),
        "reordered-duplicate": _text(reordered),
        "string-with-key": _text(noted),
        # invalid
        "trailing-data": text + ' {"K": 1}',
        "bom": "\ufeff" + text,
        "truncated": text[: len(text) * 2 // 3],
        "missing-comma": text[:A].rstrip(",") + " " + text[A:],
        "extra-bracket": text[:A_end] + "]" + text[A_end:],
        # A pair holding a string shaped like the start of a member.
        "string-in-array": text[: A_end - 2] + '],["\\"g\\": ",0' + text[A_end - 2 :],
        # A trailing comma, a token the scanner rejects with StopIteration,
        # in an array that this process decodes.
        "trailing-comma-kept": text[: kept.end - 1] + "," + text[kept.end - 1 :],
    }


@pytest.mark.parametrize("form", ["compact", "indent", "reordered-duplicate", "string-with-key"])
def test_split_ingestion_is_bit_identical_to_serial(tmp_path, texts, forks, loads, form):
    path = _write(tmp_path, texts[form])
    members = cli._walk(texts[form])
    repeated = form == "reordered-duplicate"
    if repeated:
        # A repeated key is left to json.load, which keeps the last value.
        assert members is None
    else:
        theirs, mine = cli._split(members, radius=False)
        assert {m.key for m in theirs + mine} >= set(ARRAY_FIELDS) and theirs
        assert sum(m.size for m in theirs) >= FORK_MIN_CONFIG_CHARS
    got = cli._load_config(str(path), {})
    assert [code for _, code in forks] == ([] if repeated else [0])
    assert len(loads) == repeated
    _assert_identical(got, _serial(path))


@pytest.mark.parametrize("form", ["compact", "reordered-duplicate"])
def test_radius_split_gives_the_child_the_last_A_alone(
    tmp_path, monkeypatch, loads, texts, forks, form
):
    members = cli._walk(texts[form])
    if form == "compact":
        theirs, mine = cli._split(members, radius=True)
        (A,) = [m for m in members if m.key == "A"]
        assert theirs == [A]
        assert mine == [m for m in members if m.is_array and m is not A]
        return
    # With A given twice, json.load keeps the last A, and no child starts
    # even where one would compute rho(A).
    assert members is None
    monkeypatch.setattr(cli, "FORK_MIN_RADIUS_DIM", DIM)
    path = _write(tmp_path, texts[form])
    got = cli._load_config(str(path), {}, radius=True)
    assert (forks, len(loads)) == ([], 1)
    _assert_identical(got, _serial(path))


@pytest.mark.parametrize("dim", [96, 256])
def test_shares_of_a_bench_shaped_config(dim):
    # A 2d-vector g and a d/2-dimensional W: this process keeps g, the
    # largest array, and the child's share clears the fork floor; with
    # rho(A) asked for, the child takes A alone, which clears the floor
    # from d = 128 on.
    members = cli._walk(_text(_random_doc(dim, dim).items()))
    for radius, child, clears in [
        (False, {"A", "W", "w", "x0", "xm2"}, True),
        (True, {"A"}, dim >= 128),
    ]:
        theirs, mine = cli._split(members, radius)
        assert {m.key for m in theirs} == child
        assert {m.key for m in mine} == set(ARRAY_FIELDS) - child
        assert (sum(m.size for m in theirs) >= FORK_MIN_CONFIG_CHARS) == clears


def test_a_generator_A_keeps_the_size_split(doc):
    A = {"generator": "scaled_identity", "scale": [0.5, 0]}
    members = cli._walk(_text(dict(doc, A=A).items()))
    theirs, mine = cli._split(members, radius=True)
    assert (theirs, mine) == cli._split(members, radius=False)
    assert theirs and "A" not in [m.key for m in theirs + mine]


def test_radius_split_is_bit_identical_to_serial(tmp_path, monkeypatch, texts, forks):
    # Below FORK_MIN_CONFIG_CHARS alone, the child that also computes
    # rho(A) starts from FORK_MIN_RADIUS_DIM on.
    (A,), _ = cli._split(cli._walk(texts["compact"]), radius=True)
    assert A.size < FORK_MIN_CONFIG_CHARS
    monkeypatch.setattr(cli, "FORK_MIN_RADIUS_DIM", DIM)
    path = _write(tmp_path, texts["compact"])
    got = cli._load_config(str(path), {}, radius=True)
    assert [code for _, code in forks] == [0]
    want = _serial(path)
    _assert_identical(got, want, rho=spectral_radius(want[0].A))


@pytest.mark.parametrize("decode", ["fork-refused", "child-fails"])
def test_radius_decode_without_a_child_seeds_the_forked_radius(
    tmp_path, monkeypatch, request, forks, decode
):
    # At the real FORK_MIN_RADIUS_DIM, a decode whose child never ran its
    # job runs it here, rho(A) included, and gives the forked load's record.
    dim = cli.FORK_MIN_RADIUS_DIM
    path = _write(tmp_path, _text(_random_doc(dim, dim).items()))
    forked = cli._load_config(str(path), {}, radius=True)
    assert [code for _, code in forks] == [0]
    want = _serial(path)
    rho = linalg.spectral_radius(want[0].A)
    _assert_identical(forked, want, rho=rho)
    if decode == "fork-refused":
        monkeypatch.setattr(os, "fork", _refuse_fork)
    else:
        request.getfixturevalue("child_cannot_pickle")
    got = cli._load_config(str(path), {}, radius=True)
    assert [code for _, code in forks] == ([0] if decode == "fork-refused" else [0, 1])
    _assert_identical(got, want, rho=rho)


def _tree_bytes(text: str, start: int) -> int:
    """Bytes held by the JSON tree decoded at ``start``, with tracemalloc on."""
    base = tracemalloc.get_traced_memory()[0]
    tree, _ = cli._scan(text, start)
    held = tracemalloc.get_traced_memory()[0] - base
    del tree
    return held


def _traced_share(text: str, share, dim: int):
    """``_parse_share``'s values and the peak bytes it allocates, with tracemalloc on."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    values = cli._parse_share(text, share, dim)
    return values, tracemalloc.get_traced_memory()[1] - base


def test_parse_share_frees_each_tree_before_the_next():
    # Two equal vectors: decoding the second must not find the first's
    # tree of [re, im] lists still alive.  A 256-row matrix is decoded one
    # row at a time: beside its output array, only a row's tree or two
    # may be alive, never the whole matrix's tree.
    n, rows, cols = 20000, 256, 64
    pairs = [[i + 0.5, -i - 0.25] for i in range(n)]
    g = [pairs[k * cols : (k + 1) * cols] for k in range(rows)]
    text = _text([("dim", n), ("w", pairs), ("x0", pairs), ("g", g)])
    *vectors, matrix = [m for m in cli._walk(text) if m.is_array]
    tracemalloc.start()
    try:
        vector_tree = _tree_bytes(text, vectors[0].start)
        row_tree = _tree_bytes(text, matrix.start + 1)
        matrix_tree = _tree_bytes(text, matrix.start)
        values, vector_peak = _traced_share(text, vectors, n)
        (family,), matrix_peak = _traced_share(text, [matrix], n)
    finally:
        tracemalloc.stop()
    assert [v.value.shape for v in values] == [(n,), (n,)]
    assert vector_peak < 1.5 * vector_tree
    out = family.value.vectors
    assert out.tobytes() == linalg.matrix_from_pairs(g).tobytes()
    bound = 3 * (row_tree + out.nbytes)
    assert bound < matrix_tree / 2  # so the bound tells a row from the whole tree
    assert matrix_peak < bound


def _outcome(path, capsys):
    code = main(["check", str(path)])
    return code, capsys.readouterr().err


def _serial_outcome(path):
    """Exit code and stderr of the serial path on an invalid config."""
    try:
        _serial(path)
    except json.JSONDecodeError as exc:
        return 2, f"config error: config {path} is not valid JSON: {exc}\n"
    except ValueError as exc:
        return 2, f"config error: {exc}\n"
    raise AssertionError("the config is valid")


@pytest.mark.parametrize(
    "case",
    [
        "trailing-data", "bom", "truncated", "missing-comma", "extra-bracket",
        "string-in-array", "trailing-comma-kept",
    ],
)
def test_invalid_input_reads_as_json_load_reads_it(tmp_path, capsys, texts, forks, case):
    path = _write(tmp_path, texts[case])
    assert _outcome(path, capsys) == _serial_outcome(path)
    # The walk rejects every case but two before it forks.  An extra
    # bracket after A passes the walk; the child, which decodes A, finds
    # that A ends one character early and fails.  A trailing comma in an
    # array this process keeps also passes the walk: this process fails
    # to decode it and ends the child, whatever the child made of its share.
    if case == "extra-bracket":
        assert [code for _, code in forks] == [1]
    else:
        assert len(forks) == (case == "trailing-comma-kept")


def _with_nulls(doc, keys):
    bad = dict(doc)
    for key in keys:
        rows = vector_to_pairs(doc[key])
        rows[-1] = [[None, 0.0]] + rows[-1][1:]
        bad[key] = rows
    return bad


@pytest.mark.parametrize("side", ["child", "parent", "both"])
def test_a_null_in_a_pair_gives_the_serial_message(
    tmp_path, capsys, loads, doc, texts, forks, side
):
    theirs, mine = _shares(texts["compact"])
    # The first error in parse order is the one reported.  With both
    # sides bad, this process's field comes first, so its error wins.
    parent_key = next(k for k in ("A", "g", "W") if k in mine)
    child_key = next(k for k in ("W", "g", "A") if k in theirs)
    assert "AgW".index(parent_key) < "AgW".index(child_key)
    keys = {"child": [child_key], "parent": [parent_key], "both": [parent_key, child_key]}
    path = _write(tmp_path, _text(_with_nulls(doc, keys[side]).items()))
    code, err = _serial_outcome(path)
    assert err.startswith(f"config error: {keys[side][0]}: ")
    # A field that either process cannot parse sends the whole text down
    # the serial path: one json.load, whichever side holds the field.
    loads.clear()
    assert _outcome(path, capsys) == (code, err)
    assert len(forks) == 1 and len(loads) == 1


# Rows a streamed matrix may meet, each a function of the field's rows.
ROW_EDGES = {
    "ragged": lambda rows: rows[:-1] + [rows[-1][:-1]],
    "non-list-row": lambda rows: rows[:1] + [0.5] + rows[2:],
    "empty-row": lambda rows: rows[:1] + [[]] + rows[2:],
    "empty-matrix": lambda rows: [],
    "null-in-first-row": lambda rows: [[[None, 0.0]] + rows[0][1:]] + rows[1:],
    "null-in-last-row": lambda rows: rows[:-1] + [rows[-1][:-1] + [[0.0, None]]],
    "nan-in-first-row": lambda rows: [[[float("nan"), 0.0]] + rows[0][1:]] + rows[1:],
    "nan-in-last-row": lambda rows: rows[:-1] + [rows[-1][:-1] + [[0.0, float("nan")]]],
    "four-levels": lambda rows: [rows],
}


def _row_edge_text(doc, key: str, case: str) -> str:
    rows = vector_to_pairs(doc[key])
    if case == "replaced-duplicate":
        # Valid: the invalid first value is replaced by the later member.
        return _text([(key, ROW_EDGES["null-in-first-row"](rows)), *doc.items()])
    if case == "whitespace":
        # Newlines and tabs between rows, between pairs and inside pairs.
        spaced = json.dumps(rows, indent="\t", separators=(" ,", ": "))
        text = _text(dict(doc, **{key: "ROWS"}).items())
        return text.replace('"ROWS"', "\r\n " + spaced + " \n")
    return _text(dict(doc, **{key: ROW_EDGES[case](rows)}).items())


def _refuse_fork():
    raise OSError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("decode", ["forked", "one-process"])
@pytest.mark.parametrize("key", ["A", "g", "W"])
@pytest.mark.parametrize("case", [*ROW_EDGES, "whitespace", "replaced-duplicate"])
def test_row_edges_read_as_json_load_reads_them(
    tmp_path, capsys, monkeypatch, loads, forks, case, key, decode
):
    path = _write(tmp_path, _row_edge_text(_random_doc(8, 8), key, case))
    try:
        want, valid = _serial(path), True
    except ValueError:
        want, valid = _serial_outcome(path), False
    assert valid == (case in ("whitespace", "replaced-duplicate"))
    if decode == "forked":
        monkeypatch.setattr(cli, "FORK_MIN_CONFIG_CHARS", 1)
    else:
        monkeypatch.setattr(os, "fork", _refuse_fork)
    loads.clear()
    if valid:
        _assert_identical(cli._load_config(str(path), {}), want)
    else:
        assert _outcome(path, capsys) == want
    # json.load runs once for invalid text and for a repeated key, and
    # never for other valid text; a repeated key starts no child.
    repeated = case == "replaced-duplicate"
    assert len(loads) == (not valid or repeated)
    assert len(forks) == (decode == "forked" and not repeated)


def test_refused_fork_gives_the_serial_result(tmp_path, monkeypatch, texts):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def refuse():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refuse)
    path = _write(tmp_path, texts["compact"])
    _assert_identical(cli._load_config(str(path), {}), _serial(path))


def test_failing_child_gives_the_serial_result(tmp_path, texts, forks, child_cannot_pickle):
    # Only the child fails; this process then runs the job itself.
    path = _write(tmp_path, texts["compact"])
    got = cli._load_config(str(path), {})
    assert [code for _, code in forks] == [1]
    _assert_identical(got, _serial(path))


def test_small_config_is_decoded_in_one_process(tmp_path, monkeypatch, doc):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    small = dict(doc, dim=8, K=2)
    small.update(A=doc["A"][:8, :8], g="onb", W="full")
    small.update(w=doc["x0"][:8], x0=doc["x0"][:8], xm2=doc["xm2"][:8])
    path = _write(tmp_path, _text(small.items()))
    _assert_identical(cli._load_config(str(path), {}), _serial(path))
