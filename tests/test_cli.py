import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import DUAL_LR_M2, SOCLE_M1, SOCLE_M2
from soctab.cli import main
from soctab.convert import socle_to_hom
from soctab.embeddings import embedding_from_json, socle_tableau
from soctab.tableaux import SkewTableau

M = "src/soctab/fixtures/{}.json"
M2_PATH = M.format("m2")


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_enum_text(capsys):
    rc, out, _ = run_cli(capsys, "enum", "--shape", "42/532/31", "--kind", "socle")
    assert rc == 0
    assert out.startswith("2 socle tableaux")
    assert "..4" in out


def test_enum_json(capsys):
    rc, out, _ = run_cli(capsys, "enum", "--shape", "42/532/31", "--kind", "lr", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["version"] == 1
    assert data["command"] == "enum"
    assert data["result"]["count"] == 2


def test_lr_coeff(capsys):
    rc, out, _ = run_cli(capsys, "lr-coeff", "--shape", "42/642/42")
    assert rc == 0 and out.strip() == "3"
    # weight-consistent and contained, but no LR tableau fits
    rc, out, _ = run_cli(capsys, "lr-coeff", "--shape", "11/3/1")
    assert rc == 0 and out.strip() == "0"
    # |alpha| + |gamma| != |beta| is a shape error, not a zero count
    rc, out, err = run_cli(capsys, "lr-coeff", "--shape", "42/532/32")
    assert rc == 1 and out == "" and "invalid input" in err


def test_enum_and_lr_coeff_reject_inconsistent_shapes(capsys):
    for argv in (
        ("enum", "--shape", "4/532/31"),
        ("lr-coeff", "--shape", "9/532/31"),
        ("lr-coeff", "--shape", "1/31/5"),  # gamma not inside beta
    ):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 1 and out == "" and err.startswith("invalid input"), argv


def test_closed_stdout_exits_1_silently():
    # the reader is gone before the command writes anything
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "soctab.cli", "enum", "--shape", "42/532/31", "--format", "json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_analyze(capsys):
    rc, out, _ = run_cli(capsys, "analyze", M2_PATH)
    assert rc == 0
    # the socle block of the analysis equals the fixture rendering
    assert SOCLE_M2.render().splitlines()[0] in out
    rc, out, _ = run_cli(capsys, "analyze", M2_PATH, "--format", "json")
    data = json.loads(out)["result"]
    assert SkewTableau.from_json_dict(data["socle"]) == SOCLE_M2
    assert SkewTableau.from_json_dict(data["dual_lr"]) == DUAL_LR_M2
    assert data["hom"]["h"][0][1] == 3


def test_analyze_prime_override(capsys):
    rc, out, _ = run_cli(capsys, "analyze", M2_PATH, "--prime", "3", "--format", "json")
    assert rc == 0
    assert json.loads(out)["result"]["prime"] == 3


def test_analyze_reads_the_prime_of_the_file(tmp_path, capsys):
    data = json.loads(Path(M2_PATH).read_text())
    data["prime"] = 3
    m2p3 = tmp_path / "m2p3.json"
    m2p3.write_text(json.dumps(data))
    for fmt in ("text", "json"):
        rc, out, err = run_cli(capsys, "analyze", str(m2p3), "--format", fmt)
        assert (rc, err) == (0, "")
        assert (rc, out, err) == run_cli(capsys, "analyze", str(m2p3), "--prime", "3", "--format", fmt)
    # with neither a flag nor a stored prime, analyze works at p = 2
    del data["prime"]
    m2p3.write_text(json.dumps(data))
    rc, out, _ = run_cli(capsys, "analyze", str(m2p3), "--format", "json")
    assert rc == 0 and json.loads(out)["result"]["prime"] == 2


def test_analyze_at_a_large_prime(tmp_path, capsys):
    # the 3-dimensional module admits p = 1000000007, and so does its analysis
    path = tmp_path / "block3.json"
    path.write_text(json.dumps({"prime": 2, "beta": [3], "generators": [[[1, 0, 0]]]}))
    rc, out, err = run_cli(capsys, "analyze", str(path), "--prime", "1000000007", "--format", "json")
    assert (rc, err) == (0, "")
    big = json.loads(out)["result"]
    rc, out, _ = run_cli(capsys, "analyze", str(path), "--format", "json")
    small = json.loads(out)["result"]
    assert rc == 0 and (big.pop("prime"), small.pop("prime")) == (1000000007, 2)
    assert big == small


def test_a_module_above_the_dimension_limit_is_invalid_input(tmp_path, capsys):
    # one block of size 2000 ran for minutes; it is refused before any work,
    # and so is a tableau whose beta has weight 201, while weight 200 is analysed
    path = tmp_path / "big.json"
    cases = [
        (("analyze",), {"beta": [2000], "generators": []}, 2000),
        (("analyze",), {"beta": [1] * 201, "generators": []}, 201),
        (("realize",), {"alpha": [], "beta": [201], "gamma": [201], "grid": [[0]] * 201}, 201),
    ]
    for cmd, data, dim in cases:
        path.write_text(json.dumps(data))
        start = time.monotonic()
        rc, out, err = run_cli(capsys, *cmd, str(path))
        assert (rc, out) == (1, "") and time.monotonic() - start < 10, cmd
        assert err == f"invalid input: module dimension {dim} exceeds the limit 200\n"
    path.write_text(json.dumps({"beta": [1] * 200, "generators": []}))
    rc, out, err = run_cli(capsys, "analyze", str(path), "--format", "json")
    assert (rc, err) == (0, "") and json.loads(out)["result"]["shape"] == [[], [1] * 200, [1] * 200]


def test_realize_and_round_trip(tmp_path, capsys):
    tfile = tmp_path / "sigma2.json"
    tfile.write_text(json.dumps(SOCLE_M2.to_json_dict()))
    ofile = tmp_path / "emb.json"
    rc, out, _ = run_cli(capsys, "realize", str(tfile), "-o", str(ofile))
    assert rc == 0
    x = embedding_from_json(json.loads(ofile.read_text()))
    assert socle_tableau(x) == SOCLE_M2


def test_realize_prime_flag(tmp_path, capsys):
    tfile = tmp_path / "sigma2.json"
    tfile.write_text(json.dumps(SOCLE_M2.to_json_dict()))
    rc, out, _ = run_cli(capsys, "realize", str(tfile), "--format", "json")
    assert rc == 0 and json.loads(out)["result"]["prime"] == 2
    for bad in ("0", "4"):
        rc, out, err = run_cli(capsys, "realize", str(tfile), "--prime", bad)
        assert rc == 1 and out == "" and err == f"invalid input: modulus {bad} is not a prime\n"


def test_realize_lr_kind(tmp_path, capsys):
    tfile = tmp_path / "g.json"
    tfile.write_text(json.dumps(DUAL_LR_M2.to_json_dict()))
    rc, out, _ = run_cli(capsys, "realize", str(tfile), "--kind", "lr", "--format", "json")
    assert rc == 0
    data = json.loads(out)["result"]
    from soctab.embeddings import lr_tableau

    assert lr_tableau(embedding_from_json(data)) == DUAL_LR_M2


def test_convert_paths(tmp_path, capsys):
    tfile = tmp_path / "sigma2.json"
    tfile.write_text(json.dumps(SOCLE_M2.to_json_dict()))
    hfile = tmp_path / "h.json"
    rc, _, _ = run_cli(capsys, "convert", "--from", "socle", "--to", "hom", str(tfile), "-o", str(hfile))
    assert rc == 0
    rc, out, _ = run_cli(capsys, "convert", "--from", "hom", "--to", "duallr", str(hfile), "--format", "json")
    assert rc == 0
    assert SkewTableau.from_json_dict(json.loads(out)["result"]) == DUAL_LR_M2
    rc, out, _ = run_cli(capsys, "convert", "--from", "socle", "--to", "duallr", str(tfile), "--format", "json")
    assert SkewTableau.from_json_dict(json.loads(out)["result"]) == DUAL_LR_M2
    rc, _, err = run_cli(capsys, "convert", "--from", "socle", "--to", "socle", str(tfile))
    assert rc == 1


def test_switch(tmp_path, capsys):
    tfile = tmp_path / "sigma2.json"
    tfile.write_text(json.dumps(SOCLE_M2.to_json_dict()))
    rc, out, _ = run_cli(capsys, "switch", str(tfile), "--format", "json")
    assert rc == 0
    data = json.loads(out)["result"]
    assert data["swaps"] == 8
    assert SkewTableau.from_json_dict(data["tableau"]) == DUAL_LR_M2
    rc, out, _ = run_cli(capsys, "switch", str(tfile), "--trace", "--format", "json")
    trace = json.loads(out)["result"]["trace"]
    assert len(trace) == 9  # initial grid plus one per swap
    assert all("owner" in cell for row in trace[0]["grid"] for cell in row)
    rc, out, _ = run_cli(capsys, "switch", str(tfile), "--seed", "5", "--format", "json")
    assert json.loads(out)["result"]["swaps"] == 8


def test_check_exit_codes(capsys):
    rc, out, _ = run_cli(capsys, "check", "--max-beta", "4", "--suite", "all", "--corpus-count", "5")
    assert rc == 0
    assert "mismatches: none" in out
    assert "realize-lr-roundtrip (max_beta=4, primes=[2, 3]): 57 cases, ok" in out.splitlines()
    rc, out, _ = run_cli(capsys, "check", "--max-beta", "4", "--suite", "realize", "--format", "json")
    reports = {r["name"]: r for r in json.loads(out)["result"]["reports"]}
    assert rc == 0 and list(reports) == ["realize-roundtrip", "realize-lr-roundtrip"]
    assert reports["realize-lr-roundtrip"]["cases"] == reports["realize-roundtrip"]["cases"] > 0
    assert reports["realize-lr-roundtrip"]["failures"] == []


@pytest.mark.parametrize("flag", ["--max-beta", "--seeds", "--corpus-count"])
def test_check_rejects_negative_counts(capsys, flag):
    # whichever suite the flag feeds, or none of them
    for suite in ("counts", "switching", "all"):
        rc, out, err = run_cli(capsys, "check", "--suite", suite, flag, "-1")
        assert (rc, out) == (1, ""), suite
        assert err == f"invalid input: {flag} must be nonnegative, got -1\n"


def test_check_accepts_zero_counts(capsys):
    argv = ("check", "--max-beta", "0", "--seeds", "0", "--corpus-count", "0", "--format", "json")
    rc, out, _ = run_cli(capsys, *argv)
    result = json.loads(out)["result"]
    assert rc == 0 and result["conjecture"]["runs"] == 1
    assert [r["cases"] for r in result["reports"]] == [1, 1, 1, 3, 3]


def test_usage_errors_exit_1(capsys):
    # --prime belongs to analyze and realize only
    for argv in (("enum", "--shape", "42/532/31", "--prime", "3"), ("check", "--prime", "3")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        err = capsys.readouterr().err
        assert exc.value.code == 1, argv
        assert err.startswith("usage: soctab") and "Traceback" not in err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_invalid_inputs(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "enum", "--shape", "garbage")
    assert rc == 1 and "invalid input" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run_cli(capsys, "analyze", str(bad))
    assert rc == 1
    rc, _, err = run_cli(capsys, "analyze", str(tmp_path / "missing.json"))
    assert rc == 1
    rc, _, err = run_cli(capsys, "analyze", "--prime", "4", M2_PATH)
    assert rc == 1 and "invalid input" in err and "Traceback" not in err
    # tableau failing the socle axioms is invalid input for switch
    badt = tmp_path / "bad_tableau.json"
    entries = dict(SOCLE_M2.entries)
    entries[(4, 1)], entries[(5, 1)] = 1, 2
    t = SkewTableau((4, 2), (5, 3, 2), (3, 1), entries)
    badt.write_text(json.dumps(t.to_json_dict()))
    rc, _, err = run_cli(capsys, "switch", str(badt))
    assert rc == 1


def test_missing_keys_are_invalid_input(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    for argv in (("analyze", str(empty)), ("realize", str(empty)), ("switch", str(empty))):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out, err) == (1, "", "invalid input: 'beta'\n"), argv


def test_malformed_embedding_json_is_invalid_input(tmp_path, capsys):
    m2 = json.loads(Path(M2_PATH).read_text())
    cases = [
        {**m2, "prime": 3.5},
        {**m2, "prime": "3"},
        {**m2, "generators": [[[1.5, 0, 0, 0, 0], [0, 0, 0], [0, 0]]]},
        [m2],
        {**m2, "generators": 5},
        {**m2, "beta": 5},
    ]
    efile = tmp_path / "e.json"
    for data in cases:
        efile.write_text(json.dumps(data))
        rc, out, err = run_cli(capsys, "analyze", str(efile))
        assert (rc, out) == (1, ""), data
        assert err.startswith("invalid input") and "Traceback" not in err, data


def test_malformed_tableau_json_is_invalid_input(tmp_path, capsys):
    t = SOCLE_M2.to_json_dict()
    true_entry = json.loads(json.dumps(t))
    true_entry["grid"][4][0] = True  # the entry 1 in row 5
    cases = [
        [t],
        {**t, "grid": 5},
        {**t, "grid": [5]},
        {**t, "alpha": 5},
        {**t, "beta": [1.5]},
        {**t, "beta": ["1"]},
        true_entry,
    ]
    tfile = tmp_path / "t.json"
    commands = (
        ("realize",),
        ("switch",),
        ("convert", "--from", "socle", "--to", "hom"),
        ("convert", "--from", "duallr", "--to", "hom"),
    )
    for data in cases:
        tfile.write_text(json.dumps(data))
        for cmd in commands:
            rc, out, err = run_cli(capsys, *cmd, str(tfile))
            assert (rc, out) == (1, ""), (cmd, data)
            assert err.startswith("invalid input") and "Traceback" not in err, (cmd, data)


def test_tableau_json_with_huge_parts_is_refused_before_any_transpose(tmp_path, capsys, monkeypatch):
    """A file whose shape parts are 10**9 is refused at the cost of its own size:
    every transpose is counted by the cells it builds, one per row of its result."""
    import soctab.partitions as partitions
    import soctab.tableaux as tableaux

    cells = []
    real = partitions.transpose

    def counting(p):
        cells.append(p[0] if p else 0)
        if cells[-1] > 10:
            pytest.fail(f"transpose of a part {cells[-1]}")
        return real(p)

    monkeypatch.setattr(partitions, "transpose", counting)
    monkeypatch.setattr(tableaux, "transpose", counting)
    big = 10**9
    cases = [
        # the grid has 2 rows, beta 10**9
        ({"alpha": [1], "beta": [big], "gamma": [big - 1], "grid": [[0], [0]]}, "wrong number of rows"),
        # gamma is not inside beta
        ({"alpha": [1], "beta": [1], "gamma": [big], "grid": [[0]]}, f"({big},) is not contained in (1,)"),
        # one skew box, and alpha of weight 10**9
        ({"alpha": [big], "beta": [1], "gamma": [], "grid": [[1]]}, "does not match transpose(alpha)"),
    ]
    tfile = tmp_path / "t.json"
    for data, message in cases:
        tfile.write_text(json.dumps(data))
        for cmd in (("switch",), ("realize",), ("convert", "--from", "socle", "--to", "hom")):
            cells.clear()
            rc, out, err = run_cli(capsys, *cmd, str(tfile))
            assert (rc, out) == (1, ""), (cmd, data)
            assert err.startswith("invalid input") and message in err, (cmd, err)
            assert sum(cells) <= 2, (cmd, data, cells)


def test_convert_hom_rejects_non_object(tmp_path, capsys):
    for text in ("[1, 2, 3]", '"h"', '{"L": 1, "M": 1, "h": [5, 6]}', '{"L": "a", "M": 1, "h": []}'):
        hfile = tmp_path / "h.json"
        hfile.write_text(text)
        for dst in ("socle", "duallr"):
            rc, _, err = run_cli(capsys, "convert", "--from", "hom", "--to", dst, str(hfile))
            assert rc == 1 and "invalid input" in err and "Traceback" not in err


def test_convert_hom_rejects_bools(tmp_path, capsys):
    h = [[0, 1, 2, 2, 2], [None, 1, 2, 2, 2], [None, None, 1, 2, 2]]
    cell = [[0, True, *h[0][2:]], *h[1:]]
    hfile = tmp_path / "h.json"
    for data in ({"L": 2, "M": 4, "h": cell}, {"L": 2, "M": True, "h": h}):
        hfile.write_text(json.dumps(data))
        rc, out, err = run_cli(capsys, "convert", "--from", "hom", "--to", "socle", str(hfile))
        assert (rc, out) == (1, ""), data
        assert err.startswith("invalid input") and "Traceback" not in err, data


def test_exit_code_3_on_counterexample(capsys, monkeypatch):
    import soctab.cli as cli

    class FakeReport:
        ok = False
        mismatches = [{"order": "deterministic"}]

        def to_json_dict(self):
            return {"mismatches": self.mismatches}

        def render(self):
            return "mismatches: 1"

    monkeypatch.setattr(cli, "check_conjecture", lambda *a, **k: FakeReport())
    rc, out, _ = run_cli(capsys, "check", "--max-beta", "2", "--suite", "switching")
    assert rc == 3


def test_exit_code_2_on_internal_assertion(capsys, monkeypatch):
    import soctab.cli as cli
    from soctab.realize import ConditionStarViolated

    def boom(*a, **k):
        raise ConditionStarViolated("forced for the test")

    monkeypatch.setattr(cli, "realize_socle", boom)
    import json as _json
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        _json.dump(SOCLE_M2.to_json_dict(), fh)
        path = fh.name
    rc, _, err = run_cli(capsys, "realize", path)
    assert rc == 2 and "internal assertion" in err


def test_byte_identical_runs(capsys):
    rc1, out1, _ = run_cli(capsys, "analyze", M2_PATH, "--format", "json")
    rc2, out2, _ = run_cli(capsys, "analyze", M2_PATH, "--format", "json")
    assert rc1 == rc2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# fuzz: any JSON document is answered with exit 0 or 1, never a traceback

# small integers only: a block size or a shape part of 10**9 is valid input
# that asks for a module or a diagram of that size
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 6), st.floats(-3, 7), st.text(max_size=3)),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=2), kids, max_size=4),
    max_leaves=12,
)
# valid documents of each reader, which the fuzzer mutates
_SEEDS = {
    "embedding": [json.loads(Path(M.format(n)).read_text()) for n in ("m1", "m2", "m3")],
    "socle": [SOCLE_M2.to_json_dict(), SOCLE_M1.to_json_dict()],
    "duallr": [DUAL_LR_M2.to_json_dict()],
    "hom": [socle_to_hom(SOCLE_M2).to_json_dict()],
}
_COMMANDS = [
    (("analyze",), "embedding"),
    (("switch",), "socle"),
    *((("convert", "--from", src, "--to", dst), src)
      for src in ("socle", "duallr", "hom") for dst in ("socle", "duallr", "hom") if src != dst),
]


def _mutate(draw, node):
    """node with one subtree replaced, nudged by one, shortened or grown."""
    keys = (sorted(node) if isinstance(node, dict) else list(range(len(node)))) if isinstance(node, (dict, list)) else []
    key = draw(st.sampled_from(keys + [None]))  # None: mutate node itself
    if key is not None:
        node[key] = _mutate(draw, node[key])
        return node
    action = draw(st.sampled_from(["nudge", "replace", "drop", "grow"]))
    if action == "nudge" and type(node) is int:
        return node + draw(st.sampled_from([-1, 1]))
    if action == "drop" and keys:
        del node[draw(st.sampled_from(keys))]
        return node
    if action == "grow" and isinstance(node, list):
        return node + [draw(_JSON)]
    return draw(_JSON)


@st.composite
def _fuzz_cases(draw):
    command, kind = draw(st.sampled_from(_COMMANDS))
    # mostly the command's own kind of document, sometimes another kind or any JSON
    source = draw(st.sampled_from([kind] * 3 + list(_SEEDS) + [None]))
    if source is None:
        return command, draw(_JSON)
    doc = json.loads(json.dumps(draw(st.sampled_from(_SEEDS[source]))))
    for _ in range(draw(st.integers(0, 3))):
        doc = _mutate(draw, doc)
    return command, doc


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_fuzz_cases())
def test_any_json_document_exits_0_or_1_without_a_traceback(tmp_path_factory, case):
    command, document = case
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(document))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([*command, str(path)])
    assert rc in (0, 1), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (rc == 0) == (err.getvalue() == "")
