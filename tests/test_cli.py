import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pathtsp
from pathtsp.cli import main
from pathtsp.instances import Instance, write_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


@pytest.fixture
def unit_triangle_file(tmp_path):
    cost = np.ones((3, 3)) - np.eye(3)
    path = tmp_path / "tri.json"
    write_instance(Instance(cost=cost, s=0, t=1), str(path))
    return str(path)


def test_gen_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--n", "8", "--seed", "1", "--output", str(a)]) == 0
    assert main(["gen", "--n", "8", "--seed", "1", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_solve_unit_triangle(unit_triangle_file, capsys):
    code, payload, _ = run(capsys, "solve", unit_triangle_file)
    assert code == 0
    assert payload["cost"] == pytest.approx(2.0)
    assert payload["hk_value"] == pytest.approx(2.0)
    assert payload["ratio_vs_hk"] == pytest.approx(1.0)
    assert payload["order"] == [0, 2, 1]


def test_solve_hoogeveen_flag(unit_triangle_file, capsys):
    code, payload, _ = run(capsys, "solve", unit_triangle_file, "--hoogeveen")
    assert code == 0
    assert payload["method"] == "hoogeveen"
    assert payload["cost"] == pytest.approx(2.0)


def test_hk_and_decompose_and_narrow(unit_triangle_file, capsys):
    code, payload, _ = run(capsys, "hk", unit_triangle_file)
    assert code == 0 and payload["value"] == pytest.approx(2.0)
    code, payload, _ = run(capsys, "decompose", unit_triangle_file)
    assert code == 0 and payload["lambdas"] == [1.0]
    code, payload, _ = run(capsys, "narrow", unit_triangle_file, "--tau", "0.5")
    assert code == 0 and payload["layers"] == [[0], [2], [1]]


def test_certify_golden(tmp_path, capsys):
    inst_file = tmp_path / "i.json"
    assert main(["gen", "--n", "10", "--seed", "3", "--output", str(inst_file)]) == 0
    capsys.readouterr()
    code, payload, _ = run(capsys, "certify", str(inst_file), "--variant", "golden")
    assert code == 0
    assert payload["all_feasible"] is True
    assert all(c["feasible"] for c in payload["certificates"])


def test_exact_command(unit_triangle_file, capsys):
    code, payload, _ = run(capsys, "exact", unit_triangle_file)
    assert code == 0
    assert payload["optimum"] == pytest.approx(2.0)
    assert payload["witness"] == [0, 2, 1]


def test_pc_command(tmp_path, capsys):
    inst_file = tmp_path / "pc.json"
    payload = {
        "type": "metric",
        "n": 3,
        "s": 0,
        "t": 1,
        "costs": [1.0, 1.0, 1.0],
        "prizes": [0.4],
    }
    inst_file.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "pc", str(inst_file))
    assert code == 0
    assert out["objective"] <= 1.9535 * out["lp_value"] * (1 + 1e-6)
    assert out["objective"] == pytest.approx(
        out["path_cost"] + out["missed_prize"], abs=1e-9
    )


def test_graphical_command(tmp_path, capsys):
    inst_file = tmp_path / "g.json"
    payload = {
        "type": "graph",
        "n": 8,
        "s": 0,
        "t": 7,
        "edges": [[i, i + 1] for i in range(7)] + [[0, 3], [2, 6], [1, 5]],
    }
    inst_file.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "graphical", str(inst_file))
    assert code == 0
    assert out["bounds"]["rho"] < 1.5780
    assert out["cost"] >= 1


def test_validate_commands(tmp_path, capsys):
    good = tmp_path / "good.json"
    write_instance(Instance(cost=np.ones((3, 3)) - np.eye(3), s=0, t=1), str(good))
    code, payload, _ = run(capsys, "validate", str(good))
    assert code == 0 and payload["valid"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"type": "metric", "n": 3, "s": 0, "t": 2, "costs": [1.0, 3.0, 1.0]}
        )
    )
    code, payload, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert payload["valid"] is False
    assert any(v["kind"] == "triangle" for v in payload["violations"])


@pytest.mark.parametrize("costs", [[math.inf, 1, 1, 1, 1, 1], [1e308] * 6])
def test_validate_prints_no_numpy_warning(tmp_path, costs):
    """An infinite cost (inf - inf in the triangle slack) or costs whose sums
    overflow print the report and nothing from numpy on stderr."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"type": "metric", "n": 4, "s": 0, "t": 1, "costs": costs}))
    src = str(Path(pathtsp.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "pathtsp.cli", "validate", str(path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    valid = costs[0] != math.inf
    assert proc.returncode == (0 if valid else 2)
    assert proc.stderr == ("" if valid else "invalid instance\n")
    assert json.loads(proc.stdout)["valid"] is valid


def test_usage_errors_exit_one(capsys, unit_triangle_file):
    assert main(["narrow", unit_triangle_file, "--tau", "1.5"]) == 1
    assert main(["unknown-command"]) == 1
    assert main(["gen", "--n", "1"]) == 1
    capsys.readouterr()


def test_parse_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["solve", str(missing)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["solve", str(broken)]) == 2
    nofield = tmp_path / "nofield.json"
    nofield.write_text(json.dumps({"type": "metric", "n": 2, "s": 0, "costs": [1.0]}))
    assert main(["solve", str(nofield)]) == 2
    capsys.readouterr()
    # unreadable files
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    for command, path in (
        ("validate", missing),
        ("graphical", missing),
        ("solve", tmp_path),
        ("solve", binary),
    ):
        code, _, err = run(capsys, command, str(path))
        assert code == 2 and err.count("\n") == 1, (command, path, err)
    tri = {"type": "metric", "n": 3, "s": 0, "t": 2, "costs": [1.0, 1.0, 1.0]}
    malformed = [
        ("solve", {**tri, "costs": 5}),
        ("solve", {**tri, "s": True}),
        ("solve", {**tri, "n": -1, "costs": [1.0]}),
        ("pc", {**tri, "n": 4, "t": 3, "costs": [1.0] * 6, "prizes": "ab"}),
    ]
    for i, (command, payload) in enumerate(malformed):
        bad = tmp_path / f"malformed{i}.json"
        bad.write_text(json.dumps(payload))
        code, _, err = run(capsys, command, str(bad))
        assert code == 2 and err.count("\n") == 1, (payload, err)


def test_non_metric_input_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"type": "metric", "n": 3, "s": 0, "t": 2, "costs": [1.0, 9.0, 1.0]}
        )
    )
    assert main(["solve", str(bad)]) == 2
    capsys.readouterr()


def test_output_flag_writes_file(tmp_path, capsys, unit_triangle_file):
    out = tmp_path / "result.json"
    assert main(["solve", unit_triangle_file, "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["cost"] == pytest.approx(2.0)
    capsys.readouterr()


_numbers = st.one_of(st.integers(-3, 10), st.floats(), st.booleans())
_junk = st.one_of(
    st.none(), st.text(max_size=3), _numbers, st.lists(st.integers(-1, 9), max_size=3)
)


@st.composite
def _instance_objects(draw):
    """Mostly instance-shaped JSON objects. Each field is usually well
    formed, else of a wrong type, size or range; costs are sometimes a valid
    (uniform) metric; edges and prizes may hold non-numbers, NaN or
    infinities; some keys go missing; now and then the value is no object."""
    # sampled_from leans to its first entries, so the last one is the rare case
    if draw(st.sampled_from(range(10))) == 9:
        return draw(_junk)
    n = draw(st.integers(2, 8) | st.integers(-1, 1))
    size = max(n, 1)
    m, k = size * (size - 1) // 2, max(size - 2, 0)
    vertex = st.integers(-1, size)
    pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]

    def field(good, bad=_junk):
        return draw(bad if draw(st.sampled_from(range(8))) == 7 else good)

    s = field(st.integers(0, size - 1), vertex | _junk)
    obj = {
        "type": field(st.sampled_from(["metric", "graph"])),
        "n": field(st.just(n)),
        "s": s,
        "t": field(st.integers(0, size - 1).filter(lambda t: t != s), vertex | _junk),
        "costs": field(
            st.floats(0.0, 1e6).map(lambda c: [c] * m)
            | st.lists(st.floats(0.0, 10.0) | _numbers, min_size=m, max_size=m),
            st.lists(_numbers | _junk, max_size=m + 2) | _junk,
        ),
        "edges": field(
            st.sets(st.sampled_from(pairs) if pairs else st.nothing()).map(sorted)
            | st.just(pairs)
            | st.lists(st.lists(vertex, min_size=2, max_size=2), max_size=3 * size),
            st.lists(st.lists(vertex | _numbers, min_size=2, max_size=2) | _junk, max_size=6)
            | _junk,
        ),
        "prizes": field(st.lists(st.floats(0.0, 1.0) | _numbers, min_size=k, max_size=k)),
    }
    if draw(st.sampled_from(range(5))) == 4:
        for key in draw(st.sets(st.sampled_from(sorted(obj)), min_size=1, max_size=2)):
            del obj[key]
    return obj


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=_instance_objects())
@example(data={"type": "graph", "n": 3, "s": 0, "t": 1, "edges": [[math.inf, 1]]})
@example(
    data={"type": "metric", "n": 4, "s": 0, "t": 1, "costs": [1.0] * 6, "prizes": [math.nan, 0.1]}
)
def test_fuzzed_instances_exit_cleanly(tmp_path_factory, data):
    """Any JSON value, run through every instance-reading command, ends in
    one of the documented exit codes without an exception escaping."""
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(data))
    for command in ("validate", "hk", "solve", "exact", "pc", "decompose", "graphical"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(path)])
        assert code in (0, 1, 2, 3), (command, data, code)
