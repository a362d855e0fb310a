import json

import numpy as np
import pytest

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
