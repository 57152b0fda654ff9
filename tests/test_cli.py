"""Command-line interface behavior and exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from clusteralg import cli

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, check=True):
    out = subprocess.run(
        [sys.executable, "-m", "clusteralg.cli", *args],
        capture_output=True,
        text=True,
    )
    if check and out.returncode != 0:
        raise AssertionError(
            "exit %d\nstdout: %s\nstderr: %s"
            % (out.returncode, out.stdout, out.stderr)
        )
    return out


def test_f_poly_output():
    out = run_cli("f-poly", "--type", "A2", "--path", "2,1")
    assert out.stdout.splitlines() == [
        "F[1] = y1*y2 + y1 + 1",
        "F[2] = y2 + 1",
    ]


def test_f_poly_json():
    out = run_cli("f-poly", "--type", "A2", "--path", "2,1", "--json")
    data = json.loads(out.stdout)
    assert set(data) == {"F"} and len(data["F"]) == 2


def test_g_vector_and_d_vector():
    out = run_cli("g-vector", "--type", "A2", "--path", "2,1")
    assert "(-1, 0)" in out.stdout and "(0, -1)" in out.stdout
    out = run_cli("d-vector", "--type", "A2", "--path", "2,1")
    assert "(1, 1)" in out.stdout and "(0, 1)" in out.stdout


def test_graph_summary_line():
    out = run_cli("graph", "--type", "A2", "--coeffs", "principal")
    assert out.stdout.strip() == "vertices=5 edges=5 finite=true"


def test_graph_json():
    out = run_cli("graph", "--type", "A3", "--coeffs", "trivial", "--json")
    data = json.loads(out.stdout)
    assert data["vertices"] == 14 and data["finite"] is True


def test_mutate_round_trip(tmp_path):
    src = tmp_path / "b.json"
    src.write_text(json.dumps({"B": [[0, 2], [-1, 0]]}))
    out = run_cli("mutate", "--matrix", str(src), "--path", "1", "--json")
    data = json.loads(out.stdout)
    assert data["B"] == [[0, -2], [1, 0]]


def test_walk_matches_expected_file():
    expected = open(
        os.path.join(PKG_ROOT, "tests", "data", "walk_A2_principal_expected.txt")
    ).read()
    out = run_cli("walk", "--type", "A2", "--path", "2,1,2,1,2")
    assert out.stdout == expected


def test_belt_command():
    out = run_cli("belt", "--type", "A2", "--range", "0:5")
    assert "x[1;0] = x1" in out.stdout


def test_ysystem_command():
    out = run_cli(
        "ysystem", "--type", "A2", "--steps", "4", "--semifield", "universal"
    )
    assert "y[1;3]" in out.stdout


def _stdout_in_process(monkeypatch, capsys, *args):
    monkeypatch.setattr(sys, "argv", ["cluster", *args])
    cli.run()
    return capsys.readouterr().out


def test_universal_and_specialize(monkeypatch, capsys):
    out = _stdout_in_process(monkeypatch, capsys, "universal", "--type", "A2")
    assert "p[a1+a2]" in out
    out = _stdout_in_process(
        monkeypatch, capsys, "specialize", "--type", "A2", "--target", "principal"
    )
    assert "phi(p[a1]) = y1" in out


def test_universal_d4_matches_expected_file(monkeypatch, capsys):
    expected = open(
        os.path.join(PKG_ROOT, "tests", "data", "universal_D4_expected.txt")
    ).read()
    out = _stdout_in_process(monkeypatch, capsys, "universal", "--type", "D4")
    assert out == expected


def test_graph_d4_principal_json_matches_expected_file(monkeypatch, capsys):
    expected = open(
        os.path.join(PKG_ROOT, "tests", "data", "graph_D4_principal_expected.json")
    ).read()
    out = _stdout_in_process(
        monkeypatch, capsys, "graph", "--type", "D4", "--coeffs", "principal", "--json"
    )
    assert out == expected


def test_specialize_d4_matches_expected_file(monkeypatch, capsys):
    expected = open(
        os.path.join(PKG_ROOT, "tests", "data", "specialize_D4_expected.txt")
    ).read()
    out = _stdout_in_process(
        monkeypatch, capsys, "specialize", "--type", "D4", "--target", "principal"
    )
    assert out == expected


@pytest.mark.slow
def test_e7_universal_text_and_specialize_seed_count_are_pinned():
    # both pinned from the exchange-graph route that the d-vector walk
    # replaced
    out = run_cli("universal", "--type", "E7")
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == (
        "6b616fe9535ca1f5bd2db2ba958dd8b998d9971d6662a52ccf4b8ef6431f8bb3"
    )
    out = run_cli("specialize", "--type", "E7", "--target", "principal")
    assert out.stdout.splitlines()[0] == (
        "target=principal seeds=20966400 checked=293529600"
    )


def test_belt_has_no_coefficient_option(monkeypatch, capsys):
    # the belt is always the principal-coefficient one
    argv = ["cluster", "belt", "--type", "A2", "--coeffs", "principal"]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 2
    assert capsys.readouterr().err == "usage error: No such option '--coeffs'.\n"


@pytest.mark.parametrize("command", ["universal", "specialize"])
def test_universal_coefficients_of_an_infinite_type_are_a_usage_error(
    monkeypatch, capsys, command
):
    # ((0, 1), (-4, 0)) is affine: universal coefficients exist only in finite type
    monkeypatch.setattr(sys, "argv", ["cluster", command, "--rank2", "1,4"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert out.err == "usage error: no universal coefficients: infinite type: "\
        "symmetrization is not positive definite\n"


def test_universal_coefficients_of_a_matrix_that_is_not_bipartite_are_a_usage_error(
    tmp_path, monkeypatch, capsys
):
    # linear A3 oriented 1 -> 2 -> 3 is of finite type but not bipartite
    src = tmp_path / "b.json"
    src.write_text(json.dumps({"B": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]}))
    monkeypatch.setattr(sys, "argv", ["cluster", "universal", "--matrix", str(src)])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.err == "usage error: no universal coefficients: the exchange matrix is not bipartite\n"


@pytest.mark.parametrize("range_args", [("--range", "0:2"), ()])
def test_belt_of_a_matrix_that_is_not_bipartite_is_a_usage_error(
    tmp_path, monkeypatch, capsys, range_args
):
    # the acyclic orientation of a triangle: no bipartite sign, with or
    # without a range that would skip the Coxeter number
    src = tmp_path / "b.json"
    src.write_text(json.dumps({"B": [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]}))
    monkeypatch.setattr(
        sys, "argv", ["cluster", "belt", "--matrix", str(src), *range_args]
    )
    with pytest.raises(SystemExit) as exc:
        cli.run()
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert out.err == "usage error: no bipartite belt: the exchange matrix is not bipartite\n"


def test_check_command_reports_clean():
    out = run_cli("check", "--type", "A2")
    assert out.returncode == 0
    assert "violations=0" in out.stdout.replace(" ", "") or "0 violation" in out.stdout


def test_usage_error_exit_code_2():
    out = run_cli("walk", "--type", "A2", "--no-such-flag", check=False)
    assert out.returncode == 2


def test_bad_input_exit_code():
    out = run_cli("walk", "--type", "Z9", "--path", "1", check=False)
    assert out.returncode in (1, 2)
    assert out.stderr


def test_out_flag_writes_file(tmp_path):
    dest = tmp_path / "out.txt"
    run_cli("f-poly", "--type", "A2", "--path", "2,1", "--out", str(dest))
    assert dest.read_text().startswith("F[1] = ")


def _assert_one_line_usage_error(out):
    assert out.returncode == 2
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("usage error: ")


def test_mutate_direction_zero_is_a_usage_error():
    _assert_one_line_usage_error(
        run_cli("mutate", "--type", "A2", "--path", "0", check=False)
    )


def test_mutate_nonpositive_directions_are_a_usage_error():
    _assert_one_line_usage_error(
        run_cli("mutate", "--type", "A2", "--path", "0,-1", check=False)
    )


def test_mutate_direction_above_rank_is_a_usage_error(tmp_path):
    src = tmp_path / "b.json"
    src.write_text(json.dumps({"B": [[0, 2], [-1, 0]]}))
    _assert_one_line_usage_error(
        run_cli("mutate", "--matrix", str(src), "--path", "3", check=False)
    )


@pytest.mark.parametrize("rows", [[[0, 1], [-1]], []])
def test_mutate_ragged_or_empty_matrix_is_a_usage_error(tmp_path, rows):
    src = tmp_path / "b.json"
    src.write_text(json.dumps({"B": rows}))
    _assert_one_line_usage_error(
        run_cli("mutate", "--matrix", str(src), "--path", "1", check=False)
    )


@pytest.mark.parametrize(
    "data",
    [
        {"B": [[0, 1], [1, 0]]},  # equal signs: not skew-symmetrizable
        {"B": [[0, 1]]},  # not square
        {"Btilde": [[0, 1], [-1, 0]], "n": 3},  # n above the row count
        {"B": 5},  # not a list of lists
        {"Btilde": [[0, 1], [-1, 0]]},  # no n
        {"B": [[0, 1.5], [-1, 0]]},  # not integers
    ],
    ids=["equal-signs", "not-square", "n-above-rows", "not-a-list", "no-n", "not-integers"],
)
def test_mutate_input_that_is_not_an_exchange_matrix_is_a_usage_error(
    tmp_path, monkeypatch, capsys, data
):
    # in process, through the same exit-code mapping as the console script
    src = tmp_path / "b.json"
    src.write_text(json.dumps(data))
    monkeypatch.setattr(sys, "argv", ["cluster", "mutate", "--matrix", str(src), "--path", "1"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith("usage error: ")


@pytest.mark.parametrize(
    "command",
    [
        ["mutate", "--path", "1"],
        ["belt", "--range", "0:2"],
        ["ysystem"],
    ],
    ids=lambda c: c[0],
)
@pytest.mark.parametrize("bc", ["0,3", "3,0"])
def test_rank2_with_exactly_one_zero_is_a_usage_error(monkeypatch, capsys, command, bc):
    # ((0, 0), (-3, 0)) has an asymmetric zero pattern: not skew-symmetrizable
    monkeypatch.setattr(sys, "argv", ["cluster", *command, "--rank2", bc])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith("usage error: ")


@pytest.mark.parametrize(
    "command",
    [
        ["f-poly", "--path", "1"],
        ["walk", "--path", "1"],
        ["g-vector", "--path", "1"],
        ["d-vector", "--path", "1"],
        ["check"],
        ["belt", "--range", "0:2"],
        ["graph"],
        ["mutate", "--path", "1", "--json"],
        ["universal"],
        ["specialize"],
    ],
    ids=lambda c: c[0],
)
def test_extended_matrix_given_to_matrix_is_a_usage_error(
    tmp_path, monkeypatch, capsys, command
):
    src = tmp_path / "bt.json"
    src.write_text(json.dumps({"Btilde": [[0, 1], [-1, 0], [1, 1]], "n": 2}))
    monkeypatch.setattr(sys, "argv", ["cluster", *command, "--matrix", str(src)])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith("usage error: ") and "--btilde" in out.err


@pytest.mark.parametrize(
    "rows",
    [
        [[2, -1], [0, 2]],  # a_12 != 0 but a_21 = 0
        [[2, -1], [1, 2]],  # a positive off-diagonal entry
        [[1, -1], [-1, 2]],  # a diagonal entry other than 2
        [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]],  # not symmetrizable
        [[2, -1]],  # not square
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # a 3-cycle: no bipartite sign
    ],
    ids=[
        "zero-pattern",
        "positive-entry",
        "diagonal",
        "not-symmetrizable",
        "not-square",
        "odd-cycle",
    ],
)
def test_ysystem_cartan_that_is_not_a_symmetrizable_cartan_matrix_is_a_usage_error(
    tmp_path, monkeypatch, capsys, rows
):
    src = tmp_path / "a.json"
    src.write_text(json.dumps({"A": rows}))
    monkeypatch.setattr(sys, "argv", ["cluster", "ysystem", "--cartan", str(src), "--steps", "2"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith("usage error: ")


def test_ysystem_accepts_a_symmetrizable_cartan_matrix(tmp_path, monkeypatch, capsys):
    src = tmp_path / "a.json"
    src.write_text(json.dumps({"A": [[2, -1], [-3, 2]]}))
    monkeypatch.setattr(sys, "argv", ["cluster", "ysystem", "--cartan", str(src), "--steps", "2"])
    cli.run()
    assert capsys.readouterr().out.splitlines()[0] == "y[1;-1] = u1"


@pytest.mark.parametrize(
    "command",
    [
        ["mutate", "--path", "1", "--matrix"],
        ["mutate", "--path", "1", "--btilde"],
        ["ysystem", "--steps", "2", "--cartan"],
    ],
    ids=["matrix", "btilde", "cartan"],
)
def test_missing_input_file_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    missing = tmp_path / "missing.json"
    monkeypatch.setattr(sys, "argv", ["cluster", *command, str(missing)])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith("usage error: %s " % command[-1])


def test_input_file_that_is_not_utf8_is_a_usage_error(tmp_path, monkeypatch, capsys):
    src = tmp_path / "b.json"
    src.write_bytes(b'\xff\xfe{"B": [[0, 1], [-1, 0]]}')
    monkeypatch.setattr(sys, "argv", ["cluster", "mutate", "--path", "1", "--matrix", str(src)])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert out.err.startswith("usage error: --matrix ")
    assert len(out.err.splitlines()) == 1


@pytest.mark.parametrize(
    "command",
    [
        "walk", "f-poly", "g-vector", "d-vector", "mutate", "graph", "belt",
        "ysystem", "universal", "specialize", "check",
    ],
)
def test_unknown_type_is_a_usage_error(monkeypatch, capsys, command):
    monkeypatch.setattr(sys, "argv", ["cluster", command, "--type", "Z3"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert out.err == (
        "usage error: unknown type 'Z3' (known: A1, A1xA1, A2, A3, A4, B2, B3, "
        "C3, D4, E6, E7, E8, G2)\n"
    )


@pytest.mark.parametrize(
    "args",
    [
        ["graph", "--cap", "-1"],
        ["graph", "--cap", "0"],
        ["check", "--cap", "-1"],
        ["check", "--depth", "-1"],
        ["ysystem", "--steps", "-1"],
    ],
    ids=["graph-cap", "graph-cap-zero", "check-cap", "check-depth", "ysystem-steps"],
)
def test_a_count_out_of_range_is_a_usage_error(monkeypatch, capsys, args):
    command, flag, value = args
    monkeypatch.setattr(sys, "argv", ["cluster", command, "--type", "A2", flag, value])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith("usage error: Invalid value for '%s': %s " % (flag, value))
