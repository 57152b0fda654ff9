"""Command-line interface behavior and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from collections import namedtuple

import pytest

from clusteralg import cli, mutation, parametrization

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


CliResult = namedtuple("CliResult", "returncode stdout stderr")


@pytest.fixture
def run_cli(monkeypatch, capsys):
    """Run the CLI in process through cli.run(), as the console script does,
    and return its exit code, stdout and stderr."""

    def run(*args, check=True):
        monkeypatch.setattr(sys, "argv", ["cluster", *args])
        try:
            cli.run()
            code = 0
        except SystemExit as exc:
            code = exc.code
        out = CliResult(code, *capsys.readouterr())
        if check and out.returncode != 0:
            raise AssertionError("exit %d\nstdout: %s\nstderr: %s" % out)
        return out

    return run


# what `python -m clusteralg.cli` runs, for a child that runs a prelude first
RUN_MODULE = (
    "import runpy; runpy.run_module('clusteralg.cli', run_name='__main__', alter_sys=True)"
)


def _entry_point(*args, prelude=""):
    """`python -m clusteralg.cli *args` in a child process, after running
    prelude there."""
    command = ["-c", prelude + RUN_MODULE] if prelude else ["-m", "clusteralg.cli"]
    return subprocess.run([sys.executable, *command, *args], capture_output=True, text=True)


def test_f_poly_output(run_cli):
    out = run_cli("f-poly", "--type", "A2", "--path", "2,1")
    assert out.stdout.splitlines() == [
        "F[1] = y1*y2 + y1 + 1",
        "F[2] = y2 + 1",
    ]


def test_f_poly_json(run_cli):
    out = run_cli("f-poly", "--type", "A2", "--path", "2,1", "--json")
    data = json.loads(out.stdout)
    assert set(data) == {"F"} and len(data["F"]) == 2


def test_g_vector_on_a_long_e8_belt_path(run_cli):
    # Belt(E8).path(12): 48 mutations; the g-vectors are the ones the
    # principal pattern's multidegrees gave, in well under a second
    path = ",".join(["2,4,6,8,1,3,5,7"] * 6)
    out = run_cli("g-vector", "--type", "E8", "--path", path)
    assert hashlib.md5(out.stdout.encode()).hexdigest() == (
        "b5694213ee728e531fdd60c441f86226"
    )
    assert out.stdout.splitlines()[0] == "g[1] = (-1, 1, -2, 2, -1, 0, 0, 1)"


@pytest.mark.parametrize(
    "args, message",
    [
        (("--type", "A3", "--path", "1,9"), "mutation direction 9 is not in 1..3"),
        (("--rank2", "0,3", "--path", "1"), "zero pattern is not symmetric"),
    ],
    ids=["direction", "not-skew-symmetrizable"],
)
def test_g_vector_usage_errors_name_the_input(run_cli, args, message):
    out = run_cli("g-vector", *args, check=False)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", "usage error: %s\n" % message)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[0, 1], [1, 0]], "entries b_ij, b_ji have equal signs"),
        ([[0, 1, 1], [-1, 0, 1], [-2, -1, 0]], "inconsistent symmetrizer weights"),
    ],
    ids=["equal-signs", "inconsistent-weights"],
)
def test_g_vector_of_a_matrix_that_is_not_skew_symmetrizable(run_cli, tmp_path, rows, message):
    src = tmp_path / "b.json"
    src.write_text(json.dumps({"B": rows}))
    out = run_cli("g-vector", "--matrix", str(src), "--path", "1", check=False)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", "usage error: %s\n" % message)


def test_g_vector_and_d_vector(run_cli):
    out = run_cli("g-vector", "--type", "A2", "--path", "2,1")
    assert "(-1, 0)" in out.stdout and "(0, -1)" in out.stdout
    out = run_cli("d-vector", "--type", "A2", "--path", "2,1")
    assert "(1, 1)" in out.stdout and "(0, 1)" in out.stdout


def test_graph_summary_line(run_cli):
    out = run_cli("graph", "--type", "A2", "--coeffs", "principal")
    assert out.stdout.strip() == "vertices=5 edges=5 finite=true"


def test_graph_json(run_cli):
    out = run_cli("graph", "--type", "A3", "--coeffs", "trivial", "--json")
    data = json.loads(out.stdout)
    assert data["vertices"] == 14 and data["finite"] is True


def test_mutate_round_trip(run_cli, tmp_path):
    src = tmp_path / "b.json"
    src.write_text(json.dumps({"B": [[0, 2], [-1, 0]]}))
    out = run_cli("mutate", "--matrix", str(src), "--path", "1", "--json")
    data = json.loads(out.stdout)
    assert data["B"] == [[0, -2], [1, 0]]


def test_walk_matches_expected_file():
    expected = open(
        os.path.join(PKG_ROOT, "tests", "data", "walk_A2_principal_expected.txt")
    ).read()
    out = _entry_point("walk", "--type", "A2", "--path", "2,1,2,1,2")
    assert out.returncode == 0
    assert out.stdout == expected


def test_belt_command(run_cli):
    out = run_cli("belt", "--type", "A2", "--range", "0:5")
    assert "x[1;0] = x1" in out.stdout


def test_ysystem_command(run_cli):
    out = run_cli(
        "ysystem", "--type", "A2", "--steps", "4", "--semifield", "universal"
    )
    assert "y[1;3]" in out.stdout


def test_ysystem_initial_ones_is_numeric_and_refuses_the_tropical_semifield(run_cli):
    numeric = "y[1;-1] = 1\ny[2;0] = 1\ny[1;1] = 8\ny[2;2] = 9\ny[1;3] = 125\ny[2;4] = 14\n"
    for semifield in ((), ("--semifield", "numeric"), ("--semifield", "universal")):
        out = run_cli("ysystem", "--type", "G2", "--steps", "4", "--initial", "ones", *semifield)
        assert out.stdout == numeric
    out = run_cli(
        "ysystem", "--type", "G2", "--steps", "4", "--initial", "ones",
        "--semifield", "trop", check=False,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("usage error: ")


def test_ysystem_folds_a_monomial_denominator_left_by_hint_division(run_cli):
    out = run_cli("ysystem", "--type", "A4", "--steps", "8").stdout
    assert "y[3;7] = u2\n" in out
    assert "y[3;5] = u1*u2^-1*u3 + u1*u2^-1 + u2^-1*u3 + u2^-1\n" in out
    assert " / " not in out


# sha256 of `cluster ysystem` stdout, captured from the direct recurrence
# on gcd-free rational expressions that the belt route replaced: the finite
# types at 2(h+2)+2 steps, E6 at 30, and rank 2 at 10
YSYSTEM_DIGESTS = {
    "--type A1 10 u": "cdc3f68f337f557261568054636c1acafca778e90a901c00ca6c92d2e6ddc691",
    "--type A1 10 y": "7b39740ba26d2d288daa9f8c118367fa1885047c77f76704ab44520b6ac3ddd0",
    "--type A1xA1 10 u": "73f788e11b11185157c72e063775c91a3c2f8fc0148d3a598bad4413400f42c8",
    "--type A1xA1 10 y": "aa76d4c18343e1ddeff6e1ed581633e580a032dc1920605213e79f1e33d6bde7",
    "--type A2 12 u": "8e0bb8fc424b4673307951490debd551cf745b41d7fc76fde5a44de6d38eba1d",
    "--type A2 12 y": "aaa6d4de23e4014075afa13b6665b17d9f66305ed945ceeaa393e25a98695ba1",
    "--type A3 14 u": "689004e89c63b243cf90d71482e58318078f634fc3915751a8e4feb081c31487",
    "--type A3 14 y": "0e51f90a42898c24feac47dcc9a8c21ec5d8d3228ca5cbd270e5d759f22cb808",
    "--type A4 16 u": "94f568985f3a706ba69a7a67bb7e925a5bd8fda992bb5791c7b7fda2d422503e",
    "--type A4 16 y": "9ab37df55407f76862e3191d3d13b7b56aa1871cdc4c77e419199c8eb11f894a",
    "--type B2 14 u": "76c9d88aab5d559423da7e7bb8a01bbd140f230e84b5f9fe2ec079f823d8b5e5",
    "--type B2 14 y": "ed3b71afaafbbd02d5e1acda2162f0414b787ba34ec004190f0eb17dc26c6762",
    "--type B3 18 u": "a729194a94c7e20e6ffcf8fbb6eb00b5103a86adffca16fd272a7459983399c6",
    "--type B3 18 y": "759bc2505338f8b32572407e4c3b5fc2612e7ab89b69b246bc43dc479f2246ab",
    "--type C3 18 u": "2122a1d09517013216c681658292e273cd2aeb381d0b990d42b415614084a33e",
    "--type C3 18 y": "48a5496ee1fbffe2583f35033f68c0dc3619a9f3433e4f1a73c222f11728d140",
    "--type D4 18 u": "cc169ad83702bffa57425bb4436aaf1b4f43858b5670d1fe5f2cb6a29152a985",
    "--type D4 18 y": "253fb1b071324e03ee5a3708e0fda669b6424605da55a9ad39bad3c5a56e0026",
    "--type G2 18 u": "a5e5be0de2e90157acd1ed8230fc4052411264c3d5b43d5c6c709539580104ff",
    "--type G2 18 y": "02865dc1ec891501ff17cceea35c095ea58106a7d013ce7d030dda1bb6bb9890",
    "--type E6 30 u": "acfb37cfacbb0874c66186bbd5f6c6d165e0e4028c7f0b5a9434f6aed0fd6666",
    "--rank2 2,2 10 u": "f96b931ce4495d55dfd67a0e9d7ff956c3aaa5ad2fff6a8123460981140e79d1",
    "--rank2 2,2 10 y": "3fa27c740a26e745963f825bcdb5a67a7426fd27204ac1a623bf0b5bc9d4e01e",
    "--rank2 1,4 10 u": "87235fa99e35851191c0a4d539dfbd8691ebd84fd821149c0131eef399ef91fc",
    "--rank2 1,4 10 y": "8b566e34999baa4c24d3b522769b7da7e2f90304a9c155e404e15ee2c3fb9fef",
}


def _ysystem_digest(run_cli, flag, name, steps, initial):
    out = run_cli("ysystem", flag, name, "--steps", steps, "--initial", initial)
    return hashlib.sha256(out.stdout.encode()).hexdigest()


@pytest.mark.parametrize("case", list(YSYSTEM_DIGESTS))
def test_ysystem_output_is_pinned(run_cli, case):
    assert _ysystem_digest(run_cli, *case.split()) == YSYSTEM_DIGESTS[case]


@pytest.mark.slow
def test_e7_ysystem_output_is_pinned_over_a_period(run_cli):
    # six steps pinned from the direct recurrence, which took 10-16 s for
    # them and did not finish ten in 15 minutes; the full period from the
    # belt route, whose every value passed the y-system check
    assert _ysystem_digest(run_cli, "--type", "E7", "6", "u") == (
        "41a6abc039728eae59402df841acf4ebc28dd7d94d2f0c549a5e8f6d2ceffb27"
    )
    assert _ysystem_digest(run_cli, "--type", "E7", "40", "u") == (
        "6624e0686728401b35d41288d80e6cd11043c57852ed93704f58194463b0462e"
    )


def test_universal_and_specialize(run_cli):
    out = run_cli("universal", "--type", "A2").stdout
    assert "p[a1+a2]" in out
    out = run_cli("specialize", "--type", "A2", "--target", "principal").stdout
    assert "phi(p[a1]) = y1" in out


def test_universal_d4_matches_expected_file(run_cli):
    expected = open(
        os.path.join(PKG_ROOT, "tests", "data", "universal_D4_expected.txt")
    ).read()
    out = run_cli("universal", "--type", "D4").stdout
    assert out == expected


def test_graph_d4_principal_json_matches_expected_file(run_cli):
    expected = open(
        os.path.join(PKG_ROOT, "tests", "data", "graph_D4_principal_expected.json")
    ).read()
    out = run_cli("graph", "--type", "D4", "--coeffs", "principal", "--json").stdout
    assert out == expected


def test_specialize_d4_matches_expected_file(run_cli):
    expected = open(
        os.path.join(PKG_ROOT, "tests", "data", "specialize_D4_expected.txt")
    ).read()
    out = run_cli("specialize", "--type", "D4", "--target", "principal").stdout
    assert out == expected


@pytest.mark.slow
def test_e7_universal_text_and_specialize_seed_count_are_pinned(run_cli):
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


def test_check_command_reports_clean(run_cli):
    out = run_cli("check", "--type", "A2")
    assert out.returncode == 0
    assert "violations=0" in out.stdout.replace(" ", "") or "0 violation" in out.stdout


def test_usage_error_exit_code_2():
    out = _entry_point("walk", "--type", "A2", "--no-such-flag")
    assert out.returncode == 2


# the max-recurrence of the d-vectors off by one in every entry
OFF_BY_ONE = (
    "import clusteralg.parametrization as p; real = p.exchanged_d_vector; "
    "p.exchanged_d_vector = lambda *a: tuple(v + 1 for v in real(*a)); "
)


def test_entry_point_exits_1_on_a_cross_check_failure():
    out = _entry_point("d-vector", "--type", "A2", "--path", "2,1", prelude=OFF_BY_ONE)
    assert out.returncode == 1
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("CrossCheckFailure: ")


@pytest.mark.parametrize(
    "command, failure",
    [
        ("d-vector", "x_1 after path (2, 1): (1, 1) by Laurent extraction, (3, 3)"),
        ("walk", "x_2 after path (2,): (0, 1) by Laurent extraction, (1, 2)"),
    ],
)
def test_cli_d_vectors_are_cross_checked(run_cli, monkeypatch, command, failure):
    real = parametrization.exchanged_d_vector
    monkeypatch.setattr(
        parametrization, "exchanged_d_vector", lambda *a: tuple(v + 1 for v in real(*a))
    )
    out = run_cli(command, "--type", "A2", "--path", "2,1", check=False)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == (
        "CrossCheckFailure: d-vector of %s by the max-recurrence\n" % failure
    )


@pytest.mark.parametrize("command", ["walk", "d-vector"])
def test_the_d_recurrence_runs_once_per_step(run_cli, monkeypatch, command):
    calls = {"exchanged_d_vector": 0, "mutate_matrix": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    real = parametrization.exchanged_d_vector
    monkeypatch.setattr(
        parametrization, "exchanged_d_vector", counting("exchanged_d_vector", real)
    )
    monkeypatch.setattr(
        parametrization,
        "mutate_matrix",
        counting("mutate_matrix", mutation.mutate_matrix),
        raising=False,
    )
    path = ",".join(["1", "2", "3", "4"] * 5)
    run_cli(command, "--type", "A4", "--path", path)
    assert calls == {"exchanged_d_vector": 20, "mutate_matrix": 0}


def test_bad_input_exit_code(run_cli):
    out = run_cli("walk", "--type", "Z9", "--path", "1", check=False)
    assert out.returncode in (1, 2)
    assert out.stderr


def test_out_flag_writes_file(run_cli, tmp_path):
    dest = tmp_path / "out.txt"
    run_cli("f-poly", "--type", "A2", "--path", "2,1", "--out", str(dest))
    assert dest.read_text().startswith("F[1] = ")


def _assert_one_line_usage_error(out):
    assert out.returncode == 2
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("usage error: ")


def test_mutate_direction_zero_is_a_usage_error(run_cli):
    _assert_one_line_usage_error(
        run_cli("mutate", "--type", "A2", "--path", "0", check=False)
    )


def test_mutate_nonpositive_directions_are_a_usage_error(run_cli):
    _assert_one_line_usage_error(
        run_cli("mutate", "--type", "A2", "--path", "0,-1", check=False)
    )


def test_mutate_direction_above_rank_is_a_usage_error(run_cli, tmp_path):
    src = tmp_path / "b.json"
    src.write_text(json.dumps({"B": [[0, 2], [-1, 0]]}))
    _assert_one_line_usage_error(
        run_cli("mutate", "--matrix", str(src), "--path", "3", check=False)
    )


@pytest.mark.parametrize(
    "args",
    [
        ("walk", "--type", "A2", "--path", "1,3"),
        ("walk", "--type", "A1", "--path", "1,2,1,2"),
        ("d-vector", "--type", "A2", "--path", "3"),
        ("g-vector", "--type", "A2", "--path", "3"),
        ("f-poly", "--type", "A2", "--path", "3"),
    ],
    ids=["walk", "walk-A1", "d-vector", "g-vector", "f-poly"],
)
def test_direction_above_rank_is_a_usage_error(run_cli, args):
    _assert_one_line_usage_error(run_cli(*args, check=False))


@pytest.mark.parametrize("rows", [[[0, 1], [-1]], []])
def test_mutate_ragged_or_empty_matrix_is_a_usage_error(run_cli, tmp_path, rows):
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
