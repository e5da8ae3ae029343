import json
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from qbaker import cli
from qbaker.bakermap import baker_composed, last_qubit_unitary
from qbaker.cli import main
from qbaker.qfourier import antiperiodic_dft, dot_state_transform
from qbaker.lattice import DotLabel


def read_matrix_csv(path):
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "row,col,re,im"
    entries = {}
    for row in rows[1:]:
        r, c, re, im = row.split(",")
        entries[(int(r), int(c))] = float(re) + 1j * float(im)
    size = max(r for r, _ in entries) + 1
    mat = np.zeros((size, size), dtype=complex)
    for (r, c), z in entries.items():
        mat[r, c] = z
    return mat


def test_matrix_csv_roundtrips_exactly(tmp_path):
    out = tmp_path / "g.csv"
    assert main(["matrix", "--target", "G", "--N", "1", "--n", "0", "--out", str(out)]) == 0
    mat = read_matrix_csv(out)
    assert mat.shape == (2, 2)
    assert np.array_equal(mat, antiperiodic_dft(2))  # 17 digits round-trip exactly


def test_matrix_b_n1_is_u(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["matrix", "--target", "B", "--N", "1", "--n", "1", "--out", str(out)]) == 0
    assert np.array_equal(read_matrix_csv(out), baker_composed(1, 1))
    assert np.abs(read_matrix_csv(out) - last_qubit_unitary()).max() < 1e-15


def test_matrix_json_full_dot(tmp_path):
    out = tmp_path / "g.json"
    assert main(
        ["matrix", "--target", "G", "--N", "2", "--n", "2", "--format", "json",
         "--out", str(out)]
    ) == 0
    nested = json.loads(out.read_text())
    mat = np.array([[complex(re, im) for re, im in row] for row in nested])
    assert np.abs(mat - 1j * np.eye(4)).max() < 1e-15


def test_matrix_json_roundtrips_exactly(tmp_path):
    out = tmp_path / "v.json"
    assert main(
        ["matrix", "--target", "V", "--N", "3", "--format", "json", "--out", str(out)]
    ) == 0
    nested = json.loads(out.read_text())
    mat = np.array([[complex(re, im) for re, im in row] for row in nested])
    from qbaker.qfourier import displacement_v

    assert np.array_equal(mat, displacement_v(3))


def test_matrix_full_fourier_target(tmp_path):
    out = tmp_path / "f.csv"
    assert main(["matrix", "--target", "F", "--N", "2", "--out", str(out)]) == 0
    assert np.array_equal(read_matrix_csv(out), antiperiodic_dft(4))


def test_matrix_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--target", "Q", "--N", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--target", "G", "--N", "13", "--n", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--target", "B", "--N", "2", "--n", "0"])
    assert exc.value.code == 2


def test_state_export_roundtrip(tmp_path):
    out = tmp_path / "state.csv"
    assert main(["state", "--label", "0.10", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "index,re,im"
    amps = np.array(
        [float(r.split(",")[1]) + 1j * float(r.split(",")[2]) for r in rows[1:]]
    )
    expected = dot_state_transform(DotLabel.parse("0.10")).amps
    assert np.array_equal(amps, expected)


def test_evolve_tracks_label(tmp_path):
    out = tmp_path / "evolve.csv"
    assert main(
        ["evolve", "--N", "3", "--n", "1", "--label", "01.1", "--steps", "1",
         "--out", str(out)]
    ) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "step,norm,support_size,max_cut_entropy,label"
    assert len(rows) == 3  # header + step 0 + step 1
    step1 = rows[2].split(",")
    assert step1[0] == "1"
    assert step1[4] == "011."
    assert abs(float(step1[1]) - 1.0) < 1e-12


def test_evolve_zero_steps(tmp_path):
    out = tmp_path / "evolve.csv"
    assert main(["evolve", "--label", ".10", "--steps", "0", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 2
    assert rows[1].split(",")[4] == ".10"


def test_evolve_product_state_stays_unentangled(tmp_path):
    out = tmp_path / "evolve.csv"
    assert main(
        ["evolve", "--N", "6", "--n", "6", "--random-product", "--steps", "5",
         "--seed", "11", "--out", str(out)]
    ) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "# seed=11"
    entropies = [float(r.split(",")[3]) for r in rows[2:]]
    assert len(entropies) == 6
    assert max(entropies) < 1e-10


def test_evolve_bn_tracks_full_dot_label(tmp_path):
    out = tmp_path / "evolve.csv"
    assert main(
        ["evolve", "--label", ".101", "--n", "3", "--steps", "2", "--out", str(out)]
    ) == 0
    rows = out.read_text().strip().splitlines()
    # first step tracks the shift; afterwards the fixed map leaves the dot basis
    assert rows[2].split(",")[4] == "1.01"
    assert rows[3].split(",")[4] == ""
    # the basis states of steps 0 and 2 read entropy 0, not -0
    assert rows[1].split(",")[3] == rows[3].split(",")[3] == "0"


def test_evolve_rejects_bad_label():
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--label", "0.1.0", "--steps", "1"])
    assert exc.value.code == 2


def test_evolve_rejects_negative_tol():
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--label", "0.1", "--steps", "1", "--tol", "-1"])
    assert exc.value.code == 2


def test_evolve_rejects_unnormalized_state_file(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("index,re,im\n0,1.0,0\n1,0.5,0\n")
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--state-file", str(bad), "--n", "1", "--steps", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("bad_row", ["0,nan,0", "0.5,1,0"])
def test_evolve_rejects_malformed_state_file_row(tmp_path, bad_row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"index,re,im\n{bad_row}\n1,0,0\n")
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--state-file", str(bad), "--n", "1", "--steps", "1"])
    assert exc.value.code == 2


def test_evolve_rejects_repeated_state_file_index(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("index,re,im\n0,0.5,0\n1,0.1,0\n1,0.5,0\n2,0.5,0\n3,0.5,0\n")
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--state-file", str(bad), "--n", "1", "--steps", "0"])
    assert exc.value.code == 2
    assert "index 1" in capsys.readouterr().err.splitlines()[-1]


def test_evolve_from_state_file(tmp_path):
    src = tmp_path / "in.csv"
    main(["state", "--label", ".101", "--out", str(src)])
    out = tmp_path / "run.csv"
    assert main(
        ["evolve", "--state-file", str(src), "--n", "3", "--steps", "1", "--out", str(out)]
    ) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 3  # no label column content, but evolution runs
    assert rows[2].split(",")[4] == ""


def test_spectrum_single_qubit_map(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(
        ["spectrum", "--target", "B", "--N", "1", "--n", "1", "--out", str(out)]
    ) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "index,phase,spacing"
    phases = [float(r.split(",")[1]) for r in rows[1:]]
    assert abs(phases[0] - 0.0) < 1e-10
    assert abs(phases[1] - 1.5 * np.pi) < 1e-10


def test_spectrum_degenerate_phases_read_equal(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(
        ["spectrum", "--target", "B", "--N", "8", "--n", "8", "--out", str(out)]
    ) == 0
    rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
    # B_8 has the eigenphase pi/16 eight times (rows 9..16): one phase, spacing 0
    run = rows[9:17]
    assert abs(float(run[0][1]) - np.pi / 16) < 1e-12
    assert all(phase == run[0][1] for _, phase, _ in run)
    assert [gap for _, _, gap in run[:-1]] == ["0"] * 7
    assert float(run[-1][2]) > 1.0


def test_localize_report(tmp_path):
    out = tmp_path / "loc.json"
    assert main(["localize", "--label", "0.10", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["support"] == [4, 5]
    assert payload["N"] == 3 and payload["n"] == 2
    with pytest.raises(SystemExit) as exc:
        main(["localize", "--N", "4", "--label", "0.10"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--target", "F", "--N", "0"],
        ["matrix", "--target", "U", "--N", "-1"],
        ["spectrum", "--target", "V", "--N", "0"],
        ["evolve", "--random-product", "--N", "0", "--steps", "1"],
        ["evolve", "--random-product", "--N", "2", "--steps", "1", "--seed", "-1"],
        ["bench", "--N", "4", "--seed", "-1"],
        ["verify", "--max-N", "2", "--seed", "-1"],
        ["verify", "--max-N", "0"],
        ["state", "--label", "0.1", "--out", "{missing}/x.csv"],
        ["verify", "--max-N", "1", "--report", "{missing}/r.json"],
        ["bench", "--N", "0"],
        ["evolve", "--state-file", "{missing}/s.csv", "--n", "1", "--steps", "1"],
        ["evolve", "--label", "01.10", "--steps", "2", "--tol", "nan"],
        ["evolve", "--label", "0.1", "--random-product", "--N", "2", "--steps", "1"],
        ["evolve", "--N", "2", "--n", "1", "--steps", "1"],
        ["evolve", "--label", "0.1", "--steps", "1", "--bogus", "1"],
        ["state", "--label", "0.1", "--route", "product"],
    ],
)
def test_rejected_arguments_exit_2(tmp_path, capsys, argv):
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"qbaker {argv[0]}: error: ")
    assert not any("Traceback" in line for line in err)


def test_argparse_and_library_errors_share_the_command_prefix(capsys):
    lines = []
    for argv in (
        ["evolve", "--N", "2", "--n", "1", "--steps", "1"],  # argparse: no source
        ["evolve", "--label", "0.1", "--steps", "-1"],  # library: step count
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        lines.append(capsys.readouterr().err.splitlines())
    for err in lines:
        assert err[0].startswith("usage: qbaker evolve ")
        assert err[-1].startswith("qbaker evolve: error: ")
    assert lines[1][-1] == "qbaker evolve: error: step count must be an integer >= 0, got -1"


@pytest.mark.parametrize(
    "argv, state_file, message",
    [
        (["evolve", "--label", "0.1", "--N", "3", "--steps", "1"], None,
         "--N 3 contradicts label with N=2"),
        (["evolve", "--N", "3", "--n", "1", "--steps", "1"], "index,re,im\n0,1,0\n1,0,0\n",
         "--N 3 contradicts state file with N=1"),
        (["evolve", "--random-product", "--n", "1", "--steps", "1"], None,
         "--random-product needs --N"),
        (["evolve", "--random-product", "--N", "2", "--steps", "1"], None,
         "--n is needed unless --label supplies the map index"),
        (["matrix", "--target", "G", "--N", "2"], None, "--target G needs --n"),
        (["spectrum", "--target", "B", "--N", "2"], None, "--target B needs --n"),
        (["evolve", "--n", "1", "--steps", "1"], "index,re,im\n0,1\n1,0,0\n",
         "state file rows must be 'index,re,im', got '0,1'"),
        (["evolve", "--n", "1", "--steps", "1"], "index,re,im\n0,1,0\n2,0,0\n",
         "state file must list every index 0..2^N-1 exactly once"),
        (["evolve", "--n", "1", "--steps", "1"], "index,re,im\n0,1,0\n0,0,0\n",
         "state file lists index 0 more than once"),
        (["evolve", "--n", "1", "--steps", "1"], "index,re,im\n0.5,1,0\n1,0,0\n",
         "state file rows must be 'index,re,im', got '0.5,1,0'"),
        (["evolve", "--n", "1", "--steps", "1"], "index,re,im\n0,abc,0\n1,0,0\n",
         "state file rows must be 'index,re,im', got '0,abc,0'"),
    ],
)
def test_policy_errors_quote_their_message(tmp_path, capsys, argv, state_file, message):
    if state_file is not None:
        path = tmp_path / "in.csv"
        path.write_text(state_file)
        argv = [*argv, "--state-file", str(path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"qbaker {argv[0]}: error: {message}"


LABEL_21 = "0" * 10 + "." + "1" * 11  # N = 21: one state would take 32 MiB


@pytest.mark.parametrize(
    "argv",
    [
        ["state", "--label", LABEL_21, "--format", "json"],
        ["localize", "--label", LABEL_21],
        ["evolve", "--label", LABEL_21, "--steps", "1"],
        ["evolve", "--random-product", "--N", "21", "--n", "1", "--steps", "1"],
        ["bench", "--N", "4", "21"],
        ["circuit", "--N", "21", "--n", "1"],
    ],
)
def test_over_cap_inputs_exit_2_before_building(monkeypatch, capsys, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a state or circuit was built or timed before the size cap")

    for name in ("dot_state_transform", "check_strict_localization", "random_product_state",
                 "time_fast_vs_dense", "emit_circuit"):
        monkeypatch.setattr(cli, name, refuse)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    line = capsys.readouterr().err.splitlines()[-1]
    assert line == f"qbaker {argv[0]}: error: capped at N=20, got N=21"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["evolve", "--random-product", "--N", "4", "--n", "1", "--steps", "-1"],
         "step count must be an integer >= 0, got -1"),
        (["evolve", "--random-product", "--N", "4", "--n", "9", "--steps", "0"],
         "map index n=9 out of range [1, 4]"),
        (["evolve", "--label", "0.1", "--n", "3", "--steps", "0"],
         "map index n=3 out of range [1, 2]"),
    ],
)
def test_evolve_rejects_bad_steps_and_map_index_before_building(
    monkeypatch, capsys, argv, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("a state was built before the step count and map index")

    for name in ("random_product_state", "dot_state_transform"):
        monkeypatch.setattr(cli, name, refuse)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"qbaker evolve: error: {message}"


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before 3.11 the caller's stack holds a call's arguments until it returns",
)
def test_evolve_releases_the_initial_state(monkeypatch, tmp_path):
    initial = []
    dead_at_step = []
    build, support = cli.dot_state_transform, cli.position_support

    def build_once(label):
        state = build(label)
        if not initial:
            initial.append(weakref.ref(state))
        return state

    def support_and_look(state, tol):
        dead_at_step.append(initial[0]() is None)
        return support(state, tol)

    monkeypatch.setattr(cli, "dot_state_transform", build_once)
    monkeypatch.setattr(cli, "position_support", support_and_look)
    out = tmp_path / "run.csv"
    assert main(["evolve", "--label", "0110.10", "--steps", "2", "--out", str(out)]) == 0
    assert dead_at_step == [False, True, True]


def test_negative_seed_error_quotes_the_seed(tmp_path, capsys):
    for argv in (
        ["evolve", "--random-product", "--N", "2", "--steps", "1", "--seed", "-1"],
        ["bench", "--N", "4", "--seed", "-1"],
        ["verify", "--max-N", "2", "--seed", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        line = capsys.readouterr().err.splitlines()[-1]
        assert line == f"qbaker {argv[0]}: error: seed must be an integer >= 0, got -1"
    # a labelled run draws nothing, so its seed is never checked
    out = tmp_path / "run.csv"
    assert main(["evolve", "--label", "0.1", "--steps", "1", "--seed", "-1", "--out", str(out)]) == 0


def test_circuit_single_gate(tmp_path):
    out = tmp_path / "circ.json"
    assert main(["circuit", "--N", "1", "--n", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["N"] == 1
    assert len(payload["gates"]) == 1
    gate = payload["gates"][0]
    assert gate["kind"] == "single_qubit" and gate["targets"] == [1]
    mat = np.array([[complex(re, im) for re, im in row] for row in gate["matrix"]])
    assert np.abs(mat - last_qubit_unitary()).max() < 1e-14


def test_verify_restricted_passes(tmp_path):
    report = tmp_path / "report.json"
    assert main(["verify", "--max-N", "3", "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["all_passed"] is True
    assert payload["seed"] == 20990
    assert any(c["skipped"] for c in payload["checks"])  # bench sizes out of reach
    assert all(c["elapsed_s"] >= 0.0 for c in payload["checks"])


def test_verify_perturbation_fails():
    assert main(["verify", "--max-N", "3", "--perturb", "1e-6"]) == 1


def test_verify_nan_perturbation_fails(capsys):
    assert main(["verify", "--max-N", "2", "--perturb", "nan"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL 1 unitarity")


def strict_json(text):
    """json.loads that refuses NaN and Infinity, as JSON.parse does."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "flags,code", [(["--max-N", "3"], 0), (["--max-N", "2", "--perturb", "nan"], 1)]
)
def test_verify_report_is_strict_json(tmp_path, capsys, flags, code):
    report = tmp_path / "report.json"
    assert main(["verify", *flags, "--report", str(report)]) == code
    payload = strict_json(report.read_text())
    skipped = [c for c in payload["checks"] if c["skipped"]]
    assert skipped  # bench sizes out of reach
    for c in skipped:
        assert c["observed"] is c["tolerance"] is c["margin"] is None
    if code:
        assert payload["perturb"] is None
        assert payload["checks"][0]["observed"] is None  # the NaN the fold kept
    for line in capsys.readouterr().out.splitlines():
        assert not (line.startswith("SKIP") and "nan" in line), line


def test_bench_correctness_column(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--N", "4", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("# seed=")
    assert rows[1] == "N,n,dense_ms,fast_ms,speedup,max_abs_err"
    fields = rows[2].split(",")
    assert fields[0] == "4"
    assert float(fields[5]) < 1e-10
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--N", "4", "--reps", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--N", "4", "--n", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [["--reps", "0"], ["--n", "0"]])
def test_bench_rejects_arguments_before_drawing_a_state(flag):
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--N", "20", *flag])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.code == 2
    assert peak < 1 << 20  # an N=20 state is 16 MiB


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qbaker", "matrix", "--target", "G", "--N", "1", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "row,col,re,im"
