import csv
import json
import math

import numpy as np
import pytest
from support import excitation_isometry, traced

from covertq import capacities as cap
from covertq import channels as chn
from covertq import covert_sim as cs
from covertq import operators as op
from covertq import cli
from covertq.cli import build_parser, main
from covertq.errors import InvalidParameterError


@pytest.fixture
def exc_spec(tmp_path):
    path = tmp_path / "exc.json"
    path.write_text(json.dumps({"kind": "excitation", "gamma": 0.25}))
    return str(path)


def test_capacity_stdout(exc_spec, capsys):
    assert main(["capacity", exc_spec]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cEG"] == pytest.approx(math.log(3.0) * math.sqrt(6.0), abs=1e-9)
    assert out["antiDegradedFlag"] is False


def test_capacity_bits(exc_spec, capsys):
    assert main(["capacity", exc_spec, "--bits"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cEG"] == pytest.approx(math.log(3.0) * math.sqrt(6.0) / math.log(2.0), abs=1e-9)
    assert out["units"] == "bits"


def test_capacity_file_and_manifest(exc_spec, tmp_path):
    out_path = tmp_path / "report.json"
    assert main(["capacity", exc_spec, "-o", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["dBob"] == pytest.approx(math.log(4.0), abs=1e-9)
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    assert manifest["command"] == "capacity"
    assert manifest["outputPath"] == str(out_path)


@pytest.mark.parametrize("command, missing", [
    ("capacity", "spec"), ("simulate", "spec"), ("egdemo", "spec"),
    ("capacity", "out"), ("sweep", "out"), ("simulate", "out"), ("egdemo", "out"),
])
def test_missing_file_is_an_input_error(exc_spec, tmp_path, capsys, command, missing):
    # a channel spec that does not exist, or an output into a directory that does not; an OSError
    # writing the output was a traceback and exit 1
    spec = str(tmp_path / "absent.json") if missing == "spec" else exc_spec
    out = tmp_path / "x.json" if missing == "spec" else tmp_path / "no" / "such" / "x.json"
    argv = {
        "capacity": ["capacity", spec, "-o", str(out)],
        "sweep": ["sweep", "--gamma-from", "0.1", "--gamma-to", "0.9", "--steps", "3", "--out", str(out)],
        "simulate": ["simulate", spec, "--n", "2", "--gamma", "0.5", "-o", str(out)],
        "egdemo": ["egdemo", spec, "-o", str(out)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exc.json"]


def test_capacity_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["capacity", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_capacity_assumption_violation(tmp_path, capsys):
    spec = tmp_path / "full.json"
    spec.write_text(json.dumps({"kind": "excitation", "gamma": 1.0}))
    assert main(["capacity", str(spec)]) == 4
    assert "supp(omega1)" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["sigma1", "omega1"])
def test_capacity_of_a_roundoff_negative_state_matches_its_clamped_twin(name, tmp_path, capsys):
    # check_density keeps the -1e-12 eigenvalue, and every consumer reads it as zero: the rates move by a few
    # times the 1e-12 perturbation (at most 3.2e-12 here), as the trace of the state's support is 1 + 1e-12
    states = dict(sigma0=np.diag([0.75, 0.25]), sigma1=np.diag([0.4, 0.6]), omega0=np.diag([0.75, 0.25]),
                  omega1=np.diag([0.5, 0.5]))
    reports = []
    for state in (np.diag([1.0 + 1e-12, -1e-12]), np.diag([1.0, 0.0])):
        spec = tmp_path / "pair.json"
        spec.write_text(json.dumps({"kind": "cq-pair", **{k: op.matrix_to_json(v) for k, v in dict(states, **{name: state}).items()}}))
        assert main(["capacity", str(spec)]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    rough, clamped = reports
    assert rough.keys() == clamped.keys()
    for key, value in clamped.items():
        assert rough[key] == (pytest.approx(value, rel=0, abs=1e-11) if isinstance(value, float) else value), key


def test_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--gamma-from", "0.05", "--gamma-to", "0.95",
                 "--steps", "19", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[:8] == [
        "gamma", "d_bob", "d_willie", "chi2", "c_s_key", "c_s", "c_eg", "l_key_min"
    ]
    assert len(lines) == 20
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    c_eg = [r[6] for r in rows]
    # monotone decreasing until gamma = 0.5, then identically zero
    below = [v for r, v in zip(rows, c_eg) if r[0] < 0.5]
    assert all(a > b for a, b in zip(below, below[1:]))
    assert all(v == 0.0 for r, v in zip(rows, c_eg) if r[0] >= 0.5)
    # spot rows
    row01 = min(rows, key=lambda r: abs(r[0] - 0.1))
    assert row01[6] == pytest.approx(math.log(9.0) * math.sqrt(18.0), abs=1e-9)
    row05 = min(rows, key=lambda r: abs(r[0] - 0.5))
    assert row05[6] == 0.0


def read_sweep(path):
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


SWEEP_FIELDS = {"d_bob": "dBob", "d_willie": "dWillie", "chi2": "chi2Willie", "c_s_key": "cSKey",
                "c_s": "cS", "c_eg": "cEG", "l_key_min": "lKeyMin"}


def test_sweep_matches_capacity_report(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--gamma-from", "0.01", "--gamma-to", "0.99",
                 "--steps", "200", "--out", str(out)]) == 0
    rows = read_sweep(out)
    assert [r["gamma"] for r in rows] == np.linspace(0.01, 0.99, 200).tolist()
    for row in rows:
        report = cap.capacity_report(excitation_isometry(row["gamma"]))
        for column, field in SWEEP_FIELDS.items():
            want = getattr(report, field)
            assert (row[column] == 0.0) == (want == 0.0), (row["gamma"], column)
            assert abs(row[column] - want) <= 1e-12 * max(1.0, abs(want)), (row["gamma"], column)


# Rows of the 2000-step sweep over [0.01, 0.99] as the per-gamma scalar
# pipeline printed them: the ends, gamma near 1/4, and both sides of 1/2,
# where the positive-gap snap makes c_s and c_eg exactly zero.
PINNED_SWEEP_ROWS = {
    0: [0.01, 4.605170185988091, 0.01005033585350145, 0.010101010101010104, 64.8004884510826,
        64.65906769004626, 64.65906769004626, 0.14142076103634496, 64.65906769004627],
    490: [0.2502201100550275, 1.3854143082599228, 0.28797559559885527, 0.33372475497227794,
          3.3915674225043304, 2.686587949803433, 2.686587949803433, 0.7049794727008973,
          2.686587949803433],
    999: [0.4997548774387193, 0.6936375458919365, 0.6926570555682634, 0.999019990199902,
          0.9814326494599855, 0.0013873026652485665, 0.0013873026652485665, 0.980045346794737,
          0.0013873026652488636],
    1000: [0.5002451225612806, 0.6926570555682634, 0.6936375458919362, 1.0009809711614495,
           0.9790848927503378, 0.0, 0.0, 0.9804708358453783, 0.0],
    1999: [0.99, 0.01005033585350145, 4.605170185988091, 98.9999999999999, 0.0014284925357206572,
           0.0, 0.0, 0.6545503883947742, 0.0],
}


def test_sweep_pinned_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--gamma-from", "0.01", "--gamma-to", "0.99",
                 "--steps", "2000", "--out", str(out)]) == 0
    rows = read_sweep(out)
    assert len(rows) == 2000
    for index, want in PINNED_SWEEP_ROWS.items():
        got = list(rows[index].values())
        for g, w in zip(got, want):
            assert (g == 0.0) == (w == 0.0), index
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), index


def test_sweep_csv_is_the_capacity_reports_formatted(tmp_path):
    # the CSV is written from the rate kernel's columns; formatting one
    # CapacityReport per step gives the same bytes
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--gamma-from", "0.01", "--gamma-to", "0.99",
                 "--steps", "2000", "--out", str(out)]) == 0
    gammas = np.linspace(0.01, 0.99, 2000)
    reports = cap.capacity_reports([excitation_isometry(gammas)])
    fields = ("dBob", "dWillie", "chi2Willie", "cSKey", "cS", "cEG", "lKeyMin")
    rows = [[g, *(getattr(r, f) for f in fields), cap.excitation_capacity_closed_form(g)]
            for g, r in zip(gammas.tolist(), reports)]
    header = "gamma,d_bob,d_willie,chi2,c_s_key,c_s,c_eg,l_key_min,c_eg_closed_form\n"
    assert out.read_bytes() == (header + "".join(",".join(map(repr, row)) + "\n" for row in rows)).encode()


def sweep_over(steps, out):
    return ["sweep", "--gamma-from", "0.01", "--gamma-to", "0.99", "--steps", str(steps), "--out", str(out)]


def test_sweep_chunks_change_no_byte(tmp_path, monkeypatch):
    # the rows are computed and written a chunk at a time; 15 chunks of 6 or 7 steps give the bytes of one
    assert main(sweep_over(100, tmp_path / "whole.csv")) == 0
    monkeypatch.setattr(cli, "_SWEEP_CHUNK", 7)
    assert main(sweep_over(100, tmp_path / "chunked.csv")) == 0
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_sweep_names_a_failing_step_by_its_index_in_the_sweep(tmp_path, monkeypatch, capsys):
    # a chunk's stacked checks count from the chunk's first step; the error counts from the sweep's
    excitation = chn.excitation_channel

    def refusing(gamma):  # a check that fails above gamma = 0.5 and names the lowest failing element
        failed = op.first_failure(np.asarray(gamma) > 0.5)
        if failed:
            raise InvalidParameterError(f"{failed[1]}refused")
        return excitation(gamma)

    monkeypatch.setattr(chn, "excitation_channel", refusing)
    monkeypatch.setattr(cli, "_SWEEP_CHUNK", 7)
    out = tmp_path / "sweep.csv"
    assert main(sweep_over(100, out)) == 2
    first = int(np.argmax(np.linspace(0.01, 0.99, 100) > 0.5))
    assert f"error: stack element {first}: refused" in capsys.readouterr().err
    assert first % 7 != 0 and not out.exists()  # inside a chunk; and no CSV, whole or in part


def test_sweep_bad_range(tmp_path, capsys):
    assert main(["sweep", "--gamma-from", "0.9", "--gamma-to", "0.1",
                 "--steps", "5", "--out", str(tmp_path / "x.csv")]) == 2


def test_simulate_deterministic(exc_spec, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["simulate", exc_spec, "--n", "6", "--gamma", "0.6", "--m", "2",
            "--l", "2", "--seed", "42", "--samples", "5"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_text() == b.read_text()
    payload = json.loads(a.read_text())
    assert payload["covertness"]["dCovert"] >= 0.0
    assert payload["resolvability"]["holds"] is True
    assert payload["decoder"]["averageError"] <= 1.0
    # JSON round-trips byte for byte
    assert json.dumps(payload, indent=2) + "\n" == a.read_text()


def test_simulate_evaluates_the_bound_once(exc_spec, tmp_path, monkeypatch):
    calls = []
    rhs = cs.resolvability_rhs
    monkeypatch.setattr(cs, "resolvability_rhs", lambda *args: calls.append(args) or rhs(*args))
    out = tmp_path / "sim.json"
    assert main(["simulate", exc_spec, "--n", "6", "--gamma", "0.6", "--m", "2",
                 "--l", "2", "--samples", "3", "-o", str(out)]) == 0
    assert len(calls) == 1
    payload = json.loads(out.read_text())
    assert payload["resolvability"]["rhs"] == payload["covertness"]["resolvabilityRhs"]


def test_simulate_budget(exc_spec, capsys):
    assert main(["simulate", exc_spec, "--n", "40", "--gamma", "0.5",
                 "--m", "2", "--l", "2"]) == 3
    assert "budget" in capsys.readouterr().err


def test_simulate_sizes_under_byte_budget(exc_spec, tmp_path, capsys):
    # n = 13 needs 64 KiB vectors, far inside the default budget
    out = tmp_path / "sim13.json"
    assert main(["simulate", exc_spec, "--n", "13", "--gamma", "0.5", "--m", "2", "--l", "2", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["diagnostics"]["route"]["warden"] == "commuting"
    out = tmp_path / "sim40.json"
    assert main(["simulate", exc_spec, "--n", "40", "--gamma", "0.5", "--m", "2", "--l", "2", "-o", str(out)]) == 3
    assert "bytes (COVERTQ_MAX_BYTES)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n, budget", [(16, str(10 * 2**20)), (23, "")])
def test_simulate_refuses_before_any_stage(exc_spec, tmp_path, capsys, monkeypatch, n, budget):
    # at n = 16 the warden stages fit in 10 MiB and the decoder's (K, d**n) arrays
    # do not; at n = 23 the decoder does not fit the default budget
    def entered(*args, **kwargs):
        raise AssertionError("stage run before every charge was checked")

    for stage in ("sample_codebook", "covertness_report", "secrecy_report", "resolvability_samples",
                  "sqrt_measurement_decoder"):
        monkeypatch.setattr(cs, stage, entered)
    monkeypatch.setenv("COVERTQ_MAX_BYTES", budget)
    out = tmp_path / "sim.json"
    with traced() as trace:
        code = main(["simulate", exc_spec, "--n", str(n), "--gamma", "0.5", "--m", "4", "--l", "4",
                     "--samples", "2", "-o", str(out)])
    assert code == 3
    assert f"sqrt_measurement_decoder at n = {n} needs" in capsys.readouterr().err
    assert not out.exists()
    assert trace.peak < 2**20


def test_egdemo_byte_budget(exc_spec, tmp_path, capsys, monkeypatch):
    out = tmp_path / "eg.json"
    monkeypatch.setenv("COVERTQ_MAX_BYTES", "1000")
    assert main(["egdemo", exc_spec, "-o", str(out)]) == 3
    assert "budget 1000 bytes (COVERTQ_MAX_BYTES)" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.delenv("COVERTQ_MAX_BYTES")
    assert main(["egdemo", exc_spec, "-o", str(out)]) == 0


@pytest.mark.parametrize("name, value", [
    ("COVERTQ_MAX_BYTES", "abc"), ("COVERTQ_MAX_BYTES", "-5"), ("COVERTQ_MAX_BYTES", "0"),
    ("COVERTQ_MAX_BYTES", "1e9"), ("COVERTQ_MAX_DENSE_DIM", "4096"),
])
def test_bad_budget_variable_is_an_input_error(exc_spec, tmp_path, capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    for argv in (["simulate", exc_spec, "--n", "6", "--gamma", "0.5", "--m", "2", "--l", "2"], ["egdemo", exc_spec]):
        out = tmp_path / "out.json"
        assert main(argv + ["-o", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_simulate_rejects_nonpositive_samples(exc_spec, tmp_path, capsys, samples):
    out = tmp_path / "sim.json"
    assert main(["simulate", exc_spec, "--n", "6", "--m", "2", "--l", "2", "--gamma", "0.5",
                 "--samples", samples, "-o", str(out)]) == 2
    assert "samples must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_simulate_rejects_out_of_range_seed(exc_spec, tmp_path, capsys, seed):
    out = tmp_path / "sim.json"
    assert main(["simulate", exc_spec, "--n", "4", "--gamma", "0.5", "--seed", seed, "-o", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_has_no_fast_path_flag(exc_spec, capsys):
    # the route is chosen automatically; the scalar study is covertness_scaling
    with pytest.raises(SystemExit) as exc:
        main(["simulate", exc_spec, "--n", "6", "--gamma", "0.7", "--commuting-fast-path"])
    assert exc.value.code == 2
    assert "--commuting-fast-path" in capsys.readouterr().err


def test_egdemo(exc_spec, tmp_path, monkeypatch):
    calls = []  # Bob's pair is diagonalised once per run
    shared = cs.shared_eigenbasis
    monkeypatch.setattr(cs, "shared_eigenbasis", lambda a, b: calls.append((a, b)) or shared(a, b))
    out = tmp_path / "eg.json"
    assert main(["egdemo", exc_spec, "-o", str(out)]) == 0
    assert len(calls) == 1
    payload = json.loads(out.read_text())
    assert 0.0 <= payload["fidelity"] <= 1.0
    assert payload["covertDivergence"] >= 0.0
    assert payload["bestJ"] in (0, 1)
    assert payload["diagnostics"] == {"route": {"decoder": "commuting"}}
    # amplitude damping after an input rotation: Bob's outputs do not commute
    gamma, c, s = 0.3, math.cos(0.35), math.sin(0.35)
    u = np.array([[c, -s * np.exp(-0.4j)], [s * np.exp(0.4j), c]])
    kraus = (np.array([[1.0, 0.0], [0.0, math.sqrt(1 - gamma)]]) @ u, np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]]) @ u)
    spec = tmp_path / "rotated.json"
    spec.write_text(json.dumps({"kind": "kraus", "kraus": [op.matrix_to_json(k) for k in kraus]}))
    assert main(["egdemo", str(spec), "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert 0.0 <= payload["fidelity"] <= 1.0
    assert payload["diagnostics"] == {"route": {"decoder": "dense"}}
    assert len(calls) == 2


def test_egdemo_noiseless(tmp_path, capsys):
    spec = tmp_path / "id.json"
    identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    spec.write_text(json.dumps({"kind": "kraus", "kraus": [identity]}))
    assert main(["egdemo", str(spec), "--mode", "self-target"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert payload["diagnostics"] == {"route": {"decoder": "exact-string"}}


def test_egdemo_environment_wider_than_decoder(tmp_path, capsys):
    # excitation (gamma = 0.2) mixed with a Z flip: dW = 3, so dW^n = 81 > dB^n * L = 32
    exc0 = [[math.sqrt(0.8 * 0.7), 0.0], [0.0, math.sqrt(0.7)]]
    exc1 = [[0.0, 0.0], [math.sqrt(0.2 * 0.7), 0.0]]
    flip = [[math.sqrt(0.3), 0.0], [0.0, -math.sqrt(0.3)]]
    spec = tmp_path / "three.json"
    spec.write_text(json.dumps({"kind": "kraus", "kraus": [_pair_json(k) for k in (exc0, exc1, flip)]}))
    for mode in ("paper-target", "self-target"):
        assert main(["egdemo", str(spec), "--mode", mode]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["fidelity"] <= 1.0
        assert payload["perStepDiagnostics"]["decouplerIsometryDefect"] <= 1e-9


def test_validate(exc_spec, capsys):
    assert main(["validate", exc_spec]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True
    assert payload["bobDim"] == 2


def _pair_json(rows):
    return [[[v, 0.0] for v in row] for row in rows]


def test_simulate_reports_route(exc_spec, tmp_path, capsys):
    args = ["--n", "3", "--gamma", "0.6", "--m", "2", "--l", "2", "--samples", "2"]
    assert main(["simulate", exc_spec] + args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostics"] == {"route": {"warden": "commuting", "decoder": "commuting"}}
    # K0 = sqrt(p) I, K1 = sqrt(1-p) H: the warden's outputs do not commute for
    # p != 1/2, while Bob's satisfy sigma0 + sigma1 = I and do
    p, h = 0.3, 1.0 / math.sqrt(2.0)
    k0 = [[[math.sqrt(p), 0.0], [0.0, 0.0]], [[0.0, 0.0], [math.sqrt(p), 0.0]]]
    k1 = [[[math.sqrt(1 - p) * h * s, 0.0] for s in row] for row in ((1, 1), (1, -1))]
    spec = tmp_path / "hadamard.json"
    spec.write_text(json.dumps({"kind": "kraus", "kraus": [k0, k1]}))
    assert main(["simulate", str(spec)] + args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostics"] == {"route": {"warden": "dense", "decoder": "commuting"}}
    # neither pair commutes
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps({
        "kind": "cq-pair",
        "sigma0": _pair_json([[0.7, 0.2], [0.2, 0.3]]),
        "sigma1": _pair_json([[0.4, 0.1], [0.1, 0.6]]),
        "omega0": _pair_json([[0.6, 0.25], [0.25, 0.4]]),
        "omega1": _pair_json([[0.5, -0.2], [-0.2, 0.5]]),
    }))
    assert main(["simulate", str(spec)] + args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostics"] == {"route": {"warden": "dense", "decoder": "dense"}}
    assert 0.0 <= payload["decoder"]["averageError"] <= 1.0


# at most how many eigensolves a campaign makes on a fresh channel: a commuting pair's route takes
# three (one for the first state, one per eigenspace), a dense pair's none; the last two
# campaigns are those of the benchmark's simulate study
@pytest.mark.parametrize("kind, n, m, l, eigensolves", [
    pytest.param("excitation", 4, 2, 2, 21, id="excitation-2-2"),
    pytest.param("excitation", 4, 8, 16, 19, id="excitation-8-16"),
    pytest.param("cq-pair", 4, 2, 2, 34, id="cq-pair-2-2"),
    pytest.param("excitation", 9, 8, 16, 19, id="excitation-n9-8-16"),
    pytest.param("excitation", 8, 4, 4, 21, id="excitation-n8-4-4"),
])
def test_simulate_diagonalises_each_pair_once(exc_spec, tmp_path, monkeypatch, kind, n, m, l, eigensolves):
    spec = tmp_path / "exc.json"  # the file exc_spec wrote
    if kind == "cq-pair":  # neither pair commutes
        spec = tmp_path / "pair.json"
        spec.write_text(json.dumps({
            "kind": "cq-pair",
            "sigma0": _pair_json([[0.7, 0.2], [0.2, 0.3]]),
            "sigma1": _pair_json([[0.4, 0.1], [0.1, 0.6]]),
            "omega0": _pair_json([[0.6, 0.25], [0.25, 0.4]]),
            "omega1": _pair_json([[0.5, -0.2], [-0.2, 0.5]]),
        }))
    calls = []
    shared = cs.shared_eigenbasis
    monkeypatch.setattr(cs, "shared_eigenbasis", lambda a, b, *rest: calls.append((a, b)) or shared(a, b, *rest))
    solves = []
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(op, name, lambda h, solve=getattr(op, name): solves.append(h) or solve(h))
    out = tmp_path / "sim.json"
    assert main(["simulate", str(spec), "--n", str(n), "--gamma", "0.6", "--m", str(m), "--l", str(l),
                 "--samples", "2", "-o", str(out)]) == 0
    assert len(solves) <= eigensolves
    assert (json.loads(out.read_text())["decoder"] is None) == (m * l > 64)
    quad = chn.channel_spec_to_quadruple(json.loads(spec.read_text()))
    pairs = [(quad.omega0, quad.omega1), (quad.sigma0, quad.sigma1)]
    assert len(calls) == 2
    for want in pairs:
        assert sum(np.array_equal(a, want[0]) and np.array_equal(b, want[1]) for a, b in calls) == 1


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_step(tmp_path, capsys, steps):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--gamma-from", "0.1", "--gamma-to", "0.9", "--steps", steps, "--out", str(out)]) == 2
    assert "--steps" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _outcome(capsys, call):
    """(exit code, stdout, stderr) of ``call``, whether it returns or exits."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["bogus"], ["-h", "simulate"],
    ["capacity", "--help"], ["sweep", "--help"], ["simulate", "--help"], ["egdemo", "--help"], ["validate", "--help"],
    ["capacity"], ["sweep", "--gamma-from", "0.1"], ["simulate", "spec.json", "--gamma", "0.5"], ["egdemo"],
    ["validate"], ["egdemo", "spec.json", "--mode", "other"], ["simulate", "spec.json", "--n", "x", "--gamma", "1"],
    ["validate", "spec.json", "extra"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_cli_matches_a_parser_holding_every_subcommand(capsys, argv):
    # main registers only the subcommand argv[0] names; what it prints must not show that
    want = _outcome(capsys, lambda: build_parser().parse_args(argv))
    assert _outcome(capsys, lambda: main(argv)) == want
    assert want[0] in (0, 2) and (want[1] or want[2])


@pytest.mark.parametrize("command", ["capacity", "validate", "simulate", "egdemo"])
@pytest.mark.parametrize("spec", [
    [1, 2], "str", {"kind": "excitation", "gamma": None}, {"kind": "excitation", "gamma": [0.1, 0.2]},
    {"kind": "excitation", "gamma": True}, {"kind": "kraus", "kraus": 5}, {"kind": "kraus", "kraus": [{}]},
    {"kind": "kraus", "kraus": [[[{}, 0.0]]]},
], ids=["list", "string", "gamma-null", "gamma-list", "gamma-bool", "kraus-int", "kraus-object", "entry-object"])
def test_malformed_channel_spec_is_an_input_error(tmp_path, capsys, command, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = [command, str(path)] + (["--n", "2", "--gamma", "0.5"] if command == "simulate" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
