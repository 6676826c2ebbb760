import csv
import json
import math

import numpy as np
import pytest

from covertq import capacities as cap
from covertq import channels as chn
from covertq.cli import main


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


def test_capacity_missing_file(tmp_path, capsys):
    assert main(["capacity", str(tmp_path / "nope.json")]) == 2


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
        report = cap.capacity_report(chn.stinespring_from_kraus(chn.excitation_channel(row["gamma"])))
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


def test_simulate_budget(exc_spec, capsys):
    assert main(["simulate", exc_spec, "--n", "40", "--gamma", "0.5",
                 "--m", "2", "--l", "2"]) == 3
    assert "budget" in capsys.readouterr().err


def test_simulate_fast_path(exc_spec, capsys):
    assert main(["simulate", exc_spec, "--n", "100", "--gamma", "0.7",
                 "--m", "16", "--l", "16", "--commuting-fast-path"]) == 0
    payload = json.loads(capsys.readouterr().out)
    target = payload["covertness"]["quadraticTarget"]
    assert payload["covertness"]["dReference"] == pytest.approx(target, rel=0.1)


def test_egdemo(exc_spec, tmp_path):
    out = tmp_path / "eg.json"
    assert main(["egdemo", exc_spec, "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert 0.0 <= payload["fidelity"] <= 1.0
    assert payload["covertDivergence"] >= 0.0
    assert payload["bestJ"] in (0, 1)


def test_egdemo_noiseless(tmp_path, capsys):
    spec = tmp_path / "id.json"
    identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    spec.write_text(json.dumps({"kind": "kraus", "kraus": [identity]}))
    assert main(["egdemo", str(spec), "--mode", "self-target"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fidelity"] == pytest.approx(1.0, abs=1e-9)


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


def test_egdemo_missing_file(tmp_path):
    assert main(["egdemo", str(tmp_path / "absent.json")]) == 2


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
