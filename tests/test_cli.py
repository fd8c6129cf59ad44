import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entcov import cli
from entcov.jsonio import dumps, loads
from entcov.sampler import record_to_dict, simulate_record
from entcov.states import (
    canonical,
    density_matrix_from_dict,
    density_matrix_to_dict,
    pure_state_to_dict,
    rho_u,
)
from entcov.ensembles import haar_pure

REPO = Path(__file__).resolve().parents[1]


def write_state(tmp_path, name, rho):
    path = tmp_path / name
    path.write_text(dumps(density_matrix_to_dict(rho)))
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_singlet(tmp_path, capsys):
    path = write_state(tmp_path, "singlet.json", canonical("singlet"))
    code, out, _ = run_cli(capsys, ["analyze", path])
    assert code == 0
    data = json.loads(out)
    assert abs(data["g"] - 3.0) < 1e-9
    assert abs(data["c_min"] - 1.0) < 1e-7
    assert abs(data["c_max"] - 1.0) < 1e-7
    assert data["l3"] < 1e-9
    assert data["verdict"] == "entangled_certified"
    assert abs(data["concurrence"] - 1.0) < 1e-9


def test_analyze_rho_u(tmp_path, capsys):
    path = write_state(tmp_path, "rho_u.json", rho_u(0.25, 0.0))
    code, out, _ = run_cli(capsys, ["analyze", path])
    assert code == 0
    data = json.loads(out)
    assert abs(data["g"] - 1.5) < 1e-10
    assert abs(data["concurrence"] - 0.5) < 1e-10


def test_analyze_pure_state_file(tmp_path, capsys):
    path = tmp_path / "pure.json"
    path.write_text(dumps(pure_state_to_dict(haar_pure(1, 0))))
    code, out, _ = run_cli(capsys, ["analyze", str(path)])
    assert code == 0
    assert "verdict" in json.loads(out)


def test_analyze_record_file(tmp_path, capsys):
    rec = simulate_record(canonical("singlet"), 5000, 7)
    path = tmp_path / "record.json"
    path.write_text(dumps(record_to_dict(rec)))
    code, out, _ = run_cli(capsys, ["analyze", str(path)])
    assert code == 0
    data = json.loads(out)
    assert abs(data["g_hat"] - 3.0) < 0.1
    assert data["stderr"] >= 0.0
    assert data["shots_per_setting"] == 5000


def test_analyze_csv_format(tmp_path, capsys):
    path = write_state(tmp_path, "singlet.json", canonical("singlet"))
    code, out, _ = run_cli(capsys, ["analyze", path, "--format", "csv"])
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("g,g_hs,l3,verdict")
    assert "entangled_certified" in row


def test_analyze_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code, _, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2
    assert "parse error" in err


def test_analyze_invalid_state_names_invariant(tmp_path, capsys):
    bad = {"re": (np.eye(4) * 0.26).tolist(), "im": np.zeros((4, 4)).tolist()}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2
    assert "trace" in err


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, ["analyze", "/nonexistent/state.json"])
    assert code == 2
    assert "cannot read" in err


def test_scan_bounds_output(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        capsys, ["scan-bounds", "--count", "40", "--seed", "5", "--output", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "kind,concurrence,g,purity,rank,violates"
    samples = [l for l in lines[1:] if l.startswith("sample")]
    lower = [l.split(",") for l in lines[1:] if l.startswith("lower_bound")]
    upper = [l.split(",") for l in lines[1:] if l.startswith("upper_bound")]
    assert len(samples) == 40
    assert len(lower) == len(upper) == 200
    # curve endpoints: C=0 -> (0, 1); C=1 -> (3, 3)
    assert float(lower[0][2]) == 0.0 and float(upper[0][2]) == 1.0
    assert abs(float(lower[-1][2]) - 3.0) < 1e-12
    assert abs(float(upper[-1][2]) - 3.0) < 1e-12


def test_scan_bounds_flags_rank2_violations(tmp_path, capsys):
    # seeded witness: with seed 79 and pure rank-2 cycling, index 216 violates
    out_path = tmp_path / "scan2.csv"
    code, _, _ = run_cli(
        capsys,
        ["scan-bounds", "--count", "220", "--seed", "79", "--rank", "2", "--output", str(out_path)],
    )
    assert code == 0
    rows = [l.split(",") for l in out_path.read_text().strip().split("\n")[1:]]
    sample_rows = [r for r in rows if r[0] == "sample"]
    flagged = [r for r in sample_rows if r[5] == "1"]
    assert len(flagged) >= 1
    # the flag matches an independent recomputation
    for r in sample_rows:
        c, g = float(r[1]), float(r[2])
        expected = int(g < c * c * (2 + c * c) - 1e-9 or g > 1 + 2 * c * c + 1e-9)
        assert int(r[5]) == expected


def test_purity_slice_pure_target(tmp_path, capsys):
    out_path = tmp_path / "pure.csv"
    code, _, err = run_cli(
        capsys,
        ["purity-slice", "--purity", "1.0", "--window", "1e-6", "--count", "60",
         "--seed", "3", "--output", str(out_path)],
    )
    assert code == 0
    rows = [l.split(",") for l in out_path.read_text().strip().split("\n")[1:]]
    assert len(rows) == 60
    assert all(abs(float(r[2]) - 1.0) <= 1e-6 for r in rows)
    assert "g_spread" in err


def test_purity_slice_mixed_target(tmp_path, capsys):
    out_path = tmp_path / "mixed.csv"
    code, _, err = run_cli(
        capsys,
        ["purity-slice", "--purity", "0.5", "--window", "0.01", "--count", "30",
         "--seed", "3", "--output", str(out_path)],
    )
    assert code == 0
    rows = [l.split(",") for l in out_path.read_text().strip().split("\n")[1:]]
    assert all(abs(float(r[2]) - 0.5) <= 0.01 for r in rows)


def cap_fixed_purity(monkeypatch):
    """Make an infeasible window fail after 500 attempts instead of 10**6."""
    from entcov import ensembles

    original = ensembles.fixed_purity

    def capped(seed, index, target, window, max_attempts=10**6):
        return original(seed, index, target, window, max_attempts=500)

    monkeypatch.setattr(ensembles, "fixed_purity", capped)


def test_purity_slice_infeasible_window(tmp_path, capsys, monkeypatch):
    cap_fixed_purity(monkeypatch)
    code, _, err = run_cli(
        capsys, ["purity-slice", "--purity", "0.99", "--window", "1e-9", "--count", "1"]
    )
    assert code == 2
    assert "infeasible" in err


def test_purity_slice_pure_target_rejects_zero_window(capsys):
    code, _, err = run_cli(
        capsys, ["purity-slice", "--purity", "1.0", "--window", "0", "--count", "1"]
    )
    assert code == 2
    assert "purity_window must be positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-bounds", "--count", "1"],
        ["purity-slice", "--purity", "0.46", "--count", "1"],
        ["sample", "state.json"],
    ],
)
def test_negative_seed_is_an_input_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["scan-bounds", "--count", "0"], "count must be an integer >= 1, got 0"),
        (["scan-bounds", "--count", "2.5"], "count must be an integer >= 1, got '2.5'"),
        (["purity-slice", "--purity", "0.46", "--count", "true"], "count must be an integer >= 1"),
        (["sample", "state.json", "--shots", "0"], "shots must be an integer >= 1, got 0"),
        (["sample", "state.json", "--seed", "1.0"], "seed must be an integer >= 0, got '1.0'"),
        (["scan-bounds", "--rank", "2,5"], "rank must be an integer >= 1 and <= 4, got 5"),
        (["scan-bounds", "--rank", ","], "rank list is empty"),
    ],
)
def test_bad_integer_option_is_an_input_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_purity_slice_infinite_window_is_an_input_error(capsys):
    code, out, err = run_cli(
        capsys, ["purity-slice", "--purity", "0.5", "--window", "inf", "--count", "3"]
    )
    assert code == 2 and out == ""
    assert "purity_window must be positive and finite, got inf" in err


def test_sample_command_deterministic(tmp_path, capsys):
    path = write_state(tmp_path, "singlet.json", canonical("singlet"))
    code, out1, _ = run_cli(capsys, ["sample", path, "--shots", "2000", "--seed", "8"])
    assert code == 0
    code, out2, _ = run_cli(capsys, ["sample", path, "--shots", "2000", "--seed", "8"])
    assert out1 == out2
    data = json.loads(out1)
    assert abs(data["g_exact"] - 3.0) < 1e-9
    assert abs(data["g_hat"] - 3.0) < 0.2


def test_ensemble_command_csv(tmp_path, capsys):
    spec = {"kind": "ginibre", "count": 8, "seed": 4, "rank": 3}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, ["ensemble", str(spec_path)])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,kind,concurrence,g,purity"
    assert len(lines) == 9


def test_ensemble_command_json_states_round_trip(tmp_path, capsys):
    spec = {"kind": "haar_pure", "count": 3, "seed": 4}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, ["ensemble", str(spec_path), "--format", "json"])
    assert code == 0
    entries = loads(out)
    assert len(entries) == 3
    for entry in entries:
        rho = density_matrix_from_dict({"re": entry["re"], "im": entry["im"]})
        # re-serialization is textually identical: lossless float round-trip
        assert dumps(density_matrix_to_dict(rho)) == dumps(
            {"re": entry["re"], "im": entry["im"]}
        )


# sha256 of the CSV text; the three sweep commands share one (C, G, purity)
# row path, and these pins keep its output byte-identical.
SWEEP_CSV_SHA256 = {
    "scan-bounds": "5c223ecc24ccaa14b8e90c8dd582e4fcfe1ca9440d817c79889366d234d69f2e",
    "purity-slice": "7fce297641c7e91bb21de1f372f8ca0b5ba037aae17356abf2167be50baac92b",
    "ensemble": "72046f20d97644112d4dc5b151ade55284bd00c65114693dd8378f5bab0aed49",
}


@pytest.mark.parametrize("command", sorted(SWEEP_CSV_SHA256))
def test_sweep_csv_text_is_pinned(tmp_path, capsys, command):
    if command == "scan-bounds":
        argv = ["scan-bounds", "--count", "64", "--seed", "12345"]
    elif command == "purity-slice":
        argv = ["purity-slice", "--purity", "0.46", "--count", "8", "--seed", "12345"]
    else:
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "ginibre", "count": 16, "seed": 7, "rank": 2}))
        argv = ["ensemble", str(spec_path)]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_CSV_SHA256[command]


def test_ensemble_infeasible_window(tmp_path, capsys, monkeypatch):
    cap_fixed_purity(monkeypatch)
    spec = {"kind": "fixed_purity", "count": 1, "seed": 1,
            "purity_target": 0.99, "purity_window": 1e-9}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, _, err = run_cli(capsys, ["ensemble", str(spec_path)])
    assert code == 2
    assert "infeasible" in err


def test_analyze_record_with_null_count(tmp_path, capsys):
    data = record_to_dict(simulate_record(canonical("singlet"), 10, 1))
    data["counts"]["12"] = [None, 0, 0, 0]
    path = tmp_path / "record.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2
    assert "must hold only numbers" in err


@pytest.mark.parametrize("field, value", [("seed", -1), ("shots", True), ("shots", 2.5)])
def test_analyze_rejects_bad_record_fields(tmp_path, capsys, field, value):
    data = record_to_dict(simulate_record(canonical("singlet"), 10, 1))
    data[field] = value
    path = tmp_path / "record.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2
    assert f"{field} must be an integer" in err


@pytest.mark.parametrize("value", ["0.5", True])
def test_ensemble_rejects_non_numeric_purity(tmp_path, capsys, value):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"kind": "fixed_purity", "count": 1, "seed": 1, "purity_target": value, "purity_window": 0.02}
    ))
    code, _, err = run_cli(capsys, ["ensemble", str(spec_path)])
    assert code == 2
    assert "purity_target must hold only numbers" in err


def test_ensemble_rejects_bad_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "ginibre", "count": 3, "seed": 1}))
    code, _, err = run_cli(capsys, ["ensemble", str(spec_path)])
    assert code == 2
    assert "rank" in err


def test_console_entry_point():
    # Run the [project.scripts] target of this checkout the way the installed
    # wrapper does, so no install is needed and no other install is picked up.
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["entcov"]
    module, func = target.split(":")
    code = (
        f"import sys; from {module} import {func}; "
        f"sys.argv = ['entcov', '--version']; sys.exit({func}())"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "entcov" in proc.stdout


@pytest.mark.skipif(shutil.which("entcov") is None, reason="no entcov executable on PATH")
def test_console_script_on_path():
    proc = subprocess.run(["entcov", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "entcov" in proc.stdout
