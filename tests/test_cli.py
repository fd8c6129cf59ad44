import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entcov import __version__, cli, ensembles, states
from entcov.jsonio import _shown, dumps, loads
from entcov.linalg import _blas_kernel
from entcov.sampler import record_to_dict, simulate_record
from entcov.states import (
    canonical,
    density_matrix_from_dict,
    density_matrix_to_dict,
    pure_state_to_dict,
    rho_u,
)
from entcov.ensembles import haar_pure

from oracles import cpu_flags

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


def test_analyze_record_file_refuses_csv(tmp_path, capsys):
    path = tmp_path / "record.json"
    path.write_text(dumps(record_to_dict(simulate_record(canonical("singlet"), 100, 7))))
    output = tmp_path / "estimate.csv"
    for extra in ([], ["--output", str(output)]):
        code, out, err = run_cli(capsys, ["analyze", str(path), "--format", "csv", *extra])
        assert (code, out) == (2, "")
        assert err == "error: CSV output is for state files; a record's G estimate is JSON only\n"
    assert not output.exists()


def test_analyze_record_file_beyond_the_shot_bound(tmp_path, capsys):
    shots = 2**60
    counts = {f"{i}{j}": [shots, 0, 0, 0] for i in "123" for j in "123"}
    data = {"shots": shots, "seed": 1, "counts": counts}
    path = tmp_path / "record.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, ["analyze", str(path)])
    assert (code, out) == (2, "")
    assert err == (
        f"error: {path}: shots_per_setting must be an integer >= 1 and <= 9007199254740992, "
        f"got {shots}\n"
    )


def test_analyze_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    not_utf8 = b'{"kind": "haar_pure", "count": 1, "seed": 1, "note": "\xff"}'
    overlong = b'{"re": ' + b"1" * 5000 + b"}"  # beyond Python's 4300-digit int limit
    for content in (b"{ not json", not_utf8, overlong):
        path.write_bytes(content)
        for command in ("analyze", "ensemble"):
            code, out, err = run_cli(capsys, [command, str(path)])
            assert (code, out) == (2, ""), (command, content[:20])
            assert err.startswith(f"error: parse error in {path}: ")


def test_analyze_invalid_state_names_invariant(tmp_path, capsys):
    bad = {"re": (np.eye(4) * 0.26).tolist(), "im": np.zeros((4, 4)).tolist()}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2
    assert "trace" in err


def test_analyze_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["analyze", "/nonexistent/state.json"])
    assert code == 2
    assert "cannot read" in err
    state = write_state(tmp_path, "singlet.json", canonical("singlet"))
    missing = tmp_path / "no-such-dir" / "out.json"
    code, out, err = run_cli(capsys, ["analyze", state, "--output", str(missing)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {missing}: ")
    assert not missing.parent.exists()


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

    monkeypatch.setattr(ensembles, "MAX_REJECTION_ATTEMPTS", 500)


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


AT_MOST_2_53 = "must be an integer >= 1 and <= 9007199254740992"
COUNT_RULE = "count must be an integer >= 1 and <= 18446744073709551616"  # 2**64 indices


@pytest.mark.parametrize(
    "argv, message",
    [
        (["scan-bounds", "--count", "0"], f"{COUNT_RULE}, got 0"),
        (["scan-bounds", "--count", "2.5"], f"{COUNT_RULE}, got '2.5'"),
        (["purity-slice", "--purity", "0.46", "--count", "true"], "count must be an integer >= 1"),
        (["sample", "state.json", "--shots", "0"], f"shots {AT_MOST_2_53}, got 0"),
        (["sample", "state.json", "--seed", "1.0"], "seed must be an integer >= 0, got '1.0'"),
        (["scan-bounds", "--rank", "2,5"], "rank must be an integer >= 1 and <= 4, got 5"),
        (["scan-bounds", "--rank", ","], "rank list is empty"),
        (
            ["sample", "state.json", "--shots", "9223372036854775808"],
            f"shots {AT_MOST_2_53}, got 9223372036854775808",
        ),
        (["scan-bounds", "--count", str(10**400)], f"{COUNT_RULE}, got 1000"),
        # Beyond Python's 4300-digit int limit the option stays text.
        (
            ["scan-bounds", "--count", "9" * 5000],
            f"{COUNT_RULE}, got '99999999999... (5002 characters)",
        ),
        (["scan-bounds", "--rank", "1,,2"], "rank list has an empty entry: '1,,2'"),
        (["scan-bounds", "--rank", "3,"], "rank list has an empty entry: '3,'"),
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


# sha256 of the output text of each pinned sweep.  Every sweep command reads
# the one chunk loop of ensembles, and these pins keep its output byte-identical.
SWEEP_CSV_SHA256 = {
    "scan-bounds": "5c223ecc24ccaa14b8e90c8dd582e4fcfe1ca9440d817c79889366d234d69f2e",
    "purity-slice": "7fce297641c7e91bb21de1f372f8ca0b5ba037aae17356abf2167be50baac92b",
    "ensemble": "72046f20d97644112d4dc5b151ade55284bd00c65114693dd8378f5bab0aed49",
    "scan-bounds-rank-1,3": "6d3d05bbc59ca092ad0cc11188701eb343efb2111a2e70d5c7c6e42be1071e1d",
    "purity-slice-1.0": "0f6128cc32d97fe6b157a8c54b806afc10d812f198eef2ccc69bf3882b59be32",
    "ensemble-haar_pure-csv": "cca39bce31708c8e94773260677105c551783e44896249e3255ed52cbe8ac31c",
    "ensemble-haar_pure-json": "d1b11e8c1a615e160e0c931fa11b222b464ac76c2240d937f332f5c518351b82",
    "ensemble-ginibre-csv": "a136abc45169fec431f965f78dab9793e240b4a3608053426be135fca213b3e0",
    "ensemble-ginibre-json": "0a6ea332d57565795e11b9ef1e5a12a648d5b71fc495a52417ee4123733c368e",
    "ensemble-fixed_purity-csv": "b40772f9b2d8b2256e41d26f15f644e231a0ac8aeb0a051fb711d6872ff041b3",
    "ensemble-fixed_purity-json": "9267450bd84192f7c6c6d503d8868f5a872afbcd8cc8f947f6c3aa25be816419",
    "ensemble-separable_mixture-csv": "c662cd54b38fd7f40f05ecac10667d2c4e81371286960a2dea7df054756625ee",
    "ensemble-separable_mixture-json": "b8305d867789cfd3414fd4b55f7f4119c20dcce18bd86e5cdbeb8f698445c980",
    "ensemble-rho_u_sweep-csv": "092cd868bf91d77abdd448e3445c8ff8c10d3f37cae803eec75052b309897b66",
    "ensemble-rho_u_sweep-json": "a257b11c0d9970a138721a7498121f49e52305d1ff66c47ebbfae4fc90792647",
}

# The ensemble specs pinned in CSV and JSON, each at 172 states: the default
# CHUNK + 44, so one full stack and one partial stack.
PINNED_SPECS = {
    "haar_pure": {"kind": "haar_pure", "count": 172, "seed": 4},
    "ginibre": {"kind": "ginibre", "count": 172, "seed": 8, "rank": 3},
    "fixed_purity": {"kind": "fixed_purity", "count": 172, "seed": 6,
                     "purity_target": 0.46, "purity_window": 0.005},
    "separable_mixture": {"kind": "separable_mixture", "count": 172, "seed": 7, "mixture_terms": 3},
    "rho_u_sweep": {"kind": "rho_u_sweep", "count": 172, "seed": 0},
}


def pinned_argv(tmp_path, command):
    """The invocation whose output SWEEP_CSV_SHA256[command] pins."""
    if command == "scan-bounds":
        return ["scan-bounds", "--count", "64", "--seed", "12345"]
    if command == "scan-bounds-rank-1,3":
        return ["scan-bounds", "--count", "172", "--seed", "12345", "--rank", "1,3"]
    if command == "purity-slice":
        return ["purity-slice", "--purity", "0.46", "--count", "8", "--seed", "12345"]
    if command == "purity-slice-1.0":
        return ["purity-slice", "--purity", "1.0", "--count", "172", "--seed", "12345"]
    if command == "ensemble":
        spec, fmt = {"kind": "ginibre", "count": 16, "seed": 7, "rank": 2}, "csv"
    else:
        _, kind, fmt = command.split("-")
        spec = PINNED_SPECS[kind]
    spec_path = tmp_path / f"{command}.json"
    spec_path.write_text(json.dumps(spec))
    return ["ensemble", str(spec_path), "--format", fmt]


@pytest.mark.parametrize("command", sorted(SWEEP_CSV_SHA256))
def test_sweep_csv_text_is_pinned(tmp_path, capsys, command):
    code, out, _ = run_cli(capsys, pinned_argv(tmp_path, command))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_CSV_SHA256[command]


def test_sweep_output_does_not_depend_on_chunk(tmp_path, capsys, monkeypatch):
    spec_path = tmp_path / "fixed.json"
    spec_path.write_text(json.dumps({"kind": "fixed_purity", "count": 20, "seed": 3,
                                     "purity_target": 0.46, "purity_window": 0.005}))
    argvs = [pinned_argv(tmp_path, command) for command in sorted(SWEEP_CSV_SHA256)] + [
        ["scan-bounds", "--count", str(ensembles.CHUNK + 44), "--seed", "5", "--rank", "1,3,4"],
        ["ensemble", str(spec_path)],
        ["ensemble", str(spec_path), "--format", "json"],
        ["ensemble", str(tmp_path / "ensemble.json"), "--format", "json"],
    ]
    default, outputs = ensembles.CHUNK, {}
    for chunk in (1, 7, default):
        monkeypatch.setattr(ensembles, "CHUNK", chunk)
        outputs[chunk] = [run_cli(capsys, argv) for argv in argvs]
        for command, (code, out, _) in zip(sorted(SWEEP_CSV_SHA256), outputs[chunk]):
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_CSV_SHA256[command]
    assert outputs[1] == outputs[7] == outputs[default]


# sha256 of the g and purity columns of each CSV pin (see ``csv_column``),
# which no BLAS kernel moves: they read the same under OpenBLAS's SkylakeX
# and Haswell kernels.  The concurrence columns move with eigh's bits, and
# separable mixtures move in every column, through their complex norms.
KERNEL_FREE_COLUMNS_SHA256 = {
    "ensemble": ("0f2be8836c43ecc998ccbd731f40b7378c377245db61c99592b0ebc43bb2678b",
                 "9d4e94c9882ff53bc712d2101474cc7a77ae81aa9240c1f4e7c2d90d5515c176"),
    "ensemble-fixed_purity-csv": (
        "1cf92d3f7b5f8f5857cf45ae365a4f1f927c4d0eab4e26e36ddfebc3c6f52252",
        "1aab5d96f36dfd85cf637a8f67bbae9eb85734c92f1f3fd792bea1c6615bf4f0"),
    "ensemble-ginibre-csv": ("e04aa59d27dabcf8f9f0b84e14e611d1751d3b8c8917913fde4fd526f7badfd0",
                             "28cc766e79aea10e72c1614aef28794aac02c581f828ce361e7838b6d99ee6ab"),
    "ensemble-haar_pure-csv": (
        "1a40ff7ea5acee3b55d1ad4eee92f37be4db4f6293819fbfade0f527155b4272",
        "4792dea994210a11f062234dc616a9577de0e9867690aa19e2a14a5ddd09187b"),
    "ensemble-rho_u_sweep-csv": (
        "026dd616fdf0c564e40aacfc5c81256ae811cea73a68cfe8e8b5a60133000181",
        "6d637d58b2a5363a1b7e0b9eb05f374605b89ab69645e97fb0bf59be86a4e8fd"),
    "purity-slice": ("841aa9e278757825b9ddf771b5331aaa4051483450dc9bb9e0df4082fae7be8f",
                     "940807159a16cbde0021e5cc0f2391a828672892953cfb3eb75dd0cadd99d604"),
    "purity-slice-1.0": ("9d901090c4fb448b59cb74be9a95633b6a42d6d7de718f3afeb74d0186d3a977",
                         "59affd7329979a81e96df52ab8813945179efd69f86d5d564228c0dade2769ef"),
    "scan-bounds": ("3fde49bc7a7881a70449663e50ac151e4db9ff90d294bdf30256efc1c3a33bea",
                    "c504128f5917c577d6c8bdee5f82cc038158177572b61f79ed593e9153ce46ac"),
    "scan-bounds-rank-1,3": ("a3edba1939b93a79e8681c85fb2516e37a929218b47ed91641ab78beed81176c",
                             "41eb50897a86d5f66bd1d67c9fcdb8195ff1fe2f92cbb32ca98abfe4b721ce04"),
}
# The JSON pins whose whole text no BLAS kernel moves: the states carry no
# concurrence.  Separable mixtures move here too.
KERNEL_FREE_JSON = ("ensemble-fixed_purity-json", "ensemble-ginibre-json",
                    "ensemble-haar_pure-json", "ensemble-rho_u_sweep-json")

# Run each {command: argv} read from stdin and print the kernel and {command: [code, stdout]}.
PINS_CHILD = """
import contextlib, io, json, sys
from entcov import cli
from entcov.linalg import _blas_kernel

outputs = {}
for command, argv in json.load(sys.stdin).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        outputs[command] = [cli.main(argv), out.getvalue()]
print(json.dumps([_blas_kernel(), outputs]))
"""


def csv_column(text: str, name: str) -> str:
    """The values of the named column of CSV text, one per line, without the header."""
    header, *rows = text.splitlines()
    k = header.split(",").index(name)
    return "\n".join(row.split(",")[k] for row in rows)


def test_the_kernel_free_pins_hold_under_haswell(tmp_path):
    # The full pins belong to one BLAS kernel; these parts of them belong to
    # none.  Forcing a kernel is safe only on a CPU that has its instructions.
    if not {"avx2", "fma"} <= cpu_flags():
        pytest.skip("/proc/cpuinfo lists no avx2 or no fma, which the Haswell kernels need")
    if _blas_kernel() == "unknown":
        pytest.skip("numpy bundles no OpenBLAS whose kernel can be chosen")
    argvs = {command: pinned_argv(tmp_path, command)
             for command in (*KERNEL_FREE_COLUMNS_SHA256, *KERNEL_FREE_JSON)}
    env = {**src_env(), "OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", PINS_CHILD], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    kernel, outputs = json.loads(proc.stdout)
    assert kernel == "Haswell"
    for command, (code, out) in outputs.items():
        assert code == 0, command
        if command in KERNEL_FREE_JSON:
            assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_CSV_SHA256[command], command
        else:
            digests = tuple(hashlib.sha256(csv_column(out, name).encode()).hexdigest()
                            for name in ("g", "purity"))
            assert digests == KERNEL_FREE_COLUMNS_SHA256[command], command


def test_ensemble_infeasible_window(tmp_path, capsys, monkeypatch):
    cap_fixed_purity(monkeypatch)
    spec = {"kind": "fixed_purity", "count": 1, "seed": 1,
            "purity_target": 0.99, "purity_window": 1e-9}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, _, err = run_cli(capsys, ["ensemble", str(spec_path)])
    assert code == 2
    assert "infeasible" in err


def test_a_fixed_purity_slice_factors_only_the_states_it_emits(capsys, monkeypatch):
    # Rejected attempts are scored, never validated: the one validation of
    # each emitted state is the sweep's own, on its chunk's eigendecomposition,
    # and no state is validated again as a DensityMatrix.
    validated, validate = [], states._validated_spectrum

    def counting_validation(mats):
        validated.append(len(mats))
        return validate(mats)

    monkeypatch.setattr(states, "_validated_spectrum", counting_validation)
    monkeypatch.setattr(cli, "_validated_spectrum", counting_validation)
    code, out, _ = run_cli(
        capsys, ["purity-slice", "--purity", "0.46", "--count", "128", "--seed", "2026"]
    )
    assert code == 0 and len(out.splitlines()) == 1 + 128
    assert sum(validated) == 128


def test_the_json_ensemble_validates_and_writes_each_chunk_once(tmp_path, capsys, monkeypatch):
    # One stacked validation decides each chunk and one format operation
    # writes it: no state is validated or serialized on its own.
    validated, validate, dumped = [], states._validated_spectrum, []

    def counting(mats):
        validated.append(len(mats))
        return validate(mats)

    monkeypatch.setattr(states, "_validated_spectrum", counting)
    monkeypatch.setattr(cli, "_validated_spectrum", counting)
    monkeypatch.setattr(cli, "dumps", lambda obj: dumped.append(obj) or dumps(obj))
    code, out, _ = run_cli(capsys, pinned_argv(tmp_path, "ensemble-ginibre-json"))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_CSV_SHA256["ensemble-ginibre-json"]
    assert validated == [ensembles.CHUNK, 44]
    assert dumped == []


def per_state_json(spec: ensembles.EnsembleSpec) -> str:
    """The per-state writer `ensemble --format json` had: a DensityMatrix, a dict and dumps each."""
    rows = [{"index": i, **density_matrix_to_dict(rho)} for i, rho in ensembles.generate(spec)]
    return dumps(rows) + "\n"


@pytest.mark.parametrize("count", [1, ensembles.CHUNK + 44])
@pytest.mark.parametrize("kind", sorted(PINNED_SPECS))
def test_the_json_ensemble_equals_the_per_state_writer(tmp_path, capsys, monkeypatch, kind, count):
    spec = {**PINNED_SPECS[kind], "count": count, "seed": PINNED_SPECS[kind]["seed"] + 20}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    expected = per_state_json(ensembles.ensemble_spec_from_dict(spec))
    for chunk in (1, 7, ensembles.CHUNK):
        monkeypatch.setattr(ensembles, "CHUNK", chunk)
        assert run_cli(capsys, ["ensemble", str(spec_path), "--format", "json"]) == (0, expected, "")


@pytest.mark.parametrize("command", ["scan-bounds", "purity-slice", "ensemble-csv", "ensemble-json"])
def test_a_failure_in_a_late_chunk_writes_nothing(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(ensembles, "CHUNK", 4)
    nans = []

    def nan_in_the_second_stack(kernel):
        def stack(first, indices, **kwargs):
            mats = kernel(first, indices, **kwargs)
            if indices[0] == ensembles.CHUNK:
                mats[1, 2, 3] = np.nan
                nans.append(int(indices[0]))
            return mats

        return stack

    monkeypatch.setattr(cli, "_ginibre_stack", nan_in_the_second_stack(cli._ginibre_stack))
    monkeypatch.setattr(cli, "_stack", nan_in_the_second_stack(cli._stack))
    if command.startswith("ensemble"):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "ginibre", "count": 10, "seed": 3, "rank": 3}))
        argv = ["ensemble", str(spec_path), "--format", command.split("-")[1]]
    elif command == "scan-bounds":
        argv = ["scan-bounds", "--count", "10"]
    else:
        argv = ["purity-slice", "--purity", "0.46", "--count", "10"]
    output = tmp_path / "out.txt"
    for destination in ("-", str(output)):
        code, out, err = run_cli(capsys, argv + ["--output", destination])
        assert (code, out, err) == (1, "", "runtime error: matrix entries must be finite\n")
    assert nans == [4, 4]  # each run hit the second stack
    assert not output.exists()


@pytest.mark.parametrize(
    "emitter", ["fixed_purity", "generate", "purity-slice", "ensemble-csv", "ensemble-json"]
)
def test_every_fixed_purity_emitter_validates_its_states(tmp_path, capsys, monkeypatch, emitter):
    kernel = ensembles._fixed_purity_stack

    def non_hermitian_first(keys, *args):
        mats = kernel(keys, *args)
        mats[0, 0, 1] += 1e-3
        return mats

    monkeypatch.setattr(ensembles, "_fixed_purity_stack", non_hermitian_first)
    spec = {"kind": "fixed_purity", "count": 3, "seed": 6,
            "purity_target": 0.46, "purity_window": 0.005}
    if emitter in ("fixed_purity", "generate"):
        with pytest.raises(ValueError, match="^not Hermitian: defect "):
            if emitter == "fixed_purity":
                ensembles.fixed_purity(6, 0, 0.46, 0.005)
            else:
                next(ensembles.generate(ensembles.ensemble_spec_from_dict(spec)))
        assert capsys.readouterr().out == ""
        return
    if emitter == "purity-slice":
        argv = ["purity-slice", "--purity", "0.46", "--count", "3", "--seed", "6"]
    else:
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        argv = ["ensemble", str(spec_path), "--format", emitter.split("-")[1]]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("runtime error: not Hermitian: defect ")


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
    assert "purity_target must be a real number" in err


def test_ensemble_rejects_bad_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    for spec, message in [
        ({"kind": "ginibre", "count": 3, "seed": 1}, "rank"),
        ({"kind": "ginibre", "count": 3, "seed": 1, "rank": 2, "ranks": [1]},
         "ensemble spec has unknown fields ['ranks']"),
        ({"kind": "ginibre", "seed": 1}, "ensemble spec fields must include ['count', 'kind', 'seed']"),
        # A count beyond the 2**64 indices a stream can address.
        ({"kind": "haar_pure", "count": 10**400, "seed": 1}, f"{COUNT_RULE}, got 1000"),
        ({"kind": "haar_pure", "count": 2**64 + 1, "seed": 1}, f"{COUNT_RULE}, got 1844"),
        # Rejected before any buffer is allocated: 10**9 terms would take about 72 GB.
        ({"kind": "separable_mixture", "count": 1, "seed": 1, "mixture_terms": 10**9},
         "mixture_terms must be an integer >= 1 and <= 65536, got 1000000000"),
    ]:
        spec_path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, ["ensemble", str(spec_path)])
        assert (code, out) == (2, "")
        assert message in err


def test_a_huge_count_is_reported_by_its_digit_count(tmp_path, capsys, monkeypatch):
    # The rejected value's digits are not repeated: the start and the count only.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan-bounds", "--count", str(10**400)])
    assert exc.value.code == 2
    option_err = capsys.readouterr().err
    Path("spec.json").write_text(f'{{"kind": "haar_pure", "count": {"9" * 4000}, "seed": 1}}')
    code, out, spec_err = run_cli(capsys, ["ensemble", "spec.json"])
    assert (code, out) == (2, "")
    for err, shown in ((option_err, "100000000000... (401 digits)"),
                       (spec_err, "999999999999... (4000 digits)")):
        line = err.splitlines()[-1]
        assert line.endswith(f"{COUNT_RULE}, got {shown}")
        assert len(line.encode()) < 200
    # The digit count is exact around every power of 10 and of 2 up to 1000
    # digits, where an estimate from the bit length is most likely off by one.
    powers = [10**k for k in range(1, 1001)] + [2**b for b in range(1, 3322)]
    for v in {p + d for p in powers for d in (-1, 0)}:
        text = str(v)
        expected = text if len(text) <= 40 else f"{text[:12]}... ({len(text)} digits)"
        assert (_shown(v), _shown(-v)) == (expected, "-" + expected), len(text)


HUGE = 10**400  # a JSON integer beyond the float range


@pytest.mark.parametrize("where", ["spec purity_window", "record count", "state re entry"])
def test_a_huge_json_integer_is_an_input_error(tmp_path, capsys, where):
    if where == "spec purity_window":
        command, field = "ensemble", "purity_window"
        data = {"kind": "fixed_purity", "count": 1, "seed": 1,
                "purity_target": 0.46, "purity_window": HUGE}
    elif where == "record count":
        command, field = "analyze", 'counts["12"]'
        data = record_to_dict(simulate_record(canonical("singlet"), 10, 1))
        data["counts"]["12"][0] = HUGE
    else:
        command, field = "analyze", '"re"'
        data = density_matrix_to_dict(canonical("singlet"))
        data["re"][0][0] = HUGE
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, [command, str(path)])
    assert (code, out) == (2, "")
    assert f"{field} " in err and "too large for a float" in err
    assert "0" * 100 not in err


def src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return env


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
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env()
    )
    assert proc.returncode == 0
    assert "entcov" in proc.stdout


def test_module_run_prints_the_version():
    for module in ("entcov", "entcov.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "--version"],
            capture_output=True, text=True, env=src_env(),
        )
        assert (proc.returncode, proc.stdout) == (0, f"entcov {__version__}\n"), module


@pytest.mark.skipif(shutil.which("entcov") is None, reason="no entcov executable on PATH")
def test_console_script_on_path():
    proc = subprocess.run(["entcov", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "entcov" in proc.stdout
