import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hotpool import (
    DegenerateSpectrumError,
    DenseTensor,
    DomainError,
    FeatureSet,
    InputError,
    PnSpec,
    apply_epn_core,
    bound_gaps,
    hosvd_supersym,
    pool,
    reconstruct,
    tpe_distance,
)
from hotpool import cli, io
from hotpool.cli import main
from hotpool.io import read_features_csv, read_tensor, write_features_csv, write_matrix_csv, write_tensor
from hotpool.sketch import apply as sketch_apply
from hotpool.sketch import make_plan


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hotpool", *[str(a) for a in args]],
        capture_output=True,
        text=True,
    )


def _write_csv(path, text):
    path.write_text(text)
    return str(path)


def test_pool_single_row_rank_one(tmp_path):
    src = _write_csv(tmp_path / "f.csv", "1.0,2.0,2.0\n")
    out = tmp_path / "t.bin"
    res = run_cli("pool", src, "-r", "2", "--out", out)
    assert res.returncode == 0, res.stderr
    x = np.array([1.0, 2.0, 2.0])
    assert_allclose(read_tensor(str(out)).data, np.outer(x, x), rtol=1e-15)


def test_pool_matches_library(tmp_path):
    rng = np.random.default_rng(7)
    fs = FeatureSet(rng.normal(size=(6, 4)), rng.uniform(0.5, 2.0, size=6))
    src = tmp_path / "f.csv"
    write_features_csv(str(src), fs, include_weights=True)
    out = tmp_path / "t.bin"
    res = run_cli("pool", src, "-r", "3", "--out", out)
    assert res.returncode == 0, res.stderr
    assert_allclose(read_tensor(str(out)).data, pool(fs, 3).data, rtol=1e-12)


def test_pool_center_flag(tmp_path):
    rng = np.random.default_rng(8)
    vecs = rng.normal(size=(5, 3))
    src = tmp_path / "f.csv"
    write_features_csv(str(src), FeatureSet(vecs))
    out = tmp_path / "t.bin"
    res = run_cli("pool", src, "--center", "--out", out)
    assert res.returncode == 0, res.stderr
    want = pool(FeatureSet(vecs, mean=vecs.mean(axis=0)), 3)
    assert_allclose(read_tensor(str(out)).data, want.data, atol=1e-14)


def test_epn_identity_operator(tmp_path):
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    x = (q * rng.uniform(0.2, 0.9, size=4)) @ q.T
    src = tmp_path / "x.bin"
    write_tensor(str(src), DenseTensor(x))
    out = tmp_path / "y.bin"
    res = run_cli("epn", src, "--spec", "gamma:1", "--out", out)
    assert res.returncode == 0, res.stderr
    assert np.max(np.abs(read_tensor(str(out)).data - x)) < 1e-9


def test_epn_order3_matches_library(tmp_path):
    rng = np.random.default_rng(10)
    t = pool(FeatureSet(rng.normal(size=(8, 4))), 3)
    src = tmp_path / "t.bin"
    write_tensor(str(src), t)
    out = tmp_path / "n.bin"
    res = run_cli("epn", src, "--spec", "sigme:6", "--out", out)
    assert res.returncode == 0, res.stderr
    want = reconstruct(apply_epn_core(hosvd_supersym(t), PnSpec("sigme", 6)))
    assert_allclose(read_tensor(str(out)).data, want.data, rtol=1e-10, atol=1e-12)


def test_epn_rejects_spectrum_above_one(tmp_path):
    src = tmp_path / "x.bin"
    write_tensor(str(src), DenseTensor(np.diag([1.5, 0.5])))
    res = run_cli("epn", src, "--spec", "maxexp:4", "--out", tmp_path / "y.bin")
    assert res.returncode == 3
    assert "error:" in res.stderr


def test_epn_ill_separated_grassmann_exits_4(tmp_path):
    src = tmp_path / "x.bin"
    write_tensor(str(src), DenseTensor(np.diag([2.0, 2.0 - 5e-9, 1.0])))
    out = tmp_path / "y.bin"
    res = run_cli("epn", src, "--spec", "grassmann:1", "--out", out)
    assert res.returncode == 4
    assert "separated" in res.stderr
    assert not out.exists()
    # a rank too large for the matrix is still a domain violation
    res = run_cli("epn", src, "--spec", "grassmann:3", "--out", out)
    assert res.returncode == 3


def test_epn_normalize_rejected_for_order3(tmp_path):
    rng = np.random.default_rng(10)
    src = tmp_path / "t.bin"
    write_tensor(str(src), pool(FeatureSet(rng.normal(size=(8, 4))), 3))
    out = tmp_path / "n.bin"
    res = run_cli("epn", src, "--spec", "sigme:6", "--normalize", "--out", out)
    assert res.returncode == 2
    assert "--normalize" in res.stderr
    assert not out.exists()


def test_epn_bad_spec_string(tmp_path):
    src = tmp_path / "x.bin"
    write_tensor(str(src), DenseTensor(np.eye(2)))
    assert run_cli("epn", src, "--spec", "gamma", "--out", tmp_path / "y.bin").returncode == 2
    assert run_cli("epn", src, "--spec", "gamma:abc", "--out", tmp_path / "y.bin").returncode == 2


def test_distance_zero_and_symmetry(tmp_path):
    rng = np.random.default_rng(11)
    ta = pool(FeatureSet(rng.normal(size=(6, 3))), 3)
    tb = pool(FeatureSet(rng.normal(size=(6, 3))), 3)
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    write_tensor(str(pa), ta)
    write_tensor(str(pb), tb)
    same = run_cli("distance", pa, pa)
    assert same.returncode == 0
    assert float(same.stdout) == 0.0
    ab = run_cli("distance", pa, pb)
    ba = run_cli("distance", pb, pa)
    assert ab.stdout == ba.stdout
    assert ab.stdout.strip() == f"{tpe_distance(ta, tb):.12g}"
    assert run_cli("distance", pa, pb, "--metric", "tpe").returncode == 2


@pytest.mark.parametrize("theorem, extra, header, n_rows", [
    pytest.param("2", ("--eta-max", "3"),
                 "eta,t,min_gap,max_gap,window_max_gap,eps1,eps2,window_ok,"
                 "worst_lambda,beyond_one_min_gap", 3, id="2"),
    pytest.param("3", (), "t,gamma,min_gap,max_gap,tangency_gap,tangency_ok,worst_lambda",
                 4, id="3"),
    pytest.param("combined", (), "t,eta,gamma,min_gap,max_gap,worst_lambda", 5, id="combined"),
    pytest.param("4", (), "lambda,t,residual", 19 * 11, id="4"),
    pytest.param("5", (), "lambda_L,t,residual", 15 * 20, id="5"),
])
def test_verify_gamma_bound_passes(tmp_path, theorem, extra, header, n_rows):
    out = tmp_path / "rep"
    res = run_cli("verify", "--theorem", theorem, *extra, "--out", out)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["pass"] is True and doc.get("certified", True) is True
    assert json.loads((tmp_path / "rep.json").read_text()) == doc
    csv_lines = (tmp_path / "rep.csv").read_text().splitlines()
    assert csv_lines[0] == header
    assert len(csv_lines) == 1 + n_rows


def test_verify_gaps_match_library():
    res = run_cli("verify", "--theorem", "gaps", "--eta", "2")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    eps1, eps2 = bound_gaps(2.0)
    assert doc["eps1"] == eps1
    assert doc["eps2"] == eps2


@pytest.mark.parametrize("eta", ["1e8", "1e17", "1e300"])
def test_verify_gaps_ordered_for_huge_eta(capsys, eta):
    assert main(["verify", "--theorem", "gaps", "--eta", eta]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["eps1"] <= doc["eps2"] + 1e-15


@pytest.mark.parametrize("eta", ["inf", "-inf", "nan"])
def test_verify_gaps_non_finite_eta_exits_3(capsys, eta):
    assert main(["verify", "--theorem", "gaps", f"--eta={eta}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: eta must be finite, got {float(eta)}\n"


def test_verify_detuned_coefficients_fail():
    res = run_cli("verify", "--theorem", "2", "--eta-max", "3", "--t-scale", "2")
    assert res.returncode == 1
    assert json.loads(res.stdout)["pass"] is False


def test_verify_ode_reports_pass():
    res = run_cli("verify", "--theorem", "5")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["pass"] is True
    assert doc["max_residual"] <= doc["tolerance"]


def test_gradcheck_eig_value():
    res = run_cli("gradcheck", "--op", "eig_value_grad", "--d", "6")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["pass"] is True
    assert doc["op"] == "eig_value_grad"
    assert doc["d"] == 6 and doc["seed"] == 0
    assert doc["rel_err"] < 1e-6


def test_gradcheck_epn_vjp_with_spec():
    res = run_cli("gradcheck", "--op", "epn_vjp", "--spec", "sigme:4", "--seed", "3")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["pass"] is True
    assert doc["spec"] == "sigme:4"


def test_gradcheck_deterministic_stdout():
    a = run_cli("gradcheck", "--op", "eig_vector_grad", "--seed", "12")
    b = run_cli("gradcheck", "--op", "eig_vector_grad", "--seed", "12")
    assert a.stdout == b.stdout
    assert a.returncode == 0


def test_gradcheck_degenerate_input_exits_4(tmp_path):
    src = tmp_path / "m.csv"
    write_matrix_csv(str(src), np.diag([2.0, 2.0, 1.0]))
    res = run_cli("gradcheck", "--op", "eig_value_grad", "--input", src)
    assert res.returncode == 4
    assert "separated" in res.stderr


def test_gradcheck_epn_vjp_at_a_tie_passes(tmp_path):
    # the eigenvalue map's derivative exists at a repeated eigenvalue
    src = tmp_path / "m.csv"
    write_matrix_csv(str(src), np.diag([0.5, 0.5, 0.1]))
    res = run_cli("gradcheck", "--op", "epn_vjp", "--input", src)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["pass"] is True and doc["d"] == 3


def test_gradcheck_unknown_op():
    res = run_cli("gradcheck", "--op", "nope")
    assert res.returncode == 2
    assert "invalid choice" in res.stderr


@pytest.mark.parametrize("op", ["factor_vjp", "core_grad"])
def test_gradcheck_input_rejected_for_drawn_ops(tmp_path, op):
    src = tmp_path / "m.csv"
    write_matrix_csv(str(src), np.diag([0.9, 0.5, 0.2]))
    res = run_cli("gradcheck", "--op", op, "--input", src, "--d", "3")
    assert res.returncode == 2
    assert "--input" in res.stderr and res.stdout == ""


@pytest.mark.parametrize("op", ["eig_value_grad", "eig_vector_grad", "factor_vjp", "core_grad"])
def test_gradcheck_spec_rejected_off_epn_vjp(op):
    res = run_cli("gradcheck", "--op", op, "--spec", "sigme:4", "--d", "3")
    assert res.returncode == 2
    assert "--spec" in res.stderr and res.stdout == ""


def test_gradcheck_d_range_only_for_draws(tmp_path):
    src = tmp_path / "m.csv"
    write_matrix_csv(str(src), np.diag([0.9, 0.5, 0.2]))
    res = run_cli("gradcheck", "--op", "eig_value_grad", "--input", src, "--d", "40")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["d"] == 3
    res = run_cli("gradcheck", "--op", "eig_value_grad", "--d", "40")
    assert res.returncode == 2
    assert "d must be in 2..32" in res.stderr


_GRADCHECK_THRESHOLDS = {
    "eig_value_grad": 1e-6,
    "eig_vector_grad": 1e-5,
    "epn_vjp": 1e-5,
    "factor_vjp": 1e-4,
    "core_grad": 1e-7,
}


@pytest.mark.parametrize("op", sorted(_GRADCHECK_THRESHOLDS))
def test_gradcheck_json_schema(op):
    res = run_cli("gradcheck", "--op", op, "--d", "5", "--seed", "3")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    keys = {"op", "d", "seed", "rel_err", "threshold", "pass"}
    assert set(doc) == (keys | {"spec"} if op == "epn_vjp" else keys)
    assert doc["op"] == op and doc["d"] == 5 and doc["seed"] == 3
    assert doc["threshold"] == _GRADCHECK_THRESHOLDS[op]
    assert doc["rel_err"] < doc["threshold"]
    assert doc["pass"] is True
    if op == "epn_vjp":
        assert doc["spec"] == "sigme:4"


@pytest.mark.parametrize("d", [2, 3, 32])
@pytest.mark.parametrize("op", sorted(_GRADCHECK_THRESHOLDS))
def test_gradcheck_every_op_and_d_exits_cleanly(op, d):
    res = run_cli("gradcheck", "--op", op, "--d", d)
    assert res.returncode in (0, 1, 2), res.stderr
    assert "Traceback" not in res.stderr
    if op == "core_grad" and d == 2:
        assert res.returncode == 2 and res.stdout == ""
        assert "d must be in 3..32, got 2" in res.stderr


def test_figure_fig2_rows(tmp_path):
    out = tmp_path / "fig2.csv"
    res = run_cli("figure", "--which", "fig2", "--out", out)
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,gamma,maxexp,asinhe,sigme,hdp"
    assert len(lines) == 1 + 2001
    assert lines[1 + 1000] == "0.0,0.0,0.0,0.0,0.0,0.0"
    first = lines[1].split(",")
    assert first[0] == "-1.0"
    # even-extension columns are blank on the negative half axis
    assert first[1] == "" and first[2] == "" and first[5] == ""
    assert float(first[3]) == pytest.approx(-np.arcsinh(1.0), rel=1e-15)
    assert float(first[4]) < -0.999999


def _is_repr_float(cell: str) -> bool:
    return cell == repr(float(cell))


def test_report_and_figure_csv_cells(tmp_path, capsys):
    # one dialect: \n-ended rows, repr floats, empty for missing, true/false
    fig2 = tmp_path / "fig2.csv"
    assert main(["figure", "--which", "fig2", "--out", str(fig2)]) == 0
    blob = fig2.read_bytes()
    assert blob.endswith(b"\n") and b"\r" not in blob
    lines = blob.decode().split("\n")
    assert lines[0] == "lambda,gamma,maxexp,asinhe,sigme,hdp"
    lam, gamma, maxexp, asinhe, sigme, hdp = lines[1].split(",")
    assert (lam, gamma, maxexp, hdp) == ("-1.0", "", "", "")
    assert _is_repr_float(asinhe) and _is_repr_float(sigme)
    assert lines[1 + 1000] == "0.0,0.0,0.0,0.0,0.0,0.0"

    for theorem, extra, flag in (("2", ["--eta-max", "1"], "true"),
                                 ("3", ["--t-scale", "1.1"], "false")):
        prefix = tmp_path / f"rep{theorem}"
        main(["verify", "--theorem", theorem, *extra, "--out", str(prefix)])
        blob = (tmp_path / f"rep{theorem}.csv").read_bytes()
        assert blob.endswith(b"\n") and b"\r" not in blob
        header, first = blob.decode().split("\n")[:2]
        cells = dict(zip(header.split(","), first.split(",")))
        ok_key = "window_ok" if theorem == "2" else "tangency_ok"
        assert cells.pop(ok_key) == flag
        assert all(_is_repr_float(c) for c in cells.values())
    assert cells["t"] == repr(0.05 / 1.1)
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "2", "--eta-max", "0"],
    ["verify", "--theorem", "2", "--eta-max", "-1"],
    ["figure", "--which", "fig1", "--n", "0"],
    ["figure", "--which", "fig1", "--n", "-5"],
    ["figure", "--which", "fig4b", "--theta-step", "0"],
    ["figure", "--which", "fig4b", "--theta-step", "-1"],
    ["figure", "--which", "fig4b", "--theta-step", "nan"],
    ["figure", "--which", "fig4b", "--theta-step", "inf"],
    ["figure", "--which", "fig4b", "--theta-step", "2"],
    ["verify", "--theorem", "3", "--lam-step", "1e-300"],
    ["figure", "--which", "fig4b", "--theta-step", "1e-300"],
    ["figure", "--which", "fig1", "--n", "100000000000000000000"],
], ids=" ".join)
def test_empty_or_invalid_grids_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "fig.csv"
    if argv[0] == "figure":
        argv = [*argv, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out.exists()


def test_figure_fig1_bins_beyond_the_grid_cap_exit_2(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    tracemalloc.start()
    try:
        code = main(["figure", "--which", "fig1", "--bins", "10000001", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: bins must be at most 10000000, got 10000001\n"
    assert not out.exists()
    assert peak < 8 * 10**6  # the 10^5 default samples; the refused edges alone are 80 MB


def test_figure_fig1_checks_bins_before_drawing(tmp_path, capsys):
    """A refused --bins costs none of the --n samples (16 MB at --n 10^6 if drawn first)."""
    out = tmp_path / "fig1.csv"
    tracemalloc.start()
    try:
        code = main(["figure", "--which", "fig1", "--n", "1000000", "--bins", "10000001",
                     "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: bins must be at most 10000000, got 10000001\n"
    assert not out.exists()
    assert peak < 10**6


@pytest.mark.parametrize("theorem", ["4", "5"])
def test_verify_ode_non_finite_scale_exits_3(capsys, theorem):
    assert main(["verify", "--theorem", theorem, "--t-scale", "nan"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "coefficient scale must be finite" in captured.err


def test_figure_fig4b_peak_and_endpoints(tmp_path):
    out = tmp_path / "fig4b.csv"
    res = run_cli("figure", "--which", "fig4b", "--out", out)
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,response"
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[0][1]) == 0.0
    # the right endpoint is the float nearest pi/2, where cos is ~6e-17
    # rather than 0, so the response is ~2e-15 rather than exactly zero
    assert abs(float(rows[-1][1])) < 1e-12
    mid = rows[(len(rows) - 1) // 2]
    assert float(mid[0]) == pytest.approx(np.pi / 4, rel=1e-12)
    assert float(mid[1]) == 1.0


@pytest.mark.parametrize("flag, name", [("--kappa", "kappa"), ("--eta", "eta")])
def test_figure_fig4b_infinite_parameter_exits_3(tmp_path, flag, name):
    out = tmp_path / "fig4b.csv"
    res = run_cli("figure", "--which", "fig4b", "--theta-step", "0.01", flag, "inf",
                  "--out", out)
    assert res.returncode == 3
    assert res.stdout == ""
    # the whole of stderr: no RuntimeWarning from computing with inf
    assert res.stderr == f"error: {name} must be finite, got inf\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--which", "fig4b", "--theta-step", repr(np.pi / 2 / 99_999)],
    ["--which", "fig1", "--n", "1000", "--bins", "10000"],
    ["--which", "fig2"],
])
def test_figure_array_rows_write_the_list_path_bytes(tmp_path, capsys, argv):
    """The figure rows go to write_csv as one array; the file is the one the
    former list of numpy-scalar rows gave: for fig1 and fig4b a float64
    array, across several of write_csv's row blocks, and for fig2 an object
    array whose NaN cells (outside an operator's domain) are None."""
    args = cli.build_parser().parse_args(["figure", *argv, "--out", str(tmp_path / "a.csv")])
    builders = {"fig1": cli._figure_fig1, "fig2": cli._figure_fig2, "fig4b": cli._figure_fig4b}
    header, rows, (xs, series), _ = builders[args.which](args)
    if args.which == "fig2":
        assert rows.dtype == object and rows.shape == (2001, 6)
        want = [[x] + [None if np.isnan(ys[k]) else ys[k] for _, ys in series]
                for k, x in enumerate(xs)]
        assert sum(row.count(None) for row in want) == 3000  # gamma, maxexp, hdp below 0
    else:
        assert rows.dtype == np.float64 and rows.shape[0] > 2 * io._CSV_BLOCK
        want = [list(row) for row in rows]
    io.write_csv(tmp_path / "list.csv", header, want)
    assert main(["figure", *argv, "--out", str(tmp_path / "a.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()


def test_figure_fig4b_peak_memory_per_point(tmp_path, capsys):
    """10^5 points stay under 64 bytes each (the list path held about 150)."""
    argv = ["figure", "--which", "fig4b", "--theta-step", repr(np.pi / 2 / 99_999),
            "--out", str(tmp_path / "a.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "a.csv").read_text().splitlines()) == 100_001
    assert peak < 64 * 100_000


def test_figure_fig1_top_bin(tmp_path):
    out = tmp_path / "fig1.csv"
    res = run_cli("figure", "--which", "fig1", "--n", "20000", "--out", out)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout[: res.stdout.rindex("}") + 1])
    assert doc["top_bin_maxexp"] >= 0.8
    assert out.read_text().splitlines()[0] == "bin_low,bin_high,maxexp_mass,hdp_mass"


def test_figure_svg_reruns_identical(tmp_path):
    out, svg = tmp_path / "d.csv", tmp_path / "d.svg"
    first = run_cli("figure", "--which", "fig2", "--out", out, "--svg", svg)
    assert first.returncode == 0, first.stderr
    blob = svg.read_bytes()
    assert blob.startswith(b"<svg")
    run_cli("figure", "--which", "fig2", "--out", out, "--svg", svg)
    assert svg.read_bytes() == blob


def test_sketch_identity_width(tmp_path):
    rng = np.random.default_rng(13)
    fs = FeatureSet(rng.normal(size=(5, 6)))
    src = tmp_path / "f.csv"
    write_features_csv(str(src), fs)
    out = tmp_path / "s.csv"
    res = run_cli("sketch", src, "--dprime", "6", "--seed", "2", "--out", out)
    assert res.returncode == 0, res.stderr
    got = read_features_csv(str(out))
    plan = make_plan(6, 6, 2)
    want = np.stack([sketch_apply(plan, row) for row in fs.vectors])
    assert_allclose(got.vectors, want, rtol=1e-15)
    assert (tmp_path / "s.csv.plan.json").exists()


def test_sketch_empty_csv_exits_2(tmp_path):
    src = _write_csv(tmp_path / "e.csv", "")
    res = run_cli("sketch", src, "--dprime", "2", "--out", tmp_path / "s.csv")
    assert res.returncode == 2


@pytest.mark.parametrize("argv", [["pool", "bad.csv", "-r", "2", "--out", "t.hotp"],
                                  ["gradcheck", "--op", "epn_vjp", "--input", "bad.csv"]])
def test_csv_not_valid_text_exits_2(tmp_path, capsys, monkeypatch, argv):
    (tmp_path / "bad.csv").write_bytes(b"a,b\n1,2\n\xff,3\n")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: bad.csv: byte 8 is not valid ")


def test_csv_cell_over_field_limit_exits_2(tmp_path, capsys):
    # a quoted cell takes the csv-module row parser, which caps cell length
    src = _write_csv(tmp_path / "big.csv", 'a,b\n"' + "1" * 140_000 + '",2\n')
    assert main(["pool", src, "-r", "2", "--out", str(tmp_path / "t.hotp")]) == 2
    assert capsys.readouterr().err == (
        f"error: {src}: line 2: field larger than field limit (131072)\n")


def test_sketch_plan_rerun_identical(tmp_path):
    rng = np.random.default_rng(14)
    src = tmp_path / "f.csv"
    write_features_csv(str(src), FeatureSet(rng.normal(size=(4, 8))))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    res = run_cli("sketch", src, "--dprime", "3", "--seed", "5", "--out", out1)
    assert res.returncode == 0, res.stderr
    plan_path = tmp_path / "a.csv.plan.json"
    res2 = run_cli("sketch", src, "--plan", plan_path, "--out", out2)
    assert res2.returncode == 0, res2.stderr
    assert out1.read_bytes() == out2.read_bytes()


def test_sketch_plan_dim_mismatch(tmp_path):
    rng = np.random.default_rng(15)
    src = tmp_path / "f.csv"
    write_features_csv(str(src), FeatureSet(rng.normal(size=(4, 8))))
    plan_path = tmp_path / "p.json"
    plan_path.write_text(
        json.dumps({"d": 5, "d_prime": 2, "seed": 1, "rng_name": "philox4x64"})
    )
    res = run_cli("sketch", src, "--plan", plan_path, "--out", tmp_path / "s.csv")
    assert res.returncode == 2
    assert "does not match" in res.stderr


def test_sketch_plan_dim_checked_before_drawing(tmp_path, capsys, monkeypatch):
    src = _write_csv(tmp_path / "f.csv", "1,2,3\n4,5,6\n")
    plan_path = tmp_path / "p.json"
    plan_path.write_text(
        json.dumps({"d": 10**13, "d_prime": 2, "seed": 0, "rng_name": "philox4x64"})
    )

    def no_draw(*args):
        raise AssertionError(f"plan drawn before the dimension check: {args}")

    # drawing this plan would allocate 10^13 buckets
    monkeypatch.setattr("hotpool.sketch.make_plan", no_draw)
    out = tmp_path / "s.csv"
    assert main(["sketch", src, "--plan", str(plan_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: plan input dim 10000000000000 does not match CSV dim 3\n"
    assert not out.exists()


def test_missing_input_file_exits_2(tmp_path):
    res = run_cli("pool", tmp_path / "absent.csv", "--out", tmp_path / "t.bin")
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_epn_order4_matches_library(tmp_path, capsys):
    rng = np.random.default_rng(16)
    t = pool(FeatureSet(rng.normal(size=(6, 3))), 4)
    src, out, want = tmp_path / "t.bin", tmp_path / "y.bin", tmp_path / "want.bin"
    write_tensor(str(src), t)
    assert main(["epn", str(src), "--spec", "sigme:6", "--out", str(out)]) == 0
    write_tensor(str(want), reconstruct(apply_epn_core(hosvd_supersym(t), PnSpec("sigme", 6))))
    assert out.read_bytes() == want.read_bytes()
    # every pointwise kind normalizes the core, gamma through the signed power map
    assert main(["epn", str(src), "--spec", "gamma:0.5", "--out", str(out)]) == 0
    write_tensor(str(want), reconstruct(apply_epn_core(hosvd_supersym(t), PnSpec("gamma", 0.5))))
    assert out.read_bytes() == want.read_bytes()
    write_tensor(str(src), DenseTensor(np.array([1.0, 2.0])))
    assert main(["epn", str(src), "--spec", "sigme:6", "--out", str(out)]) == 2
    assert "hosvd needs order >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("r", [3, 4])
@pytest.mark.parametrize("kind, param", [("gamma", 0.5), ("asinhe", 0.9), ("hdp", 0.2)])
def test_epn_maps_the_even_and_unbounded_kinds_at_orders_3_and_4(tmp_path, r, kind, param):
    t = pool(FeatureSet(np.random.default_rng(17).normal(size=(40, 5))), r)
    src, out, want = tmp_path / "t.bin", tmp_path / "y.bin", tmp_path / "want.bin"
    write_tensor(str(src), t)
    assert main(["epn", str(src), "--spec", f"{kind}:{param}", "--out", str(out)]) == 0
    write_tensor(str(want), reconstruct(apply_epn_core(hosvd_supersym(t), PnSpec(kind, param))))
    assert out.read_bytes() == want.read_bytes()


def test_epn_refuses_grassmann_on_a_core(tmp_path, capsys):
    src, out = tmp_path / "t.bin", tmp_path / "y.bin"
    write_tensor(str(src), pool(FeatureSet(np.random.default_rng(18).normal(size=(40, 5))), 3))
    assert main(["epn", str(src), "--spec", "grassmann:2", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: grassmann is a subspace projector, not a pointwise map\n")
    assert not out.exists()


class _Collision(DegenerateSpectrumError):
    pass


@pytest.mark.parametrize("error, code", [
    (InputError, 2), (DomainError, 3), (DegenerateSpectrumError, 4), (_Collision, 4),
    (FileNotFoundError, 2),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_each_error_class_reaches_its_exit_code(capsys, monkeypatch, error, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_distance", fail)
    assert main(["distance", "a.bin", "b.bin"]) == code
    assert capsys.readouterr().err == "error: boom\n"


def test_error_classes_carry_their_exit_codes():
    assert (InputError.exit_code, DomainError.exit_code, DegenerateSpectrumError.exit_code) == (2, 3, 4)


@pytest.mark.parametrize("step", ["1e-20", "1e-30"])
def test_fine_lam_step_exits_2_without_hanging(step):
    # with t(eta) / step far past 2**53, stepping the grid's first index one by
    # one barely moves its float product: at 1e-30 that search never ended
    res = subprocess.run(
        [sys.executable, "-m", "hotpool", "verify", "--theorem", "2", "--eta-max", "3",
         "--lam-step", step],
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 2
    assert res.stderr.startswith(f"error: lambda step {step}")
