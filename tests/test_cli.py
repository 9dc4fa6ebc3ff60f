import json
import math

import numpy as np
import pytest

from ionqpt.cli import main
from ionqpt.ionsim import NoiseModel, ShotDataset
from ionqpt.process import load_chi, save_chi, unitary_to_chi
from ionqpt.qmath import matrix_exponential, two_qubit_pauli_basis

_XX = two_qubit_pauli_basis()[5]


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_dataset_and_summary(tmp_path, capsys):
    out = str(tmp_path / "ms.json")
    assert run("simulate", "--process", "ms", "--noise", "none",
               "--shots", "30", "--seed", "42", "-o", out) == 0
    ds = ShotDataset.load(out)
    assert ds.plan.n_sequences == 256
    assert ds.plan.shots_per_sequence == 30
    captured = capsys.readouterr().out
    assert "256 sequences" in captured
    assert captured.count("prep=meas=") == 16


def test_simulate_same_seed_byte_identical(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    for out in (a, b):
        assert run("simulate", "--process", "identity", "--noise", "none",
                   "--shots", "20", "--seed", "7", "-o", out) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_simulate_noise_file(tmp_path):
    noise_path = str(tmp_path / "noise.json")
    with open(noise_path, "w") as fh:
        json.dump({"drift_hz_per_min": 0.0, "fast_freq_sigma_hz": 0.0,
                   "phase_diffusion_rad_per_sqrt_us": 0.0,
                   "phi_p_error_mrad": -145.0,
                   "scaling_phase_error_mrad_ion2": 155.0,
                   "pulse_area_fractional_error": 0.0}, fh)
    out = str(tmp_path / "ds.json")
    assert run("simulate", "--process", "identity", "--noise", noise_path,
               "--shots", "10", "--seed", "1", "-o", out) == 0
    assert ShotDataset.load(out).noise.phi_p_error_mrad == -145.0


def test_simulate_bad_noise_file_exit_2(tmp_path):
    out = str(tmp_path / "ds.json")
    assert run("simulate", "--process", "identity", "--noise",
               str(tmp_path / "missing.json"), "--shots", "10",
               "--seed", "1", "-o", out) == 2


@pytest.mark.parametrize("field,value", [
    ("drift_hz_per_min", float("nan")),
    ("phase_diffusion_rad_per_sqrt_us", float("inf")),
    ("pulse_area_fractional_error", -1.0),
])
def test_simulate_out_of_range_noise_exit_2(tmp_path, capsys, field, value):
    doc = NoiseModel.paper_study().to_dict()
    doc[field] = value
    noise_path = str(tmp_path / "noise.json")
    with open(noise_path, "w") as fh:
        json.dump(doc, fh)
    out = str(tmp_path / "ds.json")
    assert run("simulate", "--process", "identity", "--noise", noise_path,
               "--shots", "10", "--seed", "1", "-o", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "ms.json")
    assert run("simulate", "--process", "ms", "--noise", "none",
               "--shots", "60", "--seed", "3", "-o", path) == 0
    return path


def test_reconstruct_inversion(small_dataset, tmp_path):
    out = str(tmp_path / "chi.json")
    assert run("reconstruct", small_dataset, "--method", "inversion",
               "-o", out) == 0
    chi = load_chi(out, validate=False)
    assert chi.chi.shape == (16, 16)
    diag = json.load(open(out + ".diagnostics.json"))
    assert diag["method"] == "inversion"
    # sampling noise makes raw inversion unphysical; exit stays 0
    assert diag["min_eigenvalue"] < 0.0
    assert diag["physical"] is False


def test_reconstruct_mle_and_warning_exit(small_dataset, tmp_path):
    out = str(tmp_path / "chi.json")
    assert run("reconstruct", small_dataset, "-o", out) == 0
    diag = json.load(open(out + ".diagnostics.json"))
    assert diag["method"] == "mle"
    assert diag["converged"] is True
    # a tiny iteration budget cannot converge: exit code 1, file still written
    out2 = str(tmp_path / "chi2.json")
    assert run("reconstruct", small_dataset, "--max-iterations", "5",
               "-o", out2) == 1
    assert json.load(open(out2 + ".diagnostics.json"))["converged"] is False


def test_reconstruct_missing_dataset_exit_2(tmp_path):
    assert run("reconstruct", str(tmp_path / "nope.json"),
               "-o", str(tmp_path / "chi.json")) == 2


def test_reconstruct_zero_iterations_exit_2(small_dataset, tmp_path, capsys):
    assert run("reconstruct", small_dataset, "--max-iterations", "0",
               "-o", str(tmp_path / "chi.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_ideal_ms(tmp_path, capsys):
    chi_path = str(tmp_path / "chi.json")
    save_chi(chi_path, unitary_to_chi(matrix_exponential(_XX, math.pi / 4)))
    prefix = str(tmp_path / "rep")
    assert run("report", chi_path, "--ideal", "ms", "-o", prefix) == 0
    out = capsys.readouterr().out
    assert "F_p = 1.000000" in out
    re_csv = open(prefix + "_re.csv").read().splitlines()
    assert re_csv[0].startswith(",II,IX")
    assert len(re_csv) == 17
    assert re_csv[1].startswith("II,")


def test_report_over_rotated(tmp_path, capsys):
    chi_path = str(tmp_path / "chi.json")
    save_chi(chi_path, unitary_to_chi(matrix_exponential(_XX, 1.04)))
    prefix = str(tmp_path / "rep")
    assert run("report", chi_path, "--ideal", "ms", "-o", prefix) == 0
    out = capsys.readouterr().out
    assert "theta+ = 1.04" in out
    # error-process CSV: largest off-II imaginary amplitudes at XX-II / II-XX
    im = np.genfromtxt(prefix + "_error_im.csv", delimiter=",",
                       skip_header=1)[:, 1:]
    off = np.abs(im.copy())
    off[0, 0] = 0.0
    peaks = {tuple(idx) for idx in
             np.argwhere(off > 0.99 * off.max())}
    assert peaks == {(0, 5), (5, 0)}


def test_report_unconverged_bootstrap_warns(small_dataset, tmp_path, capsys,
                                            monkeypatch):
    import ionqpt.cli
    from ionqpt.recon import MleConfig, bootstrap_fidelity

    def short_budget(dataset, config, *args, **kwargs):
        return bootstrap_fidelity(dataset, MleConfig(max_iterations=5),
                                  *args, **kwargs)

    monkeypatch.setattr(ionqpt.cli, "bootstrap_fidelity", short_budget)
    chi_path = str(tmp_path / "chi.json")
    save_chi(chi_path, unitary_to_chi(matrix_exponential(_XX, math.pi / 4)))
    assert run("report", chi_path, "--ideal", "ms", "--dataset",
               small_dataset, "--replicas", "2",
               "-o", str(tmp_path / "rep")) == 1
    assert "2 of 2 bootstrap replicas" in capsys.readouterr().err


def test_report_missing_chi_exit_2(tmp_path):
    assert run("report", str(tmp_path / "nope.json"),
               "-o", str(tmp_path / "rep")) == 2


# ---------------------------------------------------------------------------
# bell
# ---------------------------------------------------------------------------

def test_bell_ideal_ms(tmp_path):
    out = str(tmp_path / "bell.json")
    assert run("bell", "--process", "ms", "--shots", "4800",
               "--seed", "0", "-o", out) == 0
    doc = json.load(open(out))
    assert doc["bell_state_fidelity"] > 0.98


def test_bell_over_rotated(tmp_path):
    out = str(tmp_path / "bell.json")
    assert run("bell", "--process", "ms_plus", "--theta", "1.04",
               "--shots", "0", "--seed", "0", "-o", out) == 0
    doc = json.load(open(out))
    expected = 0.5 * (1.0 + math.sin(2 * 1.04))
    assert abs(doc["bell_state_fidelity"] - expected) < 1e-6


def test_bell_rejects_non_entangling(tmp_path):
    assert run("bell", "--process", "identity",
               "-o", str(tmp_path / "bell.json")) == 2


# ---------------------------------------------------------------------------
# ramsey
# ---------------------------------------------------------------------------

def test_ramsey_with_fit(tmp_path, capsys):
    out = str(tmp_path / "ramsey.csv")
    assert run("ramsey", "--delays", "20,60,120,240,480",
               "--noise", "default", "--shots", "20000", "--seed", "2",
               "--fit", "-o", out) == 0
    fit = json.load(open(out + ".fit.json"))
    assert abs(fit["phase_diffusion_rad_per_sqrt_us"] - 0.015) / 0.015 < 0.2
    lines = open(out).read().splitlines()
    assert lines[0] == "delay_us,contrast"
    assert len(lines) == 6


def test_ramsey_bad_delays_exit_2(tmp_path):
    assert run("ramsey", "--delays", "20,sixty",
               "-o", str(tmp_path / "r.csv")) == 2


# ---------------------------------------------------------------------------
# heating
# ---------------------------------------------------------------------------

def test_heating_round_trip(tmp_path):
    from ionqpt.analysis import (
        MotionalOccupation,
        sideband_rabi_signal,
        write_series_csv,
    )

    omega = 2 * math.pi * 250e3
    t = np.linspace(2.0, 600.0, 1200)
    occ = MotionalOccupation(n_th=3.5, n_coh=0.1, rabi_omega=omega, eta=0.039)
    rng = np.random.default_rng(273)
    y = sideband_rabi_signal(occ, t) + 0.02 * rng.standard_normal(len(t))
    csv_path = str(tmp_path / "sb.csv")
    write_series_csv(csv_path, t, y, header=("time_us", "signal"))
    out = str(tmp_path / "heat.json")
    assert run("heating", csv_path, "--eta", "0.039", "-o", out) == 0
    doc = json.load(open(out))
    assert abs(doc["n_th"] - 3.5) / 3.5 < 0.1
    assert abs(doc["n_coh"] - 0.1) / 0.1 < 0.1


def test_heating_missing_file_exit_2(tmp_path):
    assert run("heating", str(tmp_path / "missing.csv"),
               "-o", str(tmp_path / "h.json")) == 2
