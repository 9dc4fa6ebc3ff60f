import json
import math

import numpy as np
import pytest

from ionqpt.cli import main
from ionqpt.ionsim import (
    NoiseModel,
    ProcessSpec,
    ShotDataset,
    dataset_from_probabilities,
    plan_for_process,
)
from ionqpt.process import (
    chi_to_json_dict,
    load_chi,
    save_chi,
    unitary_to_chi,
)
from ionqpt.protocol import forward_p2
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


def test_reconstruct_same_dataset_byte_identical(tmp_path):
    data = str(tmp_path / "ds.json")
    assert run("simulate", "--process", "identity", "--noise", "paper",
               "--shots", "20", "--seed", "7", "-o", data) == 0
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    for out in (a, b):
        assert run("reconstruct", data, "-o", out) == 0
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


# The two finite values of 1e308 overflow the laser phase on the plan; the
# NaN amplitudes would read as dark shots.
@pytest.mark.parametrize("field,value", [
    ("drift_hz_per_min", float("nan")),
    ("phase_diffusion_rad_per_sqrt_us", float("inf")),
    ("pulse_area_fractional_error", -1.0),
    ("drift_hz_per_min", 1e308),
    ("fast_freq_sigma_hz", 1e308),
])
def test_simulate_out_of_range_noise_exit_2(tmp_path, capsys, field, value):
    doc = NoiseModel.paper_study().to_dict()
    doc[field] = value
    noise_path = str(tmp_path / "noise.json")
    with open(noise_path, "w") as fh:
        json.dump(doc, fh)
    out = tmp_path / "ds.json"
    assert run("simulate", "--process", "identity", "--noise", noise_path,
               "--shots", "10", "--seed", "1", "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_simulate_boolean_noise_value_exit_2(tmp_path, capsys):
    # JSON true is not the number 1.
    noise_path = tmp_path / "noise.json"
    noise_path.write_text('{"fast_freq_sigma_hz": true}')
    out = tmp_path / "ds.json"
    assert run("simulate", "--process", "identity", "--noise", str(noise_path),
               "--shots", "2", "--seed", "1", "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "fast_freq_sigma_hz" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--theta", "nan"),
    ("--theta", "inf"),
    ("--seed", "-1"),
])
def test_simulate_bad_theta_or_seed_exit_2(tmp_path, capsys, flag, value):
    argv = {"--theta": "1.04", "--seed": "1"}
    argv[flag] = value
    out = str(tmp_path / "ds.json")
    assert run("simulate", "--process", "ms_plus", "--theta", argv["--theta"],
               "--noise", "none", "--shots", "2", "--seed", argv["--seed"],
               "-o", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["bell", "--process", "ms"],
    ["ramsey", "--delays", "20,60", "--shots", "10"],
])
def test_negative_seed_exit_2(tmp_path, capsys, command):
    out = str(tmp_path / "out")
    assert run(*command, "--seed", "-3", "-o", out) == 2
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


def test_reconstruct_mle_and_warning_exit(small_dataset, tmp_path, capsys):
    out = str(tmp_path / "chi.json")
    assert run("reconstruct", small_dataset, "-o", out) == 0
    diag = json.load(open(out + ".diagnostics.json"))
    assert diag["method"] == "mle"
    assert diag["converged"] is True
    assert diag["stop_reason"] == "gap"
    assert 0.0 <= diag["gap"] <= diag["gap_tolerance"] == 1e-3
    # a tiny iteration budget cannot converge: exit code 1, file still written
    out2 = str(tmp_path / "chi2.json")
    assert run("reconstruct", small_dataset, "--max-iterations", "5",
               "-o", out2) == 1
    diag2 = json.load(open(out2 + ".diagnostics.json"))
    assert diag2["converged"] is False
    assert diag2["stop_reason"] == "budget"
    assert diag2["gap"] > diag2["gap_tolerance"]
    err = capsys.readouterr().err
    assert f"duality gap {diag2['gap']:.3g} > tolerance 0.001" in err


def test_reconstruct_missing_dataset_exit_2(tmp_path):
    assert run("reconstruct", str(tmp_path / "nope.json"),
               "-o", str(tmp_path / "chi.json")) == 2


def test_reconstruct_zero_iterations_exit_2(small_dataset, tmp_path, capsys):
    assert run("reconstruct", small_dataset, "--max-iterations", "0",
               "-o", str(tmp_path / "chi.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("timing", [
    {"composite_block_us": 25.0, "dead_time_us": 1.0},
    [25.0, 8.0, 0.0, 10.0],
    {"shot_overhead_ms": float("nan")},
], ids=["unknown-key", "not-a-mapping", "nan"])
def test_reconstruct_bad_timing_exit_2(small_dataset, tmp_path, capsys,
                                       timing):
    with open(small_dataset) as fh:
        doc = json.load(fh)
    doc["meta"]["timing"] = timing
    path = str(tmp_path / "bad_timing.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert run("reconstruct", path, "-o", str(tmp_path / "chi.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


# Each edit changes the dataset document in place, or returns a replacement.
@pytest.mark.parametrize("edit", [
    lambda doc: doc["meta"]["noise"].update(bogus=1.0),
    lambda doc: doc["meta"]["process"].update(bogus=1.0),
    lambda doc: doc["meta"].update(noise=[7.0, 300.0]),
    lambda doc: [doc],
    lambda doc: doc["records"].__setitem__(0, [0, 10.0]),
    lambda doc: doc["meta"]["noise"].update(drift_hz_per_min="x"),
    lambda doc: doc["meta"]["process"].pop("label") and None,
    lambda doc: doc["meta"].update(shots=60.7),
    lambda doc: doc["records"][0].update(n2="32.0"),
    lambda doc: doc["meta"]["timing"].update(shot_overhead_ms=-1.0),
    lambda doc: doc["meta"]["timing"].update(process_duration_us=-50.0),
    lambda doc: doc["meta"]["timing"].update(process_duration_us=50.0),
    lambda doc: doc["meta"]["timing"].update(shot_overhead_ms=True),
    lambda doc: doc["meta"]["process"].update(theta=True),
    lambda doc: doc["records"].pop(17) and None,
    lambda doc: doc["records"].append(dict(doc["records"][16])),
], ids=["noise-unknown-key", "process-unknown-key", "noise-not-a-mapping",
        "top-level-list", "record-not-a-mapping", "noise-value-not-a-number",
        "process-without-label", "shots-not-an-integer", "count-a-string",
        "negative-shot-period", "negative-process-window", "window-mismatch",
        "timing-value-a-boolean", "process-value-a-boolean", "missing-k",
        "repeated-k"])
def test_reconstruct_bad_meta_block_exit_2(small_dataset, tmp_path, capsys,
                                           edit):
    with open(small_dataset) as fh:
        doc = json.load(fh)
    doc = edit(doc) or doc
    path = str(tmp_path / "bad_meta.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert run("reconstruct", path, "--method", "inversion",
               "-o", str(tmp_path / "chi.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_reconstruct_dataset_without_process_exit_2(small_dataset, tmp_path,
                                                   capsys):
    # The label alone would load the label's class defaults, a 120 us window
    # and theta pi/4, whatever the dataset ran.
    with open(small_dataset) as fh:
        doc = json.load(fh)
    del doc["meta"]["process"]
    assert "process_label" in doc["meta"]
    path = str(tmp_path / "no_process.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert run("reconstruct", path, "-o", str(tmp_path / "chi.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "meta.process" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "chi.json").exists()


def _edited_dataset(small_dataset, tmp_path, edit_record) -> str:
    with open(small_dataset) as fh:
        doc = json.load(fh)
    for rec in doc["records"]:
        edit_record(rec)
    path = str(tmp_path / "edited.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _assert_one_error_line(capsys):
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    return out, err


def test_reconstruct_inversion_zero_trace_exit_2(small_dataset, tmp_path,
                                                 capsys):
    # With every n2 = 0 the 16 sequences that set the raw trace have no
    # counts, and the trace is zero.
    path = _edited_dataset(small_dataset, tmp_path, lambda rec: rec.update(
        n0=rec["n0"] + rec["n2"], n2=0))
    out = tmp_path / "chi.json"
    assert run("reconstruct", path, "--method", "inversion",
               "-o", str(out)) == 2
    assert "zero trace" in _assert_one_error_line(capsys)[1]
    assert not out.exists()
    assert not (tmp_path / "chi.json.diagnostics.json").exists()


@pytest.mark.parametrize("drop", ["n0", "n1"])
def test_reconstruct_counts_above_shots_exit_2(small_dataset, tmp_path,
                                               capsys, drop):
    # n2 + n1 (or n2 + n0) of 61 at 60 shots, with the third count absent
    def edit(rec):
        kept = "n1" if drop == "n0" else "n0"
        rec[kept] = 60 - rec["n2"] + (rec["k"] == 5)
        del rec[drop]

    path = _edited_dataset(small_dataset, tmp_path, edit)
    out = tmp_path / "chi.json"
    assert run("reconstruct", path, "--method", "inversion",
               "-o", str(out)) == 2
    assert "at most shots" in _assert_one_error_line(capsys)[1]
    assert not out.exists()


def test_reconstruct_accepts_integral_float_shots(small_dataset, tmp_path):
    with open(small_dataset) as fh:
        doc = json.load(fh)
    doc["meta"]["shots"] = 60.0
    path = str(tmp_path / "float_shots.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert run("reconstruct", path, "--method", "inversion",
               "-o", str(tmp_path / "chi.json")) == 0


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
    from ionqpt.recon import bootstrap_fidelity

    def short_budget(dataset, max_iterations, *args, **kwargs):
        return bootstrap_fidelity(dataset, 5, *args, **kwargs)

    monkeypatch.setattr(ionqpt.cli, "bootstrap_fidelity", short_budget)
    chi_path = str(tmp_path / "chi.json")
    save_chi(chi_path, unitary_to_chi(matrix_exponential(_XX, math.pi / 4)))
    assert run("report", chi_path, "--ideal", "ms", "--dataset",
               small_dataset, "--replicas", "2",
               "-o", str(tmp_path / "rep")) == 1
    assert "2 of 2 bootstrap replicas" in capsys.readouterr().err


@pytest.mark.parametrize("replicas", ["1", "0", "-3"])
def test_report_too_few_replicas_exit_2_before_any_work(small_dataset,
                                                        tmp_path, capsys,
                                                        replicas):
    chi_path = str(tmp_path / "chi.json")
    save_chi(chi_path, unitary_to_chi(matrix_exponential(_XX, math.pi / 4)))
    prefix = str(tmp_path / "rep")
    assert run("report", chi_path, "--ideal", "ms", "--dataset",
               small_dataset, "--replicas", replicas, "-o", prefix) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "--replicas" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "rep_re.csv").exists()


def _write_nan_chi(path: str) -> None:
    doc = chi_to_json_dict(unitary_to_chi(matrix_exponential(_XX, 1.04)))
    doc["re"][0][0] = float("nan")
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_report_non_finite_chi_exit_2(tmp_path, capsys):
    chi_path = str(tmp_path / "chi.json")
    _write_nan_chi(chi_path)
    assert run("report", chi_path, "-o", str(tmp_path / "rep")) == 2
    out, err = _assert_one_error_line(capsys)
    assert out == "" and "non-finite" in err
    assert not (tmp_path / "rep_re.csv").exists()


def test_report_missing_chi_exit_2(tmp_path):
    assert run("report", str(tmp_path / "nope.json"),
               "-o", str(tmp_path / "rep")) == 2


def test_report_chi_not_a_mapping_exit_2(tmp_path, capsys):
    chi_path = str(tmp_path / "chi.json")
    with open(chi_path, "w") as fh:
        json.dump([1, 2], fh)
    assert run("report", chi_path, "-o", str(tmp_path / "rep")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def _first_entry(entry):
    return lambda rows: [[entry, *rows[0][1:]], *rows[1:]]


# A reversed basis_order; entries that would otherwise load as 1.0 or 0.0
# into a valid identity chi: a string, a padded string and booleans; and a
# wrongly shaped chi: 15 rows, a 15-entry row or no im at all.  Each edit
# maps the key's value to its replacement, None to remove the key.
_CHI_DEFECTS = {"": ("basis_order", lambda order: order[::-1], "basis_order"),
                "-string": ("re", _first_entry("1"), "JSON number"),
                "-padded": ("re", _first_entry(" 1.0 "), "JSON number"),
                "-true": ("re", _first_entry(True), "JSON number"),
                "-false": ("im", _first_entry(False), "JSON number"),
                "-15-rows": ("re", lambda rows: rows[:15], "16 rows"),
                "-short-row": ("re", lambda rows: [rows[0][:15], *rows[1:]],
                               "16 rows"),
                "-no-im": ("im", lambda rows: None, "no 'im'")}


@pytest.mark.parametrize(
    "command, defect",
    [pytest.param(command, defect, id=command[0] + suffix)
     for suffix, defect in _CHI_DEFECTS.items()
     for command in (["report", "CHI"], ["bell", "--chi", "CHI"])])
def test_chi_with_wrong_basis_order_exit_2(tmp_path, capsys, command, defect):
    key, edit, message = defect
    doc = chi_to_json_dict(unitary_to_chi(np.eye(4)))
    value = edit(doc.pop(key))
    if value is not None:
        doc[key] = value
    chi_path = str(tmp_path / "chi.json")
    with open(chi_path, "w") as fh:
        json.dump(doc, fh)
    out = tmp_path / "out"
    assert run(*[chi_path if a == "CHI" else a for a in command],
               "-o", str(out)) == 2
    out_text, err = _assert_one_error_line(capsys)
    assert out_text == "" and message in err
    assert list(tmp_path.iterdir()) == [tmp_path / "chi.json"]


def test_reconstruct_inversion_of_trace_decreasing_map_is_unphysical(
        tmp_path, capsys):
    # The exact data of K = diag(1, 1/2, 1/2, 1/2): the inversion is PSD
    # and normalized to unit trace, but not trace preserving.
    k = np.diag([1.0, 0.5, 0.5, 0.5]).astype(complex)
    v = k.T.reshape(16)  # J[(i, a), (j, b)] = K[a, i] conj(K[b, j])
    process = ProcessSpec.identity()
    plan = plan_for_process(process, shots=100)
    path = str(tmp_path / "ds.json")
    dataset_from_probabilities(plan, forward_p2(np.outer(v, v.conj())),
                               process).save(path)
    out = str(tmp_path / "chi.json")
    assert run("reconstruct", path, "--method", "inversion", "-o", out) == 0
    diag = json.load(open(out + ".diagnostics.json"))
    assert diag["physical"] is False
    assert diag["min_eigenvalue"] > -1e-8
    err = capsys.readouterr().err
    assert err.startswith("note: ") and "(TP)" in err


def test_report_on_unphysical_inversion_chi(small_dataset, tmp_path):
    chi_path = str(tmp_path / "chi.json")
    assert run("reconstruct", small_dataset, "--method", "inversion",
               "-o", chi_path) == 0
    assert np.linalg.eigvalsh(load_chi(chi_path, validate=False).chi)[0] < -0.1
    prefix = str(tmp_path / "rep")
    assert run("report", chi_path, "--ideal", "ms_plus", "-o", prefix) == 0
    for part in ("_re", "_im", "_error_re", "_error_im"):
        assert len(open(prefix + part + ".csv").read().splitlines()) == 17


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


@pytest.fixture(scope="module")
def unphysical_chi(tmp_path_factory):
    """Linear inversion of 5 paper-noise shots; min eigenvalue about -1.3."""
    d = tmp_path_factory.mktemp("unphysical")
    assert run("simulate", "--process", "ms", "--noise", "paper",
               "--shots", "5", "--seed", "3", "-o", str(d / "ms.json")) == 0
    assert run("reconstruct", str(d / "ms.json"), "--method", "inversion",
               "-o", str(d / "chi.json")) == 0
    return str(d / "chi.json")


# (A NaN chi with --shots 0 already failed the population range check.)
@pytest.mark.parametrize("chi,shots", [("nan", "10000"),
                                       ("unphysical", "10000"),
                                       ("unphysical", "0")])
def test_bell_rejects_non_finite_or_unphysical_chi(unphysical_chi, tmp_path,
                                                   capsys, chi, shots):
    chi_path = unphysical_chi
    if chi == "nan":
        chi_path = str(tmp_path / "chi.json")
        _write_nan_chi(chi_path)
    out = tmp_path / "bell.json"
    assert run("bell", "--chi", chi_path, "--shots", shots,
               "-o", str(out)) == 2
    assert _assert_one_error_line(capsys)[0] == ""
    assert not out.exists()


def _kraus_chi(k):
    """chi of the one-Kraus map rho -> K rho K^dag, unvalidated."""
    c = np.einsum("mab,ba->m", two_qubit_pauli_basis(), k) / 4.0
    return np.outer(c.conj(), c)


@pytest.mark.parametrize("shots", ["10000", "0"])
def test_bell_rejects_chi_that_is_not_trace_preserving(tmp_path, capsys,
                                                       shots):
    # K = 2|00><00| has unit trace and is CP, with Tr_out J - I up to 3.
    chi_path = str(tmp_path / "chi.json")
    save_chi(chi_path, _kraus_chi(np.diag([2.0, 0.0, 0.0, 0.0])))
    out = tmp_path / "bell.json"
    assert run("bell", "--chi", chi_path, "--shots", shots,
               "-o", str(out)) == 2
    out_text, err = _assert_one_error_line(capsys)
    assert out_text == "" and "trace preservation" in err
    assert not out.exists()


def test_bell_exact_on_round_off_populations(tmp_path):
    # Physical to the rule (min eigenvalue -5e-9), and it sends |SS> to
    # population 1 + 5e-9 there and -5e-9 in |DD>.
    chi = np.zeros((16, 16), dtype=complex)
    chi[0, 0], chi[5, 5] = 1.0 + 5e-9, -5e-9
    chi_path = str(tmp_path / "chi.json")
    save_chi(chi_path, chi)
    out = str(tmp_path / "bell.json")
    assert run("bell", "--chi", chi_path, "--shots", "0", "-o", out) == 0
    assert json.load(open(out))["populations"] == {"p0": 0.0, "p2": 1.0}


def test_bell_rejects_non_entangling(tmp_path):
    assert run("bell", "--process", "identity",
               "-o", str(tmp_path / "bell.json")) == 2


# A negative count cannot be sampled, and fewer than 24 shots leave the
# 24-point parity scan with none per point.
@pytest.mark.parametrize("shots", ["-5", "5"])
def test_bell_bad_shots_exit_2(tmp_path, capsys, shots):
    assert run("bell", "--process", "ms", "--shots", shots,
               "-o", str(tmp_path / "bell.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


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


def test_ramsey_bad_delays_exit_2(tmp_path, capsys):
    for args in (["--delays", "20,sixty"], ["--delays", "20,nan"],
                 ["--delays", "20,inf"], ["--delays", "20,0"],
                 ["--shots", "-3"], ["--shots", "0"], ["--shots", "1"],
                 ["--shots", "15"], ["--delays", "20,60", "--fit"],
                 ["--delays", "20", "--shots", "32", "--fit"]):
        out = tmp_path / "r.csv"
        assert run("ramsey", *args, "-o", str(out)) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, args
        assert not out.exists()


def test_ramsey_flat_contrast_fit_warns_exit_1(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run("ramsey", "--noise", "none", "--delays", "20,60,120",
               "--shots", "32", "--fit", "-o", str(out)) == 1
    assert "warning: Ramsey fit failed" in capsys.readouterr().err
    assert out.exists()


def test_ramsey_overflowing_laser_phase_exit_2(tmp_path, capsys):
    # 2 pi sigma overflows; a NaN fringe would read as contrast 1.0.
    noise_path = tmp_path / "noise.json"
    noise_path.write_text('{"fast_freq_sigma_hz": 1e308}')
    out = tmp_path / "r.csv"
    assert run("ramsey", "--delays", "20,1e10,40", "--shots", "16",
               "--noise", str(noise_path), "-o", str(out)) == 2
    out_text, err = _assert_one_error_line(capsys)
    assert out_text == "" and "noise model" in err
    assert not out.exists()


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


def test_heating_nan_row_exit_2(tmp_path, capsys):
    t = np.linspace(2.0, 600.0, 40)
    y = 1.0 - np.cos(0.05 * t)
    y[11] = float("nan")
    csv_path = str(tmp_path / "sb.csv")
    with open(csv_path, "w") as fh:
        fh.write("time_us,signal\n")
        fh.writelines(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, y))
    assert run("heating", csv_path, "-o", str(tmp_path / "h.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_heating_one_column_row_exit_2(tmp_path, capsys):
    csv_path = str(tmp_path / "sb.csv")
    with open(csv_path, "w") as fh:
        fh.write("time_us,signal\n2.0,0.1\n1.0\n")
    assert run("heating", csv_path, "-o", str(tmp_path / "h.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_heating_bad_row_after_data_exit_2(tmp_path, capsys):
    t = np.linspace(2.0, 600.0, 40)
    y = [repr(float(v)) for v in 1.0 - np.cos(0.05 * t)]
    y[11] = "abc"
    csv_path = str(tmp_path / "sb.csv")
    with open(csv_path, "w") as fh:
        fh.write("time_us,signal\n")
        fh.writelines(f"{float(a)!r},{b}\n" for a, b in zip(t, y))
    assert run("heating", csv_path, "-o", str(tmp_path / "h.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("eta", ["0", "-0.039", "nan"])
def test_heating_bad_eta_exit_2(tmp_path, capsys, eta):
    t = np.linspace(2.0, 600.0, 40)
    y = 1.0 - np.cos(0.05 * t)
    csv_path = str(tmp_path / "sb.csv")
    with open(csv_path, "w") as fh:
        fh.write("time_us,signal\n")
        fh.writelines(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, y))
    assert run("heating", csv_path, "--eta", eta,
               "-o", str(tmp_path / "h.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("times", [
    [250.0] * 10,
    [1.0] * 6 + [2.0, 3.0, 4.0, 5.0],
], ids=["constant-time", "repeated-times"])
def test_heating_degenerate_time_grid_exit_2(tmp_path, capsys, times):
    csv_path = str(tmp_path / "sb.csv")
    with open(csv_path, "w") as fh:
        fh.write("time_us,signal\n")
        fh.writelines(f"{t!r},{0.1 * i!r}\n" for i, t in enumerate(times))
    out = tmp_path / "h.json"
    assert run("heating", csv_path, "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_heating_flat_signal_warns_exit_1(tmp_path, capsys):
    t = np.linspace(2.0, 600.0, 40)
    csv_path = str(tmp_path / "sb.csv")
    with open(csv_path, "w") as fh:
        fh.write("time_us,signal\n")
        fh.writelines(f"{float(a)!r},0.25\n" for a in t)
    out = tmp_path / "h.json"
    assert run("heating", csv_path, "-o", str(out)) == 1
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert err == ("warning: heating fit failed: flat sideband signal; "
                   "occupation unidentifiable\n")
    assert not out.exists()


def test_heating_missing_file_exit_2(tmp_path):
    assert run("heating", str(tmp_path / "missing.csv"),
               "-o", str(tmp_path / "h.json")) == 2


# ---------------------------------------------------------------------------
# output paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", [
    ["simulate", "--process", "identity", "--noise", "none", "--shots", "2",
     "--seed", "1"],
    ["reconstruct", "DATASET", "--method", "inversion"],
    ["report", "CHI", "--ideal", "identity"],
    ["bell", "--process", "ms", "--shots", "24"],
    ["ramsey", "--delays", "20", "--shots", "16"],
], ids=lambda c: c[0])
def test_output_in_missing_directory_exit_2(small_dataset, tmp_path, capsys,
                                            command):
    chi_path = str(tmp_path / "chi.json")
    save_chi(chi_path, unitary_to_chi(np.eye(4)))
    inputs = {"DATASET": small_dataset, "CHI": chi_path}
    out = str(tmp_path / "missing" / "out")
    assert run(*[inputs.get(a, a) for a in command], "-o", out) == 2
    # reconstruct notes the unphysical inversion first
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("error: cannot write ") and out in err[-1]
    assert [line for line in err if line.startswith("error: ")] == err[-1:]
