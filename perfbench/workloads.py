"""The three benchmark workloads: the ionqpt commands each runs, and its checks.

A workload is a list of steps run in order in one interpreter.  Most steps
are ``ionqpt`` command lines handed to ``ionqpt.cli.main``; the rest make
inputs.  Every step belongs to one stage, and a stage's time is the sum of its
steps' wall times:

* ``simulate``: data-generating commands (``simulate``, ``ramsey``) and the
  sideband scans, which the program's own sideband model generates;
* ``reconstruct``: ``reconstruct`` by MLE or ``--method inversion``;
* ``report``: ``report``, ``bell`` and ``heating``;
* ``input``: files the benchmark writes itself (a noise model, an
  exact-probability dataset), counted in the workload's wall time only.

Inputs that an MLE solve or a heating fit consumes are fixed, not drawn from
the workload seed.  Both are iterative and their cost follows the data: the
MLE takes 2k to 20k iterations on datasets that differ only in seed, and
whether it converges within its budget is decided by rounding (see the
``FOUND:`` lines in CHANGES.md); a heating fit takes 2.6 s on one noise draw
and 28 s on another.  A seeded dataset there would measure the draw, and its
pass or fail would change from seed to seed.  The seed drives the sampling
of the Bell-state parity scan and of the Ramsey experiment, whose cost does
not depend on the draw.
"""
from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import refmodel as ref

# The repository's frozen seed for paper-noise reproductions.
PAPER_SEED = 11
BOOTSTRAP_SEED = 9
# 256 sequences x 30 shots keeps one paper-noise simulation near 3 s; the
# paper ran 500 shots per sequence.
PAPER_SHOTS = 30
PAPER_RUN_SHOTS = 500
NOISELESS_SHOTS = 50
NOISELESS_SEEDS = (0, 1, 2)
# Noiseless solves that converge take 1.5k-2.7k iterations.  Seed 2's does
# not converge (the stop-rule fault); at the default budget of 20000 it
# would take half the workload's time.
NOISELESS_MAX_ITERATIONS = 5000
OVER_ROTATION_THETA = 1.04

# Sideband scans over 2..600 us: (n_th, n_coh, noise seed, time points) of
# each mode, Omega = 2 pi x 250 kHz, eta = 0.039, additive Gaussian noise
# 0.02 on the bright count.  The cold mode is one of the acceptance suite's
# round trips.  The hot mode's fit runs in a Fock space of 320 states, where
# each model evaluation costs ~15 ms, so it gets a coarser grid.
HEATING_MODES = ((3.5, 0.1, 273, 1200), (20.0, 10.0, 2, 150))
HEATING_OMEGA = 2 * math.pi * 250e3
HEATING_ETA = 0.039
HEATING_NOISE = 0.02

RAMSEY_DELAYS_US = (20.0, 40.0, 80.0, 120.0, 200.0, 400.0)
RAMSEY_SHOTS = 20000
BELL_SHOTS = 10000


@dataclass
class Step:
    """One command line (``argv``) or input-making call, run ``repeat`` times.

    Short steps are repeated and timed by their median, so that a burst of
    load on the machine moves a stage's time less.  A repeat reruns the same
    command on the same inputs and rewrites the same outputs.
    """

    stage: str
    label: str
    argv: list[str] | None = None
    call: Callable[[], None] | None = None
    threads: int = 1
    repeat: int = 1


@dataclass
class Result:
    """What a step left behind: its exit code and captured output."""

    rc: int
    stdout: str
    seconds: float


@dataclass
class Workload:
    """``steps(seed, workdir, nproc)`` and ``check(results, seed, workdir)``,
    which returns the failed checks' messages."""

    steps: Callable[[int, str, int], list[Step]]
    check: Callable[[dict, int, str], list[str]]


def _path(workdir: str, name: str) -> str:
    return os.path.join(workdir, name)


def _derive(seed: int, index: int) -> int:
    """A distinct 31-bit seed per (workload seed, use)."""
    ss = np.random.SeedSequence(seed, spawn_key=(index,))
    return int(ss.generate_state(1)[0] >> 1)


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def paper_noise_doc(shots: int) -> dict:
    """The paper's noise model with the drift rate scaled by 500 / shots.

    Slow drift accrues along the run, whose length is proportional to the
    shots per sequence.  Scaling the rate gives sequence k the detuning it
    had in the paper's 500-shot run, so the delay's dephasing error, and
    with it the published 7.2 % figure, survives the shorter run.
    """
    return {"drift_hz_per_min": 7.0 * PAPER_RUN_SHOTS / shots,
            "fast_freq_sigma_hz": 300.0,
            "phase_diffusion_rad_per_sqrt_us": 0.015,
            "phi_p_error_mrad": -145.0,
            "scaling_phase_error_mrad_ion2": 155.0,
            "pulse_area_fractional_error": 0.0}


def exact_dataset_doc(chi: np.ndarray, shots: int) -> dict:
    """Dataset file whose counts are shots x the reference-model P2 of chi."""
    n2 = shots * ref.p2_of_chi(chi)
    return {
        "meta": {
            "seed": None,
            "process_label": "ms",
            "process": {"label": "ms", "theta": math.pi / 4,
                        "duration_us": 120.0},
            "noise": {"drift_hz_per_min": 0.0, "fast_freq_sigma_hz": 0.0,
                      "phase_diffusion_rad_per_sqrt_us": 0.0,
                      "phi_p_error_mrad": 0.0,
                      "scaling_phase_error_mrad_ion2": 0.0,
                      "pulse_area_fractional_error": 0.0},
            "timing": {"composite_block_us": 25.0, "pulse_pi_us": 8.0,
                       "process_duration_us": 120.0,
                       "shot_overhead_ms": 10.0},
            "shots": shots,
        },
        "records": [{"k": k, "n2": float(min(max(v, 0.0), shots))}
                    for k, v in enumerate(n2)],
    }


# ---------------------------------------------------------------------------
# Output checks shared by the workloads
# ---------------------------------------------------------------------------

_FLOAT = r"([-+0-9.eE]+|nan|inf)"


def _parse(pattern: str, text: str) -> float:
    m = re.search(pattern, text)
    if m is None:
        raise ValueError(f"no match for {pattern!r} in command output")
    return float(m.group(1))


def check_cptp(path: str, failures: list[str]) -> np.ndarray:
    chi = ref.read_chi(path)
    if not ref.is_cptp(chi):
        failures.append(f"{os.path.basename(path)} is not CPTP: "
                        f"{ref.cptp_violation(chi)}")
    return chi


def check_fits_data(chi: np.ndarray, dataset: str,
                    failures: list[str]) -> None:
    """The reference P2 of an MLE chi fits its counts at shot-noise level.

    With shots N per sequence no binomial frequency has a standard deviation
    above 1 / (2 sqrt N); a fit with 240 free parameters to 256 frequencies
    leaves an rms residual below that.
    """
    n2, shots = ref.read_counts(dataset)
    rms = float(np.sqrt(np.mean((n2 / shots - ref.p2_of_chi(chi)) ** 2)))
    if not rms <= 0.5 / math.sqrt(shots):
        failures.append(f"{os.path.basename(dataset)}: rms residual {rms:.4f}"
                        f" above the shot-noise level "
                        f"{0.5 / math.sqrt(shots):.4f}")


def check_bootstrap(out: str, label: str, failures: list[str]) -> None:
    std = _parse(r"bootstrap std over \d+ replicas: " + _FLOAT, out)
    if not (math.isfinite(std) and std > 0):
        failures.append(f"{label}: bootstrap spread {std} is not finite "
                        "and above zero")


def check_textbook_chi(chi: np.ndarray, label: str, tol: float,
                       failures: list[str]) -> None:
    dev = float(np.max(np.abs(chi - ref.unitary_chi(ref.ms_unitary()))))
    if not dev <= tol:
        failures.append(f"{label}: max deviation {dev:.2e} from the textbook "
                        f"MS chi exceeds {tol:.0e}")


# ---------------------------------------------------------------------------
# paper_qpt
# ---------------------------------------------------------------------------

PAPER_PROCESSES = (("identity", "identity"), ("delay", "identity"),
                   ("ms", "ms"))


def paper_qpt_steps(seed: int, workdir: str, nproc: int) -> list[Step]:
    noise = _path(workdir, "paper_noise.json")
    steps = [Step("input", "noise",
                  call=lambda: _write_json(noise, paper_noise_doc(PAPER_SHOTS)))]
    for proc, ideal in PAPER_PROCESSES:
        ds = _path(workdir, f"{proc}.json")
        chi = _path(workdir, f"{proc}_chi.json")
        steps.append(Step("simulate", f"simulate {proc}", [
            "simulate", "--process", proc, "--noise", noise,
            "--shots", str(PAPER_SHOTS), "--seed", str(PAPER_SEED), "-o", ds]))
        steps.append(Step("reconstruct", f"reconstruct {proc}", [
            "reconstruct", ds, "-o", chi]))
        report = ["report", chi, "--ideal", ideal,
                  "-o", _path(workdir, f"{proc}_report")]
        if proc == "ms":
            report += ["--dataset", ds, "--replicas", "2",
                       "--seed", str(BOOTSTRAP_SEED)]
        steps.append(Step("report", f"report {proc}", report))
    return steps


def paper_qpt_check(results: dict, seed: int, workdir: str) -> list[str]:
    failures: list[str] = []
    errors = {}
    for proc, _ in PAPER_PROCESSES:
        chi = check_cptp(_path(workdir, f"{proc}_chi.json"), failures)
        check_fits_data(chi, _path(workdir, f"{proc}.json"), failures)
        ideal = (ref.unitary_chi(ref.ms_unitary()) if proc == "ms"
                 else ref.identity_chi())
        errors[proc] = 1.0 - ref.process_fidelity(chi, ideal)
        printed = _parse(r"F_p = " + _FLOAT, results[f"report {proc}"].stdout)
        if abs(printed - (1.0 - errors[proc])) > 1e-5:
            failures.append(f"report {proc}: F_p {printed} differs from the "
                            f"reference {1 - errors[proc]:.6f}")
    for proc, target in (("identity", 3.2), ("delay", 7.2)):
        if abs(100 * errors[proc] - target) > 1.5:
            failures.append(f"{proc} process error {100 * errors[proc]:.2f}%"
                            f" is outside {target} +/- 1.5 points")
    if not errors["delay"] > errors["identity"]:
        failures.append("delay error is not above identity error")
    check_bootstrap(results["report ms"].stdout, "report ms", failures)
    return failures


# ---------------------------------------------------------------------------
# noiseless_seeds
# ---------------------------------------------------------------------------

def noiseless_seeds_steps(seed: int, workdir: str, nproc: int) -> list[Step]:
    exact = _path(workdir, "exact.json")
    chi_ms = ref.unitary_chi(ref.ms_unitary())
    steps = []
    names = [f"ms_seed{s}" for s in NOISELESS_SEEDS] + ["exact"]
    for name in names:
        ds = _path(workdir, f"{name}.json")
        if name == "exact":
            steps.append(Step("input", "exact", call=lambda: _write_json(
                exact, exact_dataset_doc(chi_ms, NOISELESS_SHOTS))))
        else:
            steps.append(Step("simulate", f"simulate {name}", [
                "simulate", "--process", "ms", "--noise", "none",
                "--shots", str(NOISELESS_SHOTS),
                "--seed", name.removeprefix("ms_seed"), "-o", ds], repeat=2))
        steps.append(Step("reconstruct", f"reconstruct {name} mle", [
            "reconstruct", ds, "--max-iterations", str(NOISELESS_MAX_ITERATIONS),
            "-o", _path(workdir, f"{name}_mle.json")]))
        steps.append(Step("reconstruct", f"reconstruct {name} inversion", [
            "reconstruct", ds, "--method", "inversion",
            "-o", _path(workdir, f"{name}_inv.json")]))
    first = names[0]
    steps.append(Step("report", f"report {first}", [
        "report", _path(workdir, f"{first}_mle.json"), "--ideal", "ms",
        "--dataset", _path(workdir, f"{first}.json"), "--replicas", "2",
        "--seed", str(BOOTSTRAP_SEED),
        "-o", _path(workdir, f"{first}_report")]))
    return steps


def noiseless_seeds_check(results: dict, seed: int, workdir: str
                          ) -> list[str]:
    failures: list[str] = []
    p_ref = np.clip(ref.p2_of_chi(ref.unitary_chi(ref.ms_unitary())), 0, 1)
    for s in NOISELESS_SEEDS:
        ds = _path(workdir, f"ms_seed{s}.json")
        n2, shots = ref.read_counts(ds)
        # Noiseless shots are Bernoulli draws with the reference P2: each
        # frequency lies within 5 binomial standard deviations (exactly on
        # p when p is 0 or 1).
        bound = 5 * np.sqrt(p_ref * (1 - p_ref) / shots) + 1e-9
        worst = int(np.argmax(np.abs(n2 / shots - p_ref) - bound))
        if abs(n2[worst] / shots - p_ref[worst]) > bound[worst]:
            failures.append(f"ms_seed{s}: sequence {worst} frequency "
                            f"{n2[worst] / shots:.3f} vs reference "
                            f"{p_ref[worst]:.3f}")
        chi = check_cptp(_path(workdir, f"ms_seed{s}_mle.json"), failures)
        check_fits_data(chi, ds, failures)
    chi = check_cptp(_path(workdir, "exact_mle.json"), failures)
    check_textbook_chi(chi, "exact MLE", 1e-3, failures)
    check_textbook_chi(ref.read_chi(_path(workdir, "exact_inv.json")),
                       "exact inversion", 1e-9, failures)
    check_bootstrap(results[f"report ms_seed{NOISELESS_SEEDS[0]}"].stdout,
                    "report", failures)
    return failures


# ---------------------------------------------------------------------------
# gate_budget
# ---------------------------------------------------------------------------

def _sideband_scan(path: str, n_th: float, n_coh: float, seed: int,
                   points: int) -> None:
    from ionqpt.analysis import MotionalOccupation, sideband_rabi_signal

    times = np.linspace(2.0, 600.0, points)
    occ = MotionalOccupation(n_th=n_th, n_coh=n_coh,
                             rabi_omega=HEATING_OMEGA, eta=HEATING_ETA)
    signal = (sideband_rabi_signal(occ, times) + HEATING_NOISE
              * np.random.default_rng(seed).standard_normal(len(times)))
    with open(path, "w") as fh:
        fh.write("time_us,signal\n")
        fh.writelines(f"{float(t)!r},{float(y)!r}\n"
                      for t, y in zip(times, signal))


def gate_budget_steps(seed: int, workdir: str, nproc: int) -> list[Step]:
    ds = _path(workdir, "ms_plus.json")
    chi = _path(workdir, "ms_plus_chi.json")
    theta = str(OVER_ROTATION_THETA)
    steps = [
        Step("simulate", "simulate ms_plus", [
            "simulate", "--process", "ms_plus", "--theta", theta,
            "--noise", "paper", "--shots", str(PAPER_SHOTS),
            "--seed", str(PAPER_SEED), "-o", ds], repeat=2),
        Step("reconstruct", "reconstruct ms_plus", [
            "reconstruct", ds, "-o", chi], repeat=2),
        Step("report", "report ms_plus", [
            "report", chi, "--ideal", "ms_plus", "--theta", theta,
            "--dataset", ds, "--replicas", str(max(2, nproc)),
            "--seed", str(BOOTSTRAP_SEED),
            "-o", _path(workdir, "ms_plus_report")], threads=nproc),
        Step("report", "bell", [
            "bell", "--chi", chi, "--shots", str(BELL_SHOTS),
            "--seed", str(_derive(seed, 0)),
            "-o", _path(workdir, "bell.json")]),
        Step("simulate", "ramsey", [
            "ramsey", "--delays", ",".join(f"{d:g}" for d in RAMSEY_DELAYS_US),
            "--shots", str(RAMSEY_SHOTS), "--seed", str(_derive(seed, 1)),
            "--fit", "-o", _path(workdir, "ramsey.csv")]),
    ]
    for i, mode in enumerate(HEATING_MODES):
        scan = _path(workdir, f"sideband{i}.csv")
        steps.append(Step("simulate", f"sideband scan {i}", call=(
            lambda scan=scan, mode=mode: _sideband_scan(scan, *mode))))
        steps.append(Step("report", f"heating {i}", [
            "heating", scan, "--eta", str(HEATING_ETA),
            "-o", _path(workdir, f"heating{i}.json")]))
    return steps


def gate_budget_check(results: dict, seed: int, workdir: str) -> list[str]:
    failures: list[str] = []
    chi = check_cptp(_path(workdir, "ms_plus_chi.json"), failures)
    check_fits_data(chi, _path(workdir, "ms_plus.json"), failures)
    out = results["report ms_plus"].stdout
    check_bootstrap(out, "report ms_plus", failures)

    # theta+ from 256 x N shots: a statistical spread of order
    # 1 / sqrt(256 N) rad; allow five of it.
    theta = _parse(r"theta\+ = " + _FLOAT, out)
    bound = 5 / math.sqrt(256 * PAPER_SHOTS)
    if not abs(theta - OVER_ROTATION_THETA) <= bound:
        failures.append(f"theta+ {theta:.4f} is not within {bound:.4f} of "
                        f"{OVER_ROTATION_THETA}")

    # F_BST = P_amp/2 + (P0 + P2)/2 from BELL_SHOTS populations and a parity
    # scan; the fringe amplitude of a least-squares fit has a standard
    # deviation of at most sqrt(2 / BELL_SHOTS), P0 + P2 one of 1 / (2 sqrt N).
    with open(_path(workdir, "bell.json")) as fh:
        f_cli = json.load(fh)["bell_state_fidelity"]
    f_ref = ref.bell_fidelity(chi)
    sigma = 0.5 * math.sqrt(2 / BELL_SHOTS) + 0.25 / math.sqrt(BELL_SHOTS)
    if not abs(f_cli - f_ref) <= 5 * sigma:
        failures.append(f"bell F_BST {f_cli:.4f} vs reference {f_ref:.4f}")

    # Contrast exp(-c^2 tau / 2 - (2 pi sigma_f tau)^2 / 2) for the default
    # noise model: c = 0.015 rad/sqrt(us), a 300 Hz FWHM frequency spread.
    delays, contrast = np.loadtxt(_path(workdir, "ramsey.csv"), delimiter=",",
                                  skiprows=1, unpack=True)
    sigma_f = 300.0 / (2 * math.sqrt(2 * math.log(2)))
    model = np.exp(-0.015 ** 2 * delays / 2
                   - (2 * math.pi * sigma_f * delays * 1e-6) ** 2 / 2)
    dev = float(np.max(np.abs(contrast - model)))
    if not dev <= 5 / math.sqrt(RAMSEY_SHOTS):
        failures.append(f"Ramsey contrast deviates from the model by {dev:.4f}")

    for i, (n_th, n_coh, _, _) in enumerate(HEATING_MODES):
        with open(_path(workdir, f"heating{i}.json")) as fh:
            fit = json.load(fh)
        for key, true in (("n_th", n_th), ("n_coh", n_coh),
                          ("rabi_omega_rad_s", HEATING_OMEGA)):
            if not abs(fit[key] - true) <= 0.1 * true:
                failures.append(f"heating {i}: {key} {fit[key]:.4g} is not "
                                f"within 10% of {true:.4g}")
    return failures


# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {
    "paper_qpt": Workload(paper_qpt_steps, paper_qpt_check),
    "noiseless_seeds": Workload(noiseless_seeds_steps, noiseless_seeds_check),
    "gate_budget": Workload(gate_budget_steps, gate_budget_check),
}
