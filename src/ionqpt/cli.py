"""Command-line interface: file-based simulation, reconstruction and analysis.

Subcommands are pure file-to-file transforms (simulate / reconstruct / report /
bell / ramsey / heating) with no implicit state between invocations; identical
inputs and seed produce byte-identical outputs.  Exit codes: 0 success,
1 analysis warning (e.g. MLE gap above tolerance at the iteration budget),
2 input error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .analysis import (
    RAMSEY_MIN_DELAYS,
    FitError,
    bell_populations,
    bell_state_fidelity,
    fit_heating,
    fit_over_rotation,
    fit_ramsey_model,
    read_series_csv,
    sideband_rabi_signal,
    simulate_parity_scan,
    write_series_csv,
)
from .ionsim import (
    NoiseModel,
    ProcessSpec,
    ShotDataset,
    generate_dataset,
    plan_for_process,
    simulate_ramsey,
)
from .process import (
    ProcessMatrix,
    atomic_write_text,
    extract_error_process,
    load_chi,
    process_fidelity,
    save_chi,
)
from .protocol import SEQUENCES
from .qmath import ValidationError, pauli_labels_2q
from .recon import (
    GAP_TOLERANCE,
    MAX_ITERATIONS,
    bootstrap_fidelity,
    linear_inversion,
    mle_reconstruct,
)

EXIT_OK = 0
EXIT_WARNING = 1
EXIT_INPUT_ERROR = 2


class InputError(Exception):
    """A problem with user-supplied arguments or files (exit code 2)."""


def _read(what: str, path: str, parse):
    """``parse(path)``; a file that cannot be read or parsed is an InputError.

    Wrongly typed JSON surfaces as TypeError or KeyError from the parsers,
    and ``ValidationError`` is a ``ValueError``.
    """
    try:
        return parse(path)
    except OSError as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from exc
    except (ValueError, TypeError, KeyError) as exc:
        raise InputError(f"invalid {what} {path!r}: {exc}") from exc


def _load_noise_file(path: str) -> NoiseModel:
    with open(path) as fh:
        return NoiseModel.from_dict(json.load(fh))


def _noise_from_arg(arg: str) -> NoiseModel:
    """Accepts the shorthands none | default | paper, or a JSON file path."""
    if arg == "none":
        return NoiseModel.none()
    if arg == "default":
        return NoiseModel()
    if arg == "paper":
        return NoiseModel.paper_study()
    return _read("noise file", arg, _load_noise_file)


# Process label -> ProcessSpec, given the --theta argument (read by ms_plus).
_PROCESSES = {
    "identity": lambda theta: ProcessSpec.identity(),
    "delay": lambda theta: ProcessSpec.delay(),
    "ms": lambda theta: ProcessSpec.ms(),
    "ms_plus": ProcessSpec.ms_plus,
}


def _load_dataset(path: str) -> ShotDataset:
    return _read("dataset", path, ShotDataset.load)


def _load_chi(path: str) -> ProcessMatrix:
    # Parse-only: reports on unphysical (e.g. linear-inversion) matrices are
    # allowed; physicality lives in the reconstruct diagnostics.
    return _read("chi file", path, lambda p: load_chi(p, validate=False))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    process = _PROCESSES[args.process](args.theta)
    noise = _noise_from_arg(args.noise)
    plan = plan_for_process(process, shots=args.shots)
    dataset = generate_dataset(plan, process, noise, args.seed)
    dataset.save(args.output)
    freq = dataset.frequencies
    print(f"wrote {args.output}: 256 sequences x {args.shots} shots, "
          f"process={process.label}, seed={args.seed}")
    print("P2 means for the 16 matched prep/meas corner sequences:")
    for k in range(0, 256, 17):
        (p1, p2), _ = SEQUENCES[k]
        print(f"  prep=meas=({p1.code},{p2.code})  k={k:3d}  P2={freq[k]:.4f}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    dataset = _load_dataset(args.dataset)
    sidecar = args.output + ".diagnostics.json"
    status = EXIT_OK
    if args.method == "mle":
        chi, result = mle_reconstruct(dataset, args.max_iterations)
        diag = {
            "method": "mle",
            "iterations": result.iterations,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
            "gap": result.gap,
            "gap_tolerance": GAP_TOLERANCE,
            "final_log_likelihood": result.final_log_likelihood,
        }
        if not result.converged:
            print(f"warning: MLE did not converge: duality gap {result.gap:.3g} "
                  f"> tolerance {GAP_TOLERANCE:g} after "
                  f"{result.iterations} iterations", file=sys.stderr)
            status = EXIT_WARNING
    else:
        chi, li = linear_inversion(dataset)
        diag = {
            "method": "inversion",
            "min_eigenvalue": li.min_eigenvalue,
            "raw_trace": li.raw_trace,
            "physical": li.is_physical(),
        }
        if not li.is_physical():
            print("note: inversion result is unphysical: "
                  + "; ".join(li.failures()), file=sys.stderr)
    save_chi(args.output, chi)
    atomic_write_text(sidecar, json.dumps(diag, indent=2))
    print(f"wrote {args.output} and {sidecar}")
    return status


def _write_amplitude_csvs(prefix: str, chi: ProcessMatrix) -> None:
    labels = pauli_labels_2q()
    for part, data in (("re", chi.chi.real), ("im", chi.chi.imag)):
        lines = ["," + ",".join(labels)]
        for m in range(16):
            lines.append(labels[m] + ","
                         + ",".join(f"{data[m, n]:.6e}" for n in range(16)))
        atomic_write_text(f"{prefix}_{part}.csv", "\n".join(lines) + "\n")


def cmd_report(args) -> int:
    if args.replicas < 2:
        raise InputError(f"--replicas must be at least 2, got {args.replicas}")
    chi = _load_chi(args.chi)
    ideal = _PROCESSES[args.ideal](args.theta)
    fid = process_fidelity(chi, ideal.ideal_chi())
    print(f"F_p = {fid:.6f}  (process error {100 * (1 - fid):.2f}%)")
    status = EXIT_OK
    if args.dataset is not None:
        dataset = _load_dataset(args.dataset)
        boot = bootstrap_fidelity(dataset, None, ideal.ideal_unitary(),
                                  replicas=args.replicas, seed=args.seed)
        print(f"bootstrap std over {boot.replicas} replicas: {boot.std:.6f}")
        if boot.unconverged:
            print(f"warning: MLE did not converge for {boot.unconverged} of "
                  f"{boot.replicas} bootstrap replicas", file=sys.stderr)
            status = EXIT_WARNING
    if ideal.is_entangling:
        fit = fit_over_rotation(chi)
        print(f"over-rotation fit: theta+ = {fit.theta:.6f} rad "
              f"({fit.theta / (math.pi / 4):.4f} x pi/4), "
              f"residual error {100 * fit.residual_error:.2f}%")
        err = extract_error_process(chi, ProcessSpec.ms().ideal_unitary())
        _write_amplitude_csvs(args.output_prefix + "_error", err)
    _write_amplitude_csvs(args.output_prefix, chi)
    print(f"wrote {args.output_prefix}_re.csv / _im.csv amplitude tables")
    return status


def cmd_bell(args) -> int:
    if args.chi is not None:
        # The Bell analysis reads the output state: the chi must be CPTP.
        chi = _read("chi file", args.chi, load_chi)
        source = {"chi": args.chi}
    else:
        process = _PROCESSES[args.process](args.theta)
        if not process.is_entangling:
            raise InputError("bell requires an entangling process "
                             "(ms or ms_plus)")
        chi = process.ideal_chi()
        source = {"process": process.to_dict()}
    scan = simulate_parity_scan(chi, shots=args.shots, seed=args.seed)
    p0, p2 = bell_populations(chi, shots=args.shots, seed=args.seed)
    f_bst = bell_state_fidelity(p0, p2, scan)
    doc = {
        **source,
        "shots": args.shots,
        "seed": args.seed,
        "parity_amplitude": scan.p_amp,
        "populations": {"p0": p0, "p2": p2},
        "bell_state_fidelity": f_bst,
    }
    atomic_write_text(args.output, json.dumps(doc, indent=2))
    print(f"F_BST = {f_bst:.4f}  (P_amp = {scan.p_amp:.4f}, "
          f"P0+P2 = {p0 + p2:.4f})")
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_ramsey(args) -> int:
    try:
        delays = [float(x) for x in args.delays.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --delays list: {exc}") from exc
    if args.fit and len(delays) < RAMSEY_MIN_DELAYS:
        raise InputError(f"--fit needs at least {RAMSEY_MIN_DELAYS} delays, "
                         f"got {len(delays)}")
    noise = _noise_from_arg(args.noise)
    contrasts = simulate_ramsey(delays, noise, args.shots, seed=args.seed)
    write_series_csv(args.output, delays, contrasts,
                     header=("delay_us", "contrast"))
    print(f"wrote {args.output}")
    if args.fit:
        try:
            fit = fit_ramsey_model(np.asarray(delays), contrasts)
        except FitError as exc:
            print(f"warning: Ramsey fit failed: {exc}", file=sys.stderr)
            return EXIT_WARNING
        print(f"fitted phase diffusion "
              f"{fit.phase_diffusion_rad_per_sqrt_us:.5f} rad/sqrt(us), "
              f"fast frequency width {fit.fast_freq_sigma_hz:.1f} Hz, "
              f"rms residual {fit.residual:.2e}")
        atomic_write_text(args.output + ".fit.json", json.dumps({
            "phase_diffusion_rad_per_sqrt_us":
                fit.phase_diffusion_rad_per_sqrt_us,
            "fast_freq_sigma_hz": fit.fast_freq_sigma_hz,
            "rms_residual": fit.residual,
        }, indent=2))
    return EXIT_OK


def cmd_heating(args) -> int:
    times, signal = _read("series", args.input, read_series_csv)
    try:
        occ, cov = fit_heating(times, signal, eta=args.eta)
    except FitError as exc:
        print(f"warning: heating fit failed: {exc}", file=sys.stderr)
        return EXIT_WARNING
    rms = float(np.sqrt(np.mean(
        (sideband_rabi_signal(occ, times) - signal) ** 2)))
    print(f"n_th = {occ.n_th:.3f}  n_coh = {occ.n_coh:.3f}  "
          f"Omega = {occ.rabi_omega / (2 * math.pi):.1f} Hz  "
          f"rms residual {rms:.3e}")
    atomic_write_text(args.output, json.dumps({
        "n_th": occ.n_th,
        "n_coh": occ.n_coh,
        "rabi_omega_rad_s": occ.rabi_omega,
        "eta": args.eta,
        "rms_residual": rms,
        "covariance": np.asarray(cov).tolist(),
    }, indent=2))
    print(f"wrote {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_process_args(p, default="ms"):
    p.add_argument("--process", default=default, choices=list(_PROCESSES))
    p.add_argument("--theta", type=float, default=1.04,
                   help="gate angle for ms_plus (rad)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionqpt",
        description="Two-qubit trapped-ion process tomography toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a QPT shot dataset")
    _add_process_args(p)
    p.add_argument("--noise", default="none",
                   help="none | default | paper | path to NoiseModel JSON")
    p.add_argument("--shots", type=int, default=500)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="reconstruct chi from a dataset")
    p.add_argument("dataset")
    p.add_argument("--method", default="mle", choices=["mle", "inversion"])
    p.add_argument("--max-iterations", type=int, default=MAX_ITERATIONS)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("report", help="fidelity / error analysis of a chi file")
    p.add_argument("chi")
    p.add_argument("--ideal", default="ms",
                   choices=["identity", "ms", "ms_plus"])
    p.add_argument("--theta", type=float, default=1.04)
    p.add_argument("--dataset", default=None,
                   help="dataset JSON for bootstrap uncertainty")
    p.add_argument("--replicas", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output-prefix", default="chi_report")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("bell", help="Bell-state fidelity from a parity scan")
    _add_process_args(p)
    p.add_argument("--chi", default=None,
                   help="analyze a reconstructed chi file instead of the "
                        "ideal process")
    p.add_argument("--shots", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("ramsey", help="simulate single-ion Ramsey contrast")
    p.add_argument("--delays", default="20,40,80,120,200,400",
                   help="comma-separated delays in us")
    p.add_argument("--noise", default="default")
    p.add_argument("--shots", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fit", action="store_true",
                   help="fit the analytic contrast model to the results")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_ramsey)

    p = sub.add_parser("heating", help="fit motional occupation from a "
                                       "sideband time series CSV")
    p.add_argument("input", help="CSV with time_us,signal columns")
    p.add_argument("--eta", type=float, default=0.039)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_heating)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise InputError(f"--seed must be nonnegative, got {args.seed}")
        return args.func(args)
    except (InputError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        # Inputs are read through _read, so this is an output that cannot be
        # written; atomic_write_text names the output, not its temp file.
        print(f"error: cannot write {exc.filename!r}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
