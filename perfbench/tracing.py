"""Span tracing of ionqpt's layers from outside the package.

``Tracer.install`` wraps public functions of the ionqpt modules and rebinds
every module-level name that refers to the original function, so each call
site sees the wrapper wherever its caller looks the name up (``from .recon
import mle_reconstruct`` in ``cli`` as well as ``recon``'s own global used by
the bootstrap).  A span is (id, name, start, end, parent id, attributes);
spans stay in memory until ``dump`` writes them out.  ``uninstall`` restores
every original binding.  ``layer_metrics`` turns the spans into the
benchmark's per-layer figures.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict


def _mle_attrs(args, out) -> dict:
    return {"iterations": int(out[1].iterations),
            "converged": bool(out[1].converged)}


def _shots_attrs(args, out) -> dict:
    return {"shots": int(out.n2.size * out.plan.shots_per_sequence)}


def _replica_attrs(args, out) -> dict:
    return {"replicas": int(len(out))}


def _bytes_attrs(args, out) -> dict:
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, attributes recorded from the call) of every function
# traced.  ShotDataset's file I/O is a pair of methods, patched on the class.
TRACED_FUNCTIONS = (
    ("ionqpt.protocol", "design_matrix", None),
    ("ionqpt.ionsim", "generate_dataset", _shots_attrs),
    ("ionqpt.ionsim", "sample_trajectory", None),
    ("ionqpt.ionsim", "simulate_ramsey", None),
    ("ionqpt.recon", "mle_reconstruct", _mle_attrs),
    ("ionqpt.recon", "linear_inversion", None),
    ("ionqpt.recon", "bootstrap_statistic", _replica_attrs),
    ("ionqpt.process", "process_fidelity", None),
    ("ionqpt.process", "extract_error_process", None),
    ("ionqpt.process", "save_chi", None),
    ("ionqpt.process", "load_chi", None),
    ("ionqpt.analysis", "fit_heating", None),
    ("ionqpt.analysis", "sideband_rabi_signal", None),
    ("ionqpt.analysis", "fit_over_rotation", None),
    ("ionqpt.analysis", "simulate_parity_scan", None),
    ("ionqpt.analysis", "bell_populations", None),
    ("ionqpt.analysis", "bell_state_fidelity", None),
    ("ionqpt.analysis", "fit_ramsey_model", None),
)
TRACED_METHODS = (
    ("ionqpt.ionsim", "ShotDataset", "save", _bytes_attrs),
    ("ionqpt.ionsim", "ShotDataset", "load", None),
)


def _short(module: str, attr: str) -> str:
    return module.rsplit(".", 1)[-1] + "." + attr


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.paused = False

    @contextlib.contextmanager
    def span(self, name: str, attrs=None):
        """Record one span around the caller's block.

        ``attrs(out)`` may name attributes of the value the block stores in
        the yielded list.  Nothing is recorded while ``paused`` is set.
        """
        if self.paused:
            yield []
            return
        with self._lock:
            sid = next(self._ids)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else 0
        stack.append(sid)
        box: list = []
        t0 = time.perf_counter()
        try:
            yield box
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent,
                               attrs(box[0]) if attrs and box else None))

    def _wrapper(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, attrs and (lambda out: attrs(args, out))) \
                    as box:
                box.append(fn(*args, **kwargs))
            return box[0]
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "ionqpt" or n.startswith("ionqpt.")]
        for mod_name, attr, attrs in TRACED_FUNCTIONS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrapper(_short(mod_name, attr), original, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapper)
        for mod_name, cls_name, attr, attrs in TRACED_METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            if cls is None or attr not in vars(cls):
                continue
            raw = vars(cls)[attr]
            name = _short(mod_name, f"{cls_name}.{attr}")
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrapper(name, raw.__func__, attrs))
            else:
                wrapped = self._wrapper(name, raw, attrs)
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "attrs": attrs}) + "\n")


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer figures from the spans of one workload round.

    Times are means per call unless the name says otherwise; a layer the
    workload never calls reads 0.
    """
    durations = defaultdict(list)
    attrs = defaultdict(list)
    names = {sid: name for sid, name, *_ in spans}
    sideband_in_fits = 0
    for sid, name, t0, t1, parent, extra in spans:
        durations[name].append(t1 - t0)
        if extra:
            attrs[name].append(extra)
        if (name == "analysis.sideband_rabi_signal"
                and names.get(parent) == "analysis.fit_heating"):
            sideband_in_fits += 1

    def mean(name, scale):
        xs = durations[name]
        return scale * sum(xs) / len(xs) if xs else 0.0

    def total(name):
        return sum(durations[name])

    def ratio(a, b):
        return a / b if b else 0.0

    shots = sum(a["shots"] for a in attrs["ionsim.generate_dataset"])
    mle = attrs["recon.mle_reconstruct"]
    iterations = sum(a["iterations"] for a in mle)
    replicas = sum(a["replicas"] for a in attrs["recon.bootstrap_statistic"])
    saved = [a["bytes"] for a in attrs["ionsim.ShotDataset.save"]]
    n_fits = len(durations["analysis.fit_heating"])
    bell = ("analysis.simulate_parity_scan", "analysis.bell_populations",
            "analysis.bell_state_fidelity")
    chi_io = durations["process.save_chi"] + durations["process.load_chi"]
    return {
        "protocol.design_matrix_warm_ms": mean("protocol.design_matrix", 1e3),
        "ionsim.shots": shots,
        "ionsim.us_per_shot": 1e6 * ratio(total("ionsim.generate_dataset"),
                                          shots),
        "ionsim.sample_trajectory_us": mean("ionsim.sample_trajectory", 1e6),
        "ionsim.sample_trajectory_calls":
            len(durations["ionsim.sample_trajectory"]),
        "ionsim.dataset_save_ms": mean("ionsim.ShotDataset.save", 1e3),
        "ionsim.dataset_load_ms": mean("ionsim.ShotDataset.load", 1e3),
        "ionsim.dataset_bytes": ratio(sum(saved), len(saved)),
        "ionsim.simulate_ramsey_ms": mean("ionsim.simulate_ramsey", 1e3),
        "recon.mle_solves": len(mle),
        "recon.mle_iterations": iterations,
        "recon.mle_iterations_max": max((a["iterations"] for a in mle),
                                        default=0),
        "recon.mle_unconverged": sum(not a["converged"] for a in mle),
        "recon.mle_us_per_iteration":
            1e6 * ratio(total("recon.mle_reconstruct"), iterations),
        "recon.linear_inversion_ms": mean("recon.linear_inversion", 1e3),
        "recon.bootstrap_replica_s":
            ratio(total("recon.bootstrap_statistic"), replicas),
        "process.process_fidelity_us": mean("process.process_fidelity", 1e6),
        "process.extract_error_process_ms":
            mean("process.extract_error_process", 1e3),
        "process.chi_io_ms": 1e3 * ratio(sum(chi_io), len(chi_io)),
        "analysis.fit_heating_s": mean("analysis.fit_heating", 1.0),
        "analysis.sideband_model_evals": ratio(sideband_in_fits, n_fits),
        "analysis.sideband_model_ms": mean("analysis.sideband_rabi_signal",
                                           1e3),
        "analysis.fit_over_rotation_ms": mean("analysis.fit_over_rotation",
                                              1e3),
        "analysis.bell_ms": 1e3 * ratio(sum(total(n) for n in bell),
                                        len(durations[bell[-1]])),
        "analysis.fit_ramsey_ms": mean("analysis.fit_ramsey_model", 1e3),
    }
