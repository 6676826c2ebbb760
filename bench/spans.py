"""Span tracing of covertq's public functions, installed from outside the package.

Each traced function is replaced by a wrapper in every ``covertq`` module that
holds a reference to it, because a module that did ``from .channels import
build_covert_channel`` keeps its own binding that patching ``channels`` alone
would miss.  Spans (name, start, end, parent span, pass id) are kept in
in-memory arrays and written out once, after the measurement.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import sys
import time
from array import array

#: Traced functions per module, as named in the benchmark's per-layer metrics.
TRACED = {
    "covert_sim": (
        "sample_codebook", "resolvability_samples", "resolvability_rhs",
        "willie_average_state", "willie_bin_state", "product_state",
        "covertness_report", "secrecy_report", "square_root_povm",
        "sqrt_measurement_decoder",
    ),
    "operators": (
        "trace_norm", "tensor_power", "pinching", "spectral_decompose",
        "nonneg_eigenspace_projector", "sqrtm_psd", "partial_trace_vector",
        "check_hermitian",
    ),
    "divergences": ("qre", "chi_square", "helstrom_error", "phi"),
    "channels": ("build_covert_channel", "marginal_outputs"),
    "capacities": ("capacity_report_from_quadruple",),
    "eg_toy": (
        "protocol_state", "align_phases", "uhlmann_isometry",
        "decoupling_decoder", "eliminate_assistance", "willie_marginal",
        "eg_report",
    ),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _square_side(value) -> int:
    shape = getattr(value, "shape", ())
    return int(shape[0]) if len(shape) == 2 and shape[0] == shape[1] else 0


def _cli_out_path(argv) -> str | None:
    argv = list(argv or ())
    for flag in ("--out", "-o"):
        if flag in argv[:-1]:
            return argv[argv.index(flag) + 1]
    return None


class Tracer:
    """Records nested spans of the traced functions while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.pass_id = -1
        self._name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name_id = array("H")
        self.parent = array("i")
        self.pass_of = array("i")
        self.start = array("d")
        self.end = array("d")
        # per traced pass: {span name: [calls, self seconds]}
        self.per_pass: dict[int, dict[str, list]] = {}
        self.max_dim = 0
        self.max_state_bytes = 0
        self.output_bytes = 0
        # open spans: [span index, seconds covered by direct children]
        self._stack: list[list] = []

    def install(self) -> None:
        """Rebind every traced function in every covertq module referencing it.

        The wrappers stay in place for the life of the process and record only
        while a traced pass is active.
        """
        homes = {mod: importlib.import_module(f"covertq.{mod}") for mod in TRACED}
        modules = [m for n, m in sys.modules.items() if n == "covertq" or n.startswith("covertq.")]
        for mod_name, fns in TRACED.items():
            home = homes[mod_name]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod_name}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        name_id = self._name_ids[name]
        is_operator = name.startswith("operators.")
        is_state = name == "eg_toy.protocol_state"
        is_cli = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if is_operator:
                for value in (*args, *kwargs.values()):
                    side = _square_side(value)
                    if side > self.max_dim:
                        self.max_dim = side
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(self._stack[-1][0] if self._stack else -1)
            self.pass_of.append(self.pass_id)
            frame = [index, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            self.start.append(t0)
            self.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.end[index] = t1
                self._stack.pop()
                duration = t1 - t0
                if self._stack:
                    self._stack[-1][1] += duration
                entry = self.per_pass[self.pass_id].setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += duration - frame[1]
            if is_state:
                self.max_state_bytes = max(self.max_state_bytes, int(result.nbytes))
            if is_cli:
                out = _cli_out_path(args[0] if args else kwargs.get("argv"))
                for path in (out, out and out + ".manifest.json"):
                    if path and os.path.exists(path):
                        self.output_bytes += os.path.getsize(path)
            return result

        return traced

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.per_pass[pass_id] = {}
        self.active = True

    def end_pass(self) -> None:
        self.active = False

    def self_total(self, pass_id: int) -> float:
        """Sum of all self times in one pass: the time covered by top-level spans."""
        return sum(entry[1] for entry in self.per_pass[pass_id].values())

    def metrics(self) -> dict[str, float]:
        """Per-pass means of calls and self time, over the traced passes."""
        passes = len(self.per_pass)
        totals: dict[str, list] = {}
        for per_name in self.per_pass.values():
            for name, (calls, self_s) in per_name.items():
                acc = totals.setdefault(name, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s
        out = {}
        for name in SPAN_NAMES:
            calls, self_s = totals.get(name, (0, 0.0))
            if name != "cli.main":
                out[f"{name}.calls"] = calls / passes
            out[f"{name}.self_s"] = self_s / passes
        out["operators.max_dim"] = self.max_dim
        out["eg_toy.protocol_state.max_bytes"] = self.max_state_bytes
        out["cli.output_bytes"] = self.output_bytes / passes
        return out

    def write_spans(self, path: str, workload: str) -> int:
        """Write every recorded span as gzipped columnar JSON; returns the count."""
        t_base = self.start[0] if self.start else 0.0
        payload = {
            "workload": workload,
            "names": list(SPAN_NAMES),
            "columns": ["name", "start_s", "end_s", "parent", "pass"],
            "name": list(self.name_id),
            "start_s": [round(t - t_base, 9) for t in self.start],
            "end_s": [round(t - t_base, 9) for t in self.end],
            "parent": list(self.parent),
            "pass": list(self.pass_of),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
        return len(self.start)
