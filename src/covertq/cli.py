"""Command-line front end.

Subcommands: ``capacity`` (rate report for one channel), ``sweep`` (CSV over
the excitation parameter), ``simulate`` (codebook Monte-Carlo campaign),
``egdemo`` (toy entanglement-generation run), and ``validate`` (channel-spec
checking).  Every file output is accompanied by a run manifest for
reproducibility.  Values are stored in nats; ``--bits`` converts at display
time only.

Exit codes: 0 success, 2 input error, 3 budget error, 4 assumption violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import capacities as cap
from . import channels as chn
from . import covert_sim as cs
from . import divergences as dv
from . import eg_toy as eg
from .errors import (
    AssumptionViolationError,
    BudgetExceededError,
    ToolkitError,
    TrivialTestError,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_ASSUMPTION = 4


def _load_channel_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit2(f"cannot read channel spec {path!r}: {exc}")


class SystemExit2(Exception):
    """Input-level failure mapped to exit code 2."""


def _write_manifest(command: str, spec, parameters: dict, seed, out_path: str) -> None:
    manifest = {
        "command": command,
        "channelSpec": spec,
        "parameters": parameters,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "toolkitVersion": __version__,
        "outputPath": out_path,
    }
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit_json(payload: dict, out_path: str | None, command: str, spec, parameters: dict, seed) -> None:
    text = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
        _write_manifest(command, spec, parameters, seed, out_path)
    else:
        print(text)


def _maybe_bits(report: dict, bits: bool) -> dict:
    if not bits:
        return report
    out = dict(report)
    for key in ("dBob", "dWillie", "cSKey", "cS", "cEG", "lKeyMin", "lKeyNoSecrecy"):
        if key in out:
            out[key] = out[key] / math.log(2.0)
    out["units"] = "bits"
    return out


def cmd_capacity(args) -> int:
    spec = _load_channel_spec(args.channel)
    quad = chn.channel_spec_to_quadruple(spec)
    report = cap.capacity_report_from_quadruple(quad).to_dict()
    report = {k: (bool(v) if k == "antiDegradedFlag" else float(v) if not isinstance(v, bool) else v) for k, v in report.items()}
    payload = _maybe_bits(report, args.bits)
    _emit_json(payload, args.out, "capacity", spec, {"bits": args.bits}, None)
    return EXIT_OK

def cmd_sweep(args) -> int:
    if not 0.0 < args.gamma_from < args.gamma_to < 1.0:
        raise SystemExit2("need 0 < gamma-from < gamma-to < 1")
    gammas = np.linspace(args.gamma_from, args.gamma_to, args.steps)
    reports = cap.capacity_reports(
        chn.stinespring_from_kraus(chn.excitation_channel(float(g))) for g in gammas
    )
    with open(args.out, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["gamma", "d_bob", "d_willie", "chi2", "c_s_key", "c_s", "c_eg",
             "l_key_min", "c_eg_closed_form"]
        )
        for g, r in zip(gammas, reports):
            row = [g, r.dBob, r.dWillie, r.chi2Willie, r.cSKey, r.cS, r.cEG,
                   r.lKeyMin, cap.excitation_capacity_closed_form(float(g))]
            writer.writerow([repr(float(v)) for v in row])
    _write_manifest(
        "sweep", {"kind": "excitation"},
        {"gammaFrom": args.gamma_from, "gammaTo": args.gamma_to, "steps": args.steps},
        None, args.out,
    )
    return EXIT_OK


def _route(state0, state1) -> str:
    """Which path covert_sim takes for a pair of single-copy outputs."""
    return "dense" if cs.shared_eigenbasis(state0, state1) is None else "commuting"


def cmd_simulate(args) -> int:
    spec = _load_channel_spec(args.channel)
    quad = chn.channel_spec_to_quadruple(spec)
    cfg = cs.SimConfig(
        n=args.n, gamma=args.gamma, m_size=args.m, l_size=args.l,
        seed=args.seed, samples=args.samples,
    )
    params = {
        "n": args.n, "gamma": args.gamma, "alpha": cfg.alpha, "m": args.m,
        "l": args.l, "samples": args.samples,
        "commutingFastPath": args.commuting_fast_path,
    }
    if args.commuting_fast_path:
        # covertness-only scalar study, no dense n-fold states
        values, target = cs.covertness_scaling(quad, args.gamma, [args.n])
        payload = {
            "config": params,
            "covertness": {
                "dReference": values[0][1],
                "quadraticTarget": target,
                "resolvabilityRhs": cs.resolvability_rhs(cfg, quad),
            },
        }
        _emit_json(payload, args.out, "simulate", spec, params, args.seed)
        return EXIT_OK
    cb = cs.sample_codebook(cfg)
    cov = cs.covertness_report(cb, quad, cfg)
    sec = cs.secrecy_report(cb, quad, cfg)
    mean, rhs, holds = cs.resolvability_experiment(cfg, quad)
    payload = {
        "config": params,
        "covertness": asdict(cov),
        "secrecy": {
            "perBinDistances": list(sec.perBinDistances),
            "averageLeakage": sec.averageLeakage,
        },
        "resolvability": {"empiricalMeanDistance": mean, "rhs": rhs, "holds": holds},
    }
    if args.m * args.l <= 64:
        dec = cs.sqrt_measurement_decoder(cb, quad, cfg)
        payload["decoder"] = {
            "perMessageError": {f"{m},{l}": e for (m, l), e in dec.perMessageError.items()},
            "averageError": dec.averageError,
            "maxError": dec.maxError,
        }
    else:
        payload["decoder"] = None
    payload["diagnostics"] = {"route": {
        "warden": _route(quad.omega0, quad.omega1),
        "decoder": _route(quad.sigma0, quad.sigma1),
    }}
    _emit_json(payload, args.out, "simulate", spec, params, args.seed)
    return EXIT_OK


def cmd_egdemo(args) -> int:
    spec = _load_channel_spec(args.channel)
    V = chn.channel_spec_to_stinespring(spec)
    code = eg.default_demo_code()
    words_flat = [code.words[m, l] for m in range(code.T) for l in range(code.l_size)]
    alpha = float(np.mean(code.words))
    try:
        quad = chn.build_covert_channel(V)
        a = 0.5 * alpha * code.n * dv.qre(quad.sigma1, quad.sigma0)
        povm, abstain = cs.square_root_povm(words_flat, quad.sigma0, quad.sigma1, a)
    except (TrivialTestError, AssumptionViolationError):
        # degenerate warden (e.g. noiseless channel): decode by exact strings
        povm, abstain = eg.exact_string_povm(words_flat, V.out_dim_b)
    report = eg.eg_report(code, V, povm, abstain, alpha=alpha, mode=args.mode)
    params = {"n": code.n, "T": code.T, "l": code.l_size, "mode": args.mode}
    payload = {
        "config": params,
        "fidelity": report.fidelity,
        "covertDivergence": report.covertDivergence,
        "traceDistanceGHZ": report.traceDistanceGHZ,
        "bestJ": report.bestJ,
        "perStepDiagnostics": report.perStepDiagnostics,
    }
    _emit_json(payload, args.out, "egdemo", spec, params, None)
    return EXIT_OK


def cmd_validate(args) -> int:
    spec = _load_channel_spec(args.channel)
    quad = chn.channel_spec_to_quadruple(spec)
    print(json.dumps({
        "valid": True,
        "kind": spec.get("kind"),
        "bobDim": int(quad.sigma0.shape[0]),
        "willieDim": int(quad.omega0.shape[0]),
    }, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="covertq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="capacity report for a channel spec")
    p.add_argument("channel")
    p.add_argument("-o", "--out")
    p.add_argument("--bits", action="store_true", help="display rates in bits")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("sweep", help="excitation-channel capacity sweep to CSV")
    p.add_argument("--gamma-from", type=float, required=True)
    p.add_argument("--gamma-to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="covert codebook Monte-Carlo campaign")
    p.add_argument("channel")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--l", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--commuting-fast-path", action="store_true",
                   help="scalar covertness-only study for large n")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("egdemo", help="toy entanglement-generation run")
    p.add_argument("channel")
    p.add_argument("--mode", choices=["paper-target", "self-target"], default="paper-target")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_egdemo)

    p = sub.add_parser("validate", help="check a channel spec file")
    p.add_argument("channel")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (AssumptionViolationError, TrivialTestError) as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except (ToolkitError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
