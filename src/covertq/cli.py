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
import json
import math
import os
import re
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import budget
from . import capacities as cap
from . import channels as chn
from . import covert_sim as cs
from . import eg_toy as eg
from .errors import AssumptionViolationError, BudgetExceededError, InvalidParameterError, ToolkitError, TrivialTestError

_SWEEP_CHUNK = 4096  #: the most steps whose rate columns ``covertq sweep`` computes and writes at once; fixed

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_ASSUMPTION = 4


def _load_channel_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidParameterError(f"cannot read channel spec {path!r}: {exc}")
    if not isinstance(spec, dict):
        raise InvalidParameterError(f"channel spec {path!r} must be a JSON object, got {type(spec).__name__}")
    return spec


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
    payload = _maybe_bits(cap.capacity_report_from_quadruple(quad).to_dict(), args.bits)
    _emit_json(payload, args.out, "capacity", spec, {"bits": args.bits}, None)
    return EXIT_OK


def _sweep_rows(gammas, start: int) -> str:
    """The CSV rows of the excitation parameters ``gammas``, steps ``start`` on of the sweep;
    a failing step is named by its index in the whole sweep."""
    try:
        rates = cap._rate_columns(chn.build_covert_channel(chn.stinespring_from_kraus(chn.excitation_channel(gammas))))
    except ToolkitError as exc:
        where = re.match(r"stack element (\d+): ", str(exc))
        raise type(exc)(f"stack element {int(where[1]) + start}: {str(exc)[where.end():]}" if where else str(exc)) from None
    fields = ("dBob", "dWillie", "chi2Willie", "cSKey", "cS", "cEG", "lKeyMin")
    columns = [gammas.tolist()] + [rates[f].tolist() for f in fields]
    columns.append([cap.excitation_capacity_closed_form(g) for g in columns[0]])
    return "".join(",".join(map(repr, row)) + "\n" for row in zip(*columns))


def cmd_sweep(args) -> int:
    if args.steps < 1:
        raise InvalidParameterError(f"--steps must be at least 1, got {args.steps}")
    if not 0.0 < args.gamma_from < args.gamma_to < 1.0:
        raise InvalidParameterError("need 0 < gamma-from < gamma-to < 1")
    # the parameters and one chunk's rate pipeline and rows: tracemalloc peaks of a first sweep in a process
    # of 2.21 MB at 2,000 steps, 4.04 MB at 20,000 and 5.57 MB at 200,000
    budget.check(2**18 + 8 * args.steps + 1100 * min(args.steps, _SWEEP_CHUNK), f"sweep of {args.steps} steps")
    gammas = np.linspace(args.gamma_from, args.gamma_to, args.steps)
    parts = -(-args.steps // _SWEEP_CHUNK)  # equal chunks of at most _SWEEP_CHUNK steps: one of one step is the sweep
    with open(args.out, "w", newline="\n") as fh:
        try:
            fh.write("gamma,d_bob,d_willie,chi2,c_s_key,c_s,c_eg,l_key_min,c_eg_closed_form\n")
            for i in range(parts):
                start, stop = i * args.steps // parts, (i + 1) * args.steps // parts
                fh.write(_sweep_rows(gammas[start:stop], start))
        except BaseException:  # a failed sweep leaves no CSV, whole or in part
            fh.close()
            os.remove(args.out)
            raise
    _write_manifest(
        "sweep", {"kind": "excitation"},
        {"gammaFrom": args.gamma_from, "gammaTo": args.gamma_to, "steps": args.steps},
        None, args.out,
    )
    return EXIT_OK


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
    }
    cov, sec, (mean, rhs, holds), dec, routes = cs.simulate(cfg, quad)
    payload = {
        "config": params,
        "covertness": asdict(cov),
        "secrecy": asdict(sec),
        "resolvability": {"empiricalMeanDistance": mean, "rhs": rhs, "holds": holds},
        "decoder": None if dec is None else {
            **asdict(dec), "perMessageError": {f"{m},{l}": e for (m, l), e in dec.perMessageError.items()},
        },
        "diagnostics": {"route": routes},
    }
    _emit_json(payload, args.out, "simulate", spec, params, args.seed)
    return EXIT_OK


def cmd_egdemo(args) -> int:
    spec = _load_channel_spec(args.channel)
    V = chn.channel_spec_to_stinespring(spec)
    code = eg.default_demo_code()
    povm, abstain, decoder_route = eg.decoding_povm(code, V)
    report = eg.eg_report(code, V, povm, abstain, mode=args.mode)
    params = {"n": code.n, "T": code.T, "l": code.l_size, "mode": args.mode}
    payload = {
        "config": params,
        "fidelity": report.fidelity,
        "covertDivergence": report.covertDivergence,
        "traceDistanceGHZ": report.traceDistanceGHZ,
        "bestJ": report.bestJ,
        "perStepDiagnostics": report.perStepDiagnostics,
        "diagnostics": {"route": {"decoder": decoder_route}},
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


#: Each subcommand's name, help text, handler and arguments (flags, ``add_argument`` keywords), in help order.
_COMMANDS = (
    ("capacity", "capacity report for a channel spec", cmd_capacity, (
        ("channel", {}), ("-o --out", {}), ("--bits", dict(action="store_true", help="display rates in bits")))),
    ("sweep", "excitation-channel capacity sweep to CSV", cmd_sweep, (
        ("--gamma-from", dict(type=float, required=True)), ("--gamma-to", dict(type=float, required=True)),
        ("--steps", dict(type=int, required=True)), ("--out", dict(required=True)))),
    ("simulate", "covert codebook Monte-Carlo campaign", cmd_simulate, (
        ("channel", {}), ("--n", dict(type=int, required=True)), ("--gamma", dict(type=float, required=True)),
        ("--m", dict(type=int, default=4)), ("--l", dict(type=int, default=4)),
        ("--seed", dict(type=int, default=0)), ("--samples", dict(type=int, default=1)), ("-o --out", {}))),
    ("egdemo", "toy entanglement-generation run", cmd_egdemo, (
        ("channel", {}), ("--mode", dict(choices=["paper-target", "self-target"], default="paper-target")),
        ("-o --out", {}))),
    ("validate", "check a channel spec file", cmd_validate, (("channel", {}),)),
)


def _parser(commands) -> argparse.ArgumentParser:
    """The parser with the subcommands ``commands`` registered; its usage names all five."""
    parser = argparse.ArgumentParser(prog="covertq", description=__doc__)
    every = "{" + ",".join(name for name, *_ in _COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=None if commands is _COMMANDS else every)
    for name, help_text, handler, arguments in commands:
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags.split(), **kwargs)
        p.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser with all five subcommands registered."""
    return _parser(_COMMANDS)


def main(argv=None) -> int:
    """Run one subcommand.  Only the subcommand that ``argv[0]`` names is registered, or all
    five when it names none, so help, usage and error text match :func:`build_parser`'s."""
    argv = sys.argv[1:] if argv is None else list(argv)
    named = [command for command in _COMMANDS if argv[:1] == [command[0]]]
    args = _parser(named or _COMMANDS).parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (AssumptionViolationError, TrivialTestError) as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except (ToolkitError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
