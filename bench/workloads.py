"""The benchmark's studies: inputs from a seed, one timed pass, and oracles.

The four studies (resolve, simulate, eg, sweep) run as two workloads:
``montecarlo`` is resolve then simulate, ``eg_sweep`` is eg then sweep.
Each study has the same shape:

- ``setup(seed, tmp)`` builds the channel and the seeded inputs;
- ``run(inp)`` is one timed pass;
- ``check(inp, raw)`` validates one pass's output outside the timed region and
  returns a canonical value that every later pass must reproduce;
- ``oracle(inp, value)`` checks the first pass's value against independent
  recomputations and, for seeds that have one, the reference recorded in
  ``references.json``.

Every study uses the excitation channel, whose four outputs are diagonal,
so the oracles below recompute dense results from probability vectors.  For
the same reason no study reaches a degenerate-spectrum pair of warden
outputs (see NOTES.md).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import replace
from functools import reduce

import numpy as np

from covertq import channels as chn
from covertq import cli
from covertq import covert_sim as cs
from covertq import divergences as dv
from covertq import eg_toy as eg

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def mismatches(got, want, rel: float, abs_: float = 0.0, path: str = "") -> list[str]:
    """Paths where two nested dict/list/number values differ beyond the tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [e for k in want for e in mismatches(got[k], want[k], rel, abs_, f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [e for i, (g, w) in enumerate(zip(got, want)) for e in mismatches(g, w, rel, abs_, f"{path}[{i}]")]
    if isinstance(want, bool) or want is None:
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    if not (isinstance(got, (int, float)) and math.isfinite(got)):
        return [f"{path}: {got!r} is not a finite number"]
    if abs(got - want) > rel * max(abs(got), abs(want)) + abs_:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def recorded_reference(workload: str, seed: int):
    with open(REFERENCES) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def excitation_diagonals(gamma: float):
    """(sigma0, sigma1, omega0, omega1) of the excitation channel, as diagonals."""
    return (
        np.array([1.0 - gamma, gamma]),
        np.array([0.0, 1.0]),
        np.array([1.0 - gamma, gamma]),
        np.array([1.0, 0.0]),
    )


def draw_words(seed: int, index: int, shape, alpha: float) -> np.ndarray:
    """The Bernoulli(alpha) codebook covert_sim documents for key (seed, index)."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    return (rng.random(shape) < alpha).astype(np.uint8)


def word_distribution(word, p0, p1) -> np.ndarray:
    return reduce(np.kron, [(p0, p1)[int(b)] for b in word])


# ---------------------------------------------------------------- resolve

class Resolve:
    """Resolvability Monte-Carlo on the commuting path of covert_sim."""

    name = "resolve"
    gamma = 0.25
    n = 8
    alpha = 0.25
    k_totals = (16, 64, 256)
    samples = 25

    def setup(self, seed: int, tmp: str) -> dict:
        quad = chn.build_covert_channel(chn.stinespring_from_kraus(chn.excitation_channel(self.gamma)))
        cfgs = [
            cs.SimConfig(n=self.n, gamma=self.gamma, alpha=self.alpha, m_size=k,
                         l_size=1, seed=seed, samples=self.samples)
            for k in self.k_totals
        ]
        return {"seed": seed, "quad": quad, "cfgs": cfgs}

    def run(self, inp):
        return [cs.resolvability_experiment(cfg, inp["quad"]) for cfg in inp["cfgs"]]

    def check(self, inp, raw):
        errors = []
        for k, (mean, rhs, holds) in zip(self.k_totals, raw):
            if not holds:
                errors.append(f"K={k}: mean {mean} exceeds bound {rhs}")
            if not (0.0 <= mean <= 2.0 and math.isfinite(rhs)):
                errors.append(f"K={k}: mean {mean} or bound {rhs} out of range")
        return [[float(m), float(r), bool(h)] for m, r, h in raw], errors

    def oracle(self, inp, value) -> list[str]:
        """Sample 0 of each K: commuting-path distance versus a dense recomputation."""
        quad = inp["quad"]
        w0 = np.asarray(quad.omega0, dtype=complex)
        w1 = np.asarray(quad.omega1, dtype=complex)
        mixed = reduce(np.kron, [(1.0 - self.alpha) * w0 + self.alpha * w1] * self.n)
        errors = []
        for cfg in inp["cfgs"]:
            fast = float(cs.resolvability_samples(replace(cfg, samples=1), quad)[0])
            words = draw_words(inp["seed"], 0, (cfg.m_size, cfg.l_size, cfg.n), self.alpha)
            avg = sum(reduce(np.kron, [(w0, w1)[int(b)] for b in word])
                      for word in words.reshape(-1, cfg.n)) / (cfg.m_size * cfg.l_size)
            dense = float(np.sum(np.linalg.svd(avg - mixed, compute_uv=False)))
            if abs(fast - dense) > 1e-9:
                errors.append(f"K={cfg.m_size}: commuting path {fast!r} != dense {dense!r}")
        return errors


# --------------------------------------------------------------- simulate

class Simulate:
    """Two `covertq simulate` campaigns: reports only, then with the decoder."""

    name = "simulate"
    gamma_channel = 0.25
    gamma = 0.6
    samples = 5
    campaigns = ((9, 8, 16), (8, 4, 4))  # (n, m, l); the CLI decodes only when m*l <= 64

    def setup(self, seed: int, tmp: str) -> dict:
        channel = os.path.join(tmp, "channel.json")
        with open(channel, "w") as fh:
            json.dump({"kind": "excitation", "gamma": self.gamma_channel}, fh)
        argvs, outs = [], []
        for i, (n, m, l) in enumerate(self.campaigns):
            out = os.path.join(tmp, f"simulate-{i}.json")
            argvs.append(["simulate", channel, "--n", str(n), "--m", str(m), "--l", str(l),
                          "--gamma", str(self.gamma), "--seed", str(seed),
                          "--samples", str(self.samples), "-o", out])
            outs.append(out)
        return {"seed": seed, "argvs": argvs, "outs": outs}

    def run(self, inp):
        return [cli.main(argv) for argv in inp["argvs"]]

    def check(self, inp, raw):
        if any(code != 0 for code in raw):
            return None, [f"exit codes {raw}"]
        value, errors = [], []
        for (n, m, l), out in zip(self.campaigns, inp["outs"]):
            with open(out) as fh:
                payload = json.load(fh)
            value.append({k: payload[k] for k in ("covertness", "secrecy", "resolvability", "decoder")})
            errors += [f"n={n} m={m} l={l}: {e}" for e in self._ranges(payload, m * l <= 64)]
        return value, errors

    @staticmethod
    def _ranges(payload, decodes: bool) -> list[str]:
        cov, sec, res, dec = (payload[k] for k in ("covertness", "secrecy", "resolvability", "decoder"))
        errors = [f"{k} = {v!r} not finite" for k, v in cov.items() if not math.isfinite(v)]
        if not cov["dCovert"] >= 0.0:
            errors.append(f"dCovert {cov['dCovert']} < 0")
        if not 0.0 <= cov["helstromError"] <= 0.5:
            errors.append(f"helstromError {cov['helstromError']} outside [0, 1/2]")
        if not all(0.0 <= d <= 2.0 for d in sec["perBinDistances"]):
            errors.append("a per-bin trace distance lies outside [0, 2]")
        if not res["holds"]:
            errors.append(f"resolvability mean {res['empiricalMeanDistance']} exceeds bound {res['rhs']}")
        if decodes != (dec is not None):
            errors.append(f"decoder {'missing' if decodes else 'unexpected'}")
        if dec is not None:
            errs = list(dec["perMessageError"].values()) + [dec["averageError"], dec["maxError"]]
            if not all(0.0 <= e <= 1.0 for e in errs):
                errors.append("a decoder error lies outside [0, 1]")
        return errors

    def oracle(self, inp, value) -> list[str]:
        errors = []
        for (n, m, l), got in zip(self.campaigns, value):
            want = self.diagonal_oracle(inp["seed"], n, m, l)
            errors += [f"n={n} m={m} l={l} oracle{e}"
                       for e in mismatches(_pick(got, want), want, rel=1e-9, abs_=1e-10)]
        reference = recorded_reference(self.name, inp["seed"])
        if reference is not None:
            errors += [f"reference{e}" for e in mismatches(value, reference, rel=1e-8, abs_=1e-15)]
        return errors

    def diagonal_oracle(self, seed: int, n: int, m: int, l: int) -> dict:
        """The campaign's seed-dependent report fields, from probability vectors."""
        s0, s1, p0, p1 = excitation_diagonals(self.gamma_channel)
        alpha = self.gamma / math.sqrt(n)
        p_mix = reduce(np.kron, [(1.0 - alpha) * p0 + alpha * p1] * n)
        ref0 = reduce(np.kron, [p0] * n)
        words = draw_words(seed, 0, (m, l, n), alpha)
        per_word = np.array([[word_distribution(w, p0, p1) for w in row] for row in words])
        avg = per_word.mean(axis=(0, 1))
        support = avg > 1e-10
        d_covert = float(np.sum(avg[support] * (np.log(avg[support]) - np.log(ref0[support]))))
        single = (1.0 - alpha) * p0 + alpha * p1
        distances = []
        for i in range(self.samples):
            w = draw_words(seed, i, (m, l, n), alpha).reshape(-1, n)
            distances.append(float(np.sum(np.abs(
                np.mean([word_distribution(x, p0, p1) for x in w], axis=0) - p_mix))))
        out = {
            "covertness": {
                "dCovert": d_covert,
                "dReference": n * float(np.sum(single * np.log(single / p0))),
                "traceDistToMixed": float(np.sum(np.abs(avg - p_mix))),
                "helstromError": 0.5 * (1.0 - 0.5 * float(np.sum(np.abs(avg - ref0)))),
            },
            "secrecy": {
                "perBinDistances": [float(np.sum(np.abs(b - p_mix))) for b in per_word.mean(axis=1)],
            },
            "resolvability": {"empiricalMeanDistance": float(np.mean(distances))},
        }
        if m * l <= 64:
            out["decoder"] = {"perMessageError": self._decoder_errors(words, s0, s1, alpha, n)}
        return out

    @staticmethod
    def _decoder_errors(words, s0, s1, alpha: float, n: int) -> dict:
        """Square-root measurement for diagonal outputs: every operator is a vector."""
        d_bob = float(np.sum(s1[s1 > 0] * np.log(s1[s1 > 0] / s0[s1 > 0])))
        scale = math.exp(0.5 * alpha * n * d_bob)
        ref = reduce(np.kron, [s0] * n)
        flat = words.reshape(-1, n)
        sigs = np.array([word_distribution(w, s0, s1) for w in flat])
        projectors = (sigs - scale * ref >= -1e-10).astype(float)
        total = projectors.sum(axis=0)
        inv = np.where(total > 1e-10, 1.0 / np.where(total > 1e-10, total, 1.0), 0.0)
        p_ok = np.sum(sigs * projectors * inv, axis=1)
        l_size = words.shape[1]
        return {f"{i // l_size},{i % l_size}": float(min(max(1.0 - p, 0.0), 1.0))
                for i, p in enumerate(p_ok)}


def _pick(got, want):
    """The part of ``got`` that has the keys of ``want``."""
    if isinstance(want, dict):
        return {k: _pick(got.get(k) if isinstance(got, dict) else None, v) for k, v in want.items()}
    return got


# --------------------------------------------------------------------- eg

class EG:
    """Square-root POVM plus the full entanglement-generation report."""

    name = "eg"
    gamma = 0.1
    T, L, n = 4, 3, 7  # protocol dimension T*T*2^n*2^n*T*L = 3.1M, under the 4.19M cap

    def setup(self, seed: int, tmp: str) -> dict:
        V = chn.stinespring_from_kraus(chn.excitation_channel(self.gamma))
        quad = chn.build_covert_channel(V)
        rng = np.random.default_rng(seed)
        index = rng.choice(2**self.n, self.T * self.L, replace=False)
        bits = (index[:, None] >> np.arange(self.n - 1, -1, -1)) & 1
        code = eg.EGToyCode.from_words(bits.astype(np.uint8).reshape(self.T, self.L, self.n))
        flat = [code.words[m, l] for m in range(self.T) for l in range(self.L)]
        alpha = float(np.mean(code.words))
        a = 0.5 * alpha * self.n * dv.qre(quad.sigma1, quad.sigma0)
        return {"seed": seed, "V": V, "quad": quad, "code": code, "flat": flat,
                "alpha": alpha, "a": a}

    def run(self, inp):
        quad = inp["quad"]
        povm, abstain = cs.square_root_povm(inp["flat"], quad.sigma0, quad.sigma1, inp["a"])
        return eg.eg_report(inp["code"], inp["V"], povm, abstain, alpha=inp["alpha"], mode="paper-target")

    def check(self, inp, raw):
        value = {
            "fidelity": raw.fidelity,
            "covertDivergence": raw.covertDivergence,
            "traceDistanceGHZ": raw.traceDistanceGHZ,
            "bestJ": raw.bestJ,
        }
        errors = []
        if not 0.0 <= raw.fidelity <= 1.0 + 1e-9:
            errors.append(f"fidelity {raw.fidelity} outside [0, 1]")
        if not 0.0 <= raw.covertDivergence < math.inf:
            errors.append(f"covert divergence {raw.covertDivergence} not finite and >= 0")
        if not 0.0 <= raw.traceDistanceGHZ <= 2.0:
            errors.append(f"trace distance {raw.traceDistanceGHZ} outside [0, 2]")
        return value, errors

    def oracle(self, inp, value) -> list[str]:
        """Noiseless channel with exact-string decoding must give fidelity 1."""
        povm, abstain = eg.exact_string_povm(inp["flat"])
        ideal = eg.eg_report(inp["code"], eg.noiseless_isometry(), povm, abstain, mode="self-target")
        errors = []
        if abs(ideal.fidelity - 1.0) > 1e-9:
            errors.append(f"noiseless self-target fidelity {ideal.fidelity!r} != 1")
        reference = recorded_reference(self.name, inp["seed"])
        if reference is not None and abs(value["fidelity"] - reference["fidelity"]) > 1e-9:
            errors.append(f"fidelity {value['fidelity']!r} != reference {reference['fidelity']!r}")
        return errors


# ------------------------------------------------------------------ sweep

def closed_form_c_eg(gamma: float) -> float:
    """Excitation-channel covert capacity, written out as acceptance criterion 1 does."""
    if gamma >= 0.5:
        return 0.0
    return math.log((1.0 - gamma) / gamma) * math.sqrt(2.0 * (1.0 - gamma) / gamma)


class Sweep:
    """`covertq sweep` over 2000 excitation parameters: 2x2 inputs, CSV and manifest.

    The sweep has no random input, so every seed gives the same pass.
    """

    name = "sweep"
    steps = 2000

    def setup(self, seed: int, tmp: str) -> dict:
        out = os.path.join(tmp, "sweep.csv")
        argv = ["sweep", "--gamma-from", "0.01", "--gamma-to", "0.99",
                "--steps", str(self.steps), "--out", out]
        return {"seed": seed, "argv": argv, "out": out}

    def run(self, inp):
        return cli.main(inp["argv"])

    def check(self, inp, raw):
        if raw != 0:
            return None, [f"exit code {raw}"]
        if not os.path.exists(inp["out"] + ".manifest.json"):
            return None, ["manifest missing"]
        with open(inp["out"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.steps:
            return None, [f"{len(rows)} rows, expected {self.steps}"]
        errors = []
        for row in rows:
            gamma, c_eg = float(row["gamma"]), float(row["c_eg"])
            closed = closed_form_c_eg(gamma)
            if abs(c_eg - closed) > 1e-9 or abs(float(row["c_eg_closed_form"]) - closed) > 1e-9:
                errors.append(f"gamma={gamma!r}: c_eg {c_eg!r} vs closed form {closed!r}")
        return [float(row["c_eg"]) for row in rows], errors

    def oracle(self, inp, value) -> list[str]:
        return []  # every row is already checked against the closed form


class Composite:
    """Studies run back to back as one pass, each with its own checks and oracle."""

    def __init__(self, name: str, parts):
        self.name = name
        self.parts = parts

    def setup(self, seed: int, tmp: str) -> list:
        return [part.setup(seed, tmp) for part in self.parts]

    def run(self, inp):
        return [part.run(i) for part, i in zip(self.parts, inp)]

    def check(self, inp, raw):
        values, errors = [], []
        for part, i, r in zip(self.parts, inp, raw):
            value, part_errors = part.check(i, r)
            values.append(value)
            errors += [f"{part.name}: {e}" for e in part_errors]
        return values, errors

    def oracle(self, inp, value) -> list[str]:
        return [f"{part.name}: {e}" for part, i, v in zip(self.parts, inp, value)
                for e in part.oracle(i, v)]


# Two workloads rather than four, so that each run can be long: on a shared
# two-core machine the speed drifts by up to 1.5x over tens of seconds, and
# 25-second runs of the four studies apart spread by 13-27% across seeds.
WORKLOADS = {w.name: w for w in (
    Composite("montecarlo", (Resolve(), Simulate())),
    Composite("eg_sweep", (EG(), Sweep())),
)}
