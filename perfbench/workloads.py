"""The three workloads: inputs drawn from the seed, the processes of one
iteration, and the correctness gates on their outputs.

The seed draws only the physical parameter named for each workload, inside a
range where the amount of work is fixed (grid sizes, step counts and node
counts do not depend on it) and where every gate passed at both ends.  The
gate thresholds are the acceptance suite's.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Step:
    label: str
    job: list[str]   # child.py arguments after REPORT and TRACE


@dataclass(frozen=True)
class Workload:
    name: str
    min_iterations: int        # timed iterations per run even when --seconds is shorter
    warmup: int                # leading iterations that are checked but not timed
    draw: Callable             # random.Random -> params
    steps: Callable            # (params, out dir) -> [Step]
    gate: Callable             # (params, out dir, process records) -> [failure]

    def params(self, seed: int) -> dict:
        return self.draw(random.Random(f"{self.name}:{seed}"))


def _cli(out: str, *args) -> list[str]:
    return ["cli", "--output-dir", out, *args]


def _read(out: Path, name: str) -> dict:
    with open(out / name) as fh:
        return json.load(fh)


def rj_mass_energy(beta: float, gamma: float) -> tuple[float, float]:
    """Exact mass and energy of 1/(beta*omega + gamma) for gamma > beta > 0.

    M = 2 int_0^pi du / (gamma + beta sin u)
      = 4 (pi/2 - atan(beta/s)) / s  with  s = sqrt(gamma^2 - beta^2),
    and beta*E + gamma*M = 2 pi.  The package's quadrature agrees to ~1e-10.
    """
    s = math.sqrt(gamma * gamma - beta * beta)
    mass = 4.0 * (0.5 * math.pi - math.atan(beta / s)) / s
    return mass, (2.0 * math.pi - gamma * mass) / beta


# ---------------------------------------------------------------------------
# relax: `phononlab nonlin` at its defaults (n=256, cubic, dt=1.5, t_final=1e3)

def _relax_draw(rng):
    return {"eps": math.exp(rng.uniform(math.log(5e-3), math.log(2e-2)))}


def _relax_steps(p, out):
    return [Step("nonlin", _cli(out, "nonlin", "--eps", repr(p["eps"])))]


def _relax_gate(p, out, procs):
    r = _read(out, "nonlin.json")
    fails = []
    if not r["mass_drift"] <= 1e-6:
        fails.append(f"mass drift {r['mass_drift']:.3e} > 1e-6")
    if not r["energy_drift"] <= 1e-6:
        fails.append(f"energy drift {r['energy_drift']:.3e} > 1e-6")
    if not r["exponent_w12"] <= -0.5:
        fails.append(f"relaxation exponent {r['exponent_w12']:.3f} > -0.5")
    return fails


# ---------------------------------------------------------------------------
# spectral: rj-match, cold spectrum, warm lin-decay, multiplier; n=1024,
# (beta, gamma) = (b, 2b), all four sharing one output dir

SPECTRAL_N = "1024"


def _spectral_draw(rng):
    return {"b": rng.uniform(0.8, 1.25)}


def _spectral_steps(p, out):
    beta, gamma = p["b"], 2.0 * p["b"]
    mass, energy = rj_mass_energy(beta, gamma)
    eq = ["--grid-n", SPECTRAL_N, "--beta", repr(beta), "--gamma", repr(gamma)]
    return [
        Step("rj-match", _cli(out, "rj-match", "--mass", repr(mass), "--energy", repr(energy))),
        Step("spectrum", _cli(out, "spectrum", *eq)),
        Step("lin-decay", _cli(out, "lin-decay", *eq)),
        Step("multiplier", _cli(out, "multiplier", *eq)),
    ]


def _spectral_gate(p, out, procs):
    fails = []
    beta, gamma = p["b"], 2.0 * p["b"]
    m = _read(out, "match.json")
    if not m["matched"]:
        fails.append("rj-match did not match")
    else:
        err = max(m["roundtrip_residual"], abs(m["beta"] - beta) / beta,
                  abs(m["gamma"] - gamma) / gamma)
        if not err <= 1e-8:
            fails.append(f"rj-match round trip {err:.3e} > 1e-8")
    s = _read(out, "spectrum.json")
    if s["near_null_count"] != 2:
        fails.append(f"near-null count {s['near_null_count']} != 2")
    if not s["principal_angle_rad"] <= 1e-3:
        fails.append(f"principal angle {s['principal_angle_rad']:.3e} > 1e-3")
    if not s["dissipation_ratio_min"] > 0.0:
        fails.append(f"dissipation minimum {s['dissipation_ratio_min']:.4f} <= 0")
    d = _read(out, "decay.json")
    if not d["exponent_mu12"] <= -0.5:
        fails.append(f"mu=1/2 decay exponent {d['exponent_mu12']:.3f} > -0.5")
    if not abs(d["exponent_mu16"] + 0.4) <= 0.1:
        fails.append(f"mu=1/6 decay exponent {d['exponent_mu16']:.3f} not in -0.4+-0.1")
    writes = {pr["label"]: pr["cache_writes"] for pr in procs}
    if writes.get("spectrum") != 1 or writes.get("lin-decay") != 0:
        fails.append(f"operator cache not written once then hit: writes {writes}")
    f = _read(out, "fit.json")
    if not (len(f["fit_points_a"]) == 25 and all(a > 0.0 for a in f["fit_points_a"])):
        fails.append("multiplier fit points missing or not positive")
    return fails


# ---------------------------------------------------------------------------
# blowup: lp_blowup_norm at p=2 for eps in {2^-4, 2^-9}, then verify_suite

def _blowup_draw(rng):
    return {"p0": rng.uniform(1.8, 2.2)}


def _blowup_steps(p, out):
    return [Step("blowup", ["blowup", out, repr(p["p0"])])]


def _blowup_gate(p, out, procs):
    fails = []
    r4, r9 = _read(out, "blowup.json")["rows"]
    dlog = math.log(r9["eps"] / r4["eps"])
    slope = math.log(r9["norm"] / r4["norm"]) / dlog
    spike = math.log(r9["spike_peak"] / r4["spike_peak"]) / dlog
    if not abs(slope + 0.5) <= 0.1:
        fails.append(f"norm slope {slope:.3f} not in -0.5+-0.1")
    if not abs(spike + 1.5) <= 0.1:
        fails.append(f"spike slope {spike:.3f} not in -1.5+-0.1")
    bad = [k for k, v in _read(out, "verify.json").items() if not v["ok"]]
    if bad:
        fails.append(f"verify checks failed: {bad}")
    return fails


WORKLOADS = {w.name: w for w in (
    Workload("relax", 2, 0, _relax_draw, _relax_steps, _relax_gate),
    Workload("spectral", 3, 1, _spectral_draw, _spectral_steps, _spectral_gate),
    Workload("blowup", 1, 0, _blowup_draw, _blowup_steps, _blowup_gate),
)}
