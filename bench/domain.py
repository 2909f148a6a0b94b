"""Verify random draws over the admissible domain: the calibration recipe.

    PYTHONPATH=src python bench/domain.py [-n N] [--sample-dt DT ...]
                                          [--mode {paper,kg}] [--t-end T]

Draws N parameter sets (default 40) from numpy.random.default_rng(12345),
in this order per draw: lambda = U(-5, 5), m = U(0.05, 3), phi0 =
U(0.05, 3), then chi0 = U(0, 2) with probability 1/2 and 0 otherwise, and
rho0 the same way as chi0.  Each draw's data come from make_initial_data
with a0 = 1 on the expanding branch; a draw is admissible when it has a
real branch and validate_theorem1 applies.  Each admissible draw is
integrated with the default IntegratorConfig, for each sample spacing
(repeatable; default the config's 0.01) in each mode (both unless --mode is
given), and verified.  Prints one JSON object: per mode and spacing the
counts by status and by failing check, and one row per draw with its
parameters, status, failing checks, freeze time t_f (FieldFrozen or the
first ChiZeroCrossing; null if none) and accepted steps.  A run that a
run limit ended (GuardTripped) is verified as it stands.
"""

import argparse
import json
from collections import Counter
from dataclasses import replace

import numpy as np

from rwcosmo import (IntegratorConfig, ModelParams, integrate, make_initial_data,
                     validate_theorem1, verify)
from rwcosmo.initial import NoRealBranch
from rwcosmo.integrator import CHI_ZERO_CROSSING, FIELD_FROZEN

SEED = 12345


def draws(n: int) -> list[dict]:
    """The first n draws of the recipe, in order."""
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(n):
        lam = rng.uniform(-5.0, 5.0)
        mass = rng.uniform(0.05, 3.0)
        phi0 = rng.uniform(0.05, 3.0)
        chi0 = rng.uniform(0.0, 2.0) if rng.random() < 0.5 else 0.0
        rho0 = rng.uniform(0.0, 2.0) if rng.random() < 0.5 else 0.0
        out.append(dict(lam=float(lam), mass=float(mass), phi0=float(phi0), chi0=float(chi0),
                        rho0=float(rho0)))
    return out


def admissible(point: dict):
    """(params, data) of an admissible draw, else None."""
    params = ModelParams(lam=point["lam"], mass=point["mass"])
    try:
        data = make_initial_data(params, 1.0, point["phi0"], point["chi0"], point["rho0"],
                                 "expanding")
    except NoRealBranch:
        return None
    return (params, data) if validate_theorem1(params, data).theorem1_applicable else None


def run(params, data, config) -> dict:
    traj = integrate(data, params, config)
    report = verify(traj)
    freezes = [e.t for e in traj.events if e.kind in (FIELD_FROZEN, CHI_ZERO_CROSSING)]
    return {"status": report.status, "failed": [c.name for c in report.checks if not c.passed],
            "t_f": freezes[0] if freezes else None, "steps": traj.stats.steps_accepted}


def main(n: int, sample_dts: list[float], modes: list[str], t_end: float) -> dict:
    points = draws(n)
    runs = [(p, admissible(p)) for p in points]
    runs = [(p, built) for p, built in runs if built is not None]
    series = []
    for mode in modes:
        for dt in sample_dts:
            config = replace(IntegratorConfig(), mode=mode, sample_dt=dt, t_end=t_end)
            rows = [{**p, **run(*built, config)} for p, built in runs]
            series.append({
                "mode": mode, "sample_dt": dt,
                "counts": dict(sorted(Counter(r["status"] for r in rows).items())),
                "failing_checks": dict(sorted(Counter(
                    name for r in rows for name in r["failed"]).items())),
                "rows": rows})
    return {"seed": SEED, "draws": n, "admissible": len(runs), "t_end": t_end,
            "series": series}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", type=int, default=40, help="number of draws")
    parser.add_argument("--sample-dt", type=float, action="append", dest="sample_dts",
                        help="sample spacing (repeatable)")
    parser.add_argument("--mode", choices=("paper", "kg"), help="only this mode")
    parser.add_argument("--t-end", type=float, default=IntegratorConfig().t_end)
    args = parser.parse_args()
    print(json.dumps(main(args.n, args.sample_dts or [IntegratorConfig().sample_dt],
                          [args.mode] if args.mode else ["paper", "kg"], args.t_end),
                     indent=1))
