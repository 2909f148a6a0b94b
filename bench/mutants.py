"""Audit the verifier by mutation: which checks catch which integrator defects.

    PYTHONPATH=src python bench/mutants.py

Each mutant is one small defect patched into rwcosmo.integrator while its
runs integrate, and undone on exit:
- one component of the right-hand side (du, dv, dphi, dchi) scaled by
  1 + 1e-2 or 1 + 1e-4, and dv also by 1 + 1e-3 and 1 + 1e-5;
- the exact frozen tail with its u or phi column scaled by 1 + 1e-4, its
  lambda scaled by 1 + 1e-4, or its freeze time t_f moved by 1e-4;
- a Dormand-Prince weight moved: _B3 + 1e-6 (the solution), _A32 + 1e-4 (a
  stage) or _D4 * 1.01 (the dense output).

Every mutant runs the reference point (lambda = m = a0 = phi0 = 1, chi0 =
0.1, rho0 = 0.05) and the admissible draws among bench/domain.py's first 40
(draw i named ``draw<i>``), each integrated in paper mode with the default
IntegratorConfig at sample_dt 0.0025, where no unmutated run fails, and
verified.  A check kills a mutant on a run when it fails on the mutated run
and not on the unmutated one; the pair (mutant, run) is caught when some
check kills it.  Prints one JSON object: the runs, the failing checks of any
unmutated run (``unmutated_failed``, empty at this spacing), ``matrix``
(per mutant, per check, the number of runs on which the check kills it),
``caught`` (per mutant, the runs on which it is caught), ``kills`` (per
check, the number of mutants it kills on some run) and ``uncaught`` (the
mutants caught on no run).  bench/mutants_caught.json is the ``caught``
block as committed; tests/test_bench.py requires each of its pairs to stay
caught.
"""

import json
from collections import Counter
from dataclasses import replace
from unittest.mock import patch

from domain import admissible, draws
from rwcosmo import IntegratorConfig, ModelParams, integrate, integrator, make_initial_data, verify
from rwcosmo.model import _rhs_terms

SAMPLE_DT = 0.0025
DRAWS = 40
frozen_tail = integrator.frozen_tail  # the unpatched tail, which the tail mutants wrap


def scaled_rhs(component: int, factor: float):
    """The right-hand side with its ``component``-th derivative scaled."""
    def terms(*args):
        out = list(_rhs_terms(*args))
        out[component] *= factor
        return tuple(out)
    return patch.object(integrator, "_rhs_terms", terms)


def scaled_tail_column(column: int, factor: float):
    """The frozen tail with one column of its states scaled."""
    def tail(*args):
        rows = frozen_tail(*args)
        rows[:, column] *= factor
        return rows
    return patch.object(integrator, "frozen_tail", tail)


def tail_lambda(factor: float):
    """The frozen tail computed with lambda scaled."""
    def tail(t_f, y_f, anchor, params, times):
        return frozen_tail(t_f, y_f, anchor, replace(params, lam=params.lam * factor), times)
    return patch.object(integrator, "frozen_tail", tail)


def tail_shift(dt: float):
    """The frozen tail started at t_f + dt."""
    def tail(t_f, *args):
        return frozen_tail(t_f + dt, *args)
    return patch.object(integrator, "frozen_tail", tail)


#: Each mutant by name: a function returning the patch that makes it.
MUTANTS = {
    "du*(1+1e-2)": lambda: scaled_rhs(0, 1 + 1e-2),
    "du*(1+1e-4)": lambda: scaled_rhs(0, 1 + 1e-4),
    "dv*(1+1e-2)": lambda: scaled_rhs(1, 1 + 1e-2),
    "dv*(1+1e-3)": lambda: scaled_rhs(1, 1 + 1e-3),
    "dv*(1+1e-4)": lambda: scaled_rhs(1, 1 + 1e-4),
    "dv*(1+1e-5)": lambda: scaled_rhs(1, 1 + 1e-5),
    "dphi*(1+1e-2)": lambda: scaled_rhs(2, 1 + 1e-2),
    "dphi*(1+1e-4)": lambda: scaled_rhs(2, 1 + 1e-4),
    "dchi*(1+1e-2)": lambda: scaled_rhs(3, 1 + 1e-2),
    "dchi*(1+1e-4)": lambda: scaled_rhs(3, 1 + 1e-4),
    "tail_u*(1+1e-4)": lambda: scaled_tail_column(0, 1 + 1e-4),
    "tail_phi*(1+1e-4)": lambda: scaled_tail_column(2, 1 + 1e-4),
    "tail_lambda*(1+1e-4)": lambda: tail_lambda(1 + 1e-4),
    "tail_t_f+1e-4": lambda: tail_shift(1e-4),
    "_B3+1e-6": lambda: patch.object(integrator, "_B3", integrator._B3 + 1e-6),
    "_A32+1e-4": lambda: patch.object(integrator, "_A32", integrator._A32 + 1e-4),
    "_D4*1.01": lambda: patch.object(integrator, "_D4", integrator._D4 * 1.01),
}


def runs() -> dict:
    """(params, data) of each run, by name: the reference point, then the
    admissible draws."""
    params = ModelParams(lam=1.0, mass=1.0)
    out = {"reference": (params, make_initial_data(params, 1.0, 1.0, 0.1, 0.05, "expanding"))}
    for i, point in enumerate(draws(DRAWS)):
        built = admissible(point)
        if built is not None:
            out[f"draw{i}"] = built
    return out


def checks(params, data, config) -> dict[str, bool]:
    """Each check of the verified run by name: whether it passed."""
    return {c.name: c.passed for c in verify(integrate(data, params, config)).checks}


def main() -> dict:
    config = replace(IntegratorConfig(), sample_dt=SAMPLE_DT)
    named = runs()
    clean = {name: checks(*built, config) for name, built in named.items()}
    names = sorted({check for run in clean.values() for check in run})
    matrix, caught = {}, {}
    for mutant, make in MUTANTS.items():
        kills = Counter()
        caught[mutant] = []
        with make():
            for name, built in named.items():
                killed = {check for check, passed in checks(*built, config).items()
                          if not passed and clean[name].get(check, True)}
                kills.update(killed)
                if killed:
                    caught[mutant].append(name)
        matrix[mutant] = dict(sorted(kills.items()))
    return {
        "sample_dt": SAMPLE_DT,
        "runs": list(named),
        "unmutated_failed": {name: sorted(c for c, passed in run.items() if not passed)
                             for name, run in clean.items() if not all(run.values())},
        "matrix": matrix,
        "caught": caught,
        "kills": {check: sum(check in kills for kills in matrix.values()) for check in names},
        "uncaught": [mutant for mutant, where in caught.items() if not where],
    }


if __name__ == "__main__":
    print(json.dumps(main(), indent=1))
