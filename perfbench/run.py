"""rwcosmo benchmark: end-to-end metrics per workload, or a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense_output --seed 0 --seconds 50 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):

    dense_output   cli.main simulate + verify at the reference point,
                   tol 1e-8 and sample_dt 0.001
    sweep_grid     run_sweep on a 16-row plan, in-process (workers=1)

The package is imported from ``src/`` of the checkout; nothing is installed.
Each operation's output is checked (see ``check`` of each runner); an
operation that raises, exits non-zero or fails a check counts as failed,
the untimed warm-up operation included.
Before measuring, the harness feeds its checker one deliberately corrupted
output and stops with exit code 3 if that is not counted as failed.

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` spends half the time untraced and half traced, wrapping the
package's public module attributes from outside (spans.py), and prints the
per-layer metrics; on sweep_grid the untraced half also times the sweep
with the default (auto) workers.  Spans go to ``.perfbench/traces/`` in the checkout.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Optional

import workloads as wl
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
EXPECTED = json.loads((HERE / "expected.json").read_text())

SETUP_REPEATS = 15
IMPORTTIME_REPEATS = 5
TAIL_PERCENTILE = 80


class HarnessError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def load_package():
    """Import rwcosmo from this checkout's src/, never from elsewhere."""
    if not (SRC / "rwcosmo" / "__init__.py").is_file():
        raise HarnessError(f"no rwcosmo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rwcosmo
    if Path(rwcosmo.__file__).resolve().parent != (SRC / "rwcosmo").resolve():
        raise HarnessError(f"imported rwcosmo from {rwcosmo.__file__}, not from {SRC}")
    return rwcosmo


def _bits(column):
    return column.view("u8").copy()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _guarded(fn, *args) -> tuple[object, Optional[str]]:
    """(fn(*args), None), or (None, reason) when it raises."""
    try:
        return fn(*args), None
    except Exception as exc:  # an op that raises is a failed op
        return None, f"raised {type(exc).__name__}: {exc}"


def _check(runner, result) -> Optional[str]:
    """Why ``result`` is wrong, or None; a check that raises is a failure."""
    reason, raised = _guarded(runner.check, result)
    return f"check {raised}" if raised else reason


def bump_digit(text: str, position: int = 12) -> str:
    """Change the ``position``-th significant digit of a decimal number.

    Any change at the 12th of 17 significant digits moves the value by about
    1e-11 relative: a different double, far below every verifier tolerance.
    """
    mantissa_end = len(text.lower().split("e")[0])
    seen = 0
    last = None
    for i, ch in enumerate(text[:mantissa_end]):
        if ch.isdigit() and (seen or ch != "0"):
            seen += 1
            last = i
            if seen == position:
                break
    if last is None:
        raise HarnessError(f"no significant digit in {text!r}")
    return text[:last] + str((int(text[last]) + 1) % 10) + text[last + 1:]


class DenseOutput:
    """One op = ``main(["simulate", ini])`` then ``main(["verify", out])``."""

    def __init__(self, rwcosmo, seed: int, workdir: Path):
        from rwcosmo import cli, serialize
        self.cli = cli
        self.serialize = serialize
        self.ini, self.out = wl.prepare("dense_output", seed, workdir)
        self.rows_per_op = 1
        inp = wl.dense_input(seed)
        params = rwcosmo.ModelParams(lam=inp.lam, mass=inp.mass)
        data = rwcosmo.make_initial_data(params, a0=inp.a0, phi0=inp.phi0, chi0=inp.chi0,
                                         rho0=inp.rho0, branch="expanding")
        config = rwcosmo.IntegratorConfig(rel_tol=inp.tol, abs_tol=inp.tol, t_end=inp.t_end,
                                          sample_dt=inp.sample_dt, mode="paper")
        # The in-memory trajectory every written-and-read-back one must equal.
        self.expected, self.expected_error = _guarded(
            lambda: {c: _bits(a) for c, a in
                     rwcosmo.integrate(data, params, config).as_arrays().items()})
        self.constraint_budget = rwcosmo.Tolerances().constraint_budget
        self.pinned = None
        if seed == EXPECTED["default_seed"]:
            pinned = EXPECTED["pinned_final_state"]
            self.pinned = ({k: pinned[k] for k in ("u", "v", "phi", "rho")},
                           pinned["rel_err_per_tol"] * inp.tol)

    def run(self, between: Optional[Callable[[], None]] = None):
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc_simulate = self.cli.main(["simulate", str(self.ini)])
            if between is not None:
                between()
            rc_verify = self.cli.main(["verify", str(self.out)])
        return rc_simulate, rc_verify, log.getvalue()

    def check(self, result) -> Optional[str]:
        rc_simulate, rc_verify, log = result
        if (rc_simulate, rc_verify) != (0, 0):
            return (f"exit codes simulate={rc_simulate} verify={rc_verify}: "
                    f"{log.strip()[-300:]}")
        if self.expected_error:
            return f"the in-memory reference integrate {self.expected_error}"
        cols = self.serialize.read_trajectory(self.out).as_arrays()
        for name, bits in self.expected.items():
            got = _bits(cols[name])
            if got.shape != bits.shape or (got != bits).any():
                return f"read_trajectory round trip is not bit-exact in column {name!r}"
        worst = float(abs(cols["constraint"]).max())
        if not worst <= self.constraint_budget:
            return f"max |constraint| = {worst:.3g} above budget {self.constraint_budget:g}"
        if self.pinned is not None:
            values, rel = self.pinned
            for name, want in values.items():
                got = float(cols[name][-1])
                if not abs(got - want) <= rel * abs(want):
                    return f"final {name} = {got!r} misses pinned {want!r} by more than {rel:g}"
        return None

    def _alter_one_digit(self) -> None:
        path = self.out / "trajectory.csv"
        lines = path.read_text().split("\n")
        row = len(lines) // 2
        col = lines[0].split(",").index("v")
        fields = lines[row].split(",")
        fields[col] = bump_digit(fields[col])
        lines[row] = ",".join(fields)
        path.write_text("\n".join(lines))

    def self_check(self, warm) -> Optional[str]:
        """Check an op whose trajectory.csv had one digit of v altered before verify read it."""
        return self.check(self.run(between=self._alter_one_digit))

    def counters(self, result) -> dict:
        traj = self.serialize.read_trajectory(self.out)
        return {
            "steps_accepted": traj.stats.steps_accepted,
            "steps_rejected": traj.stats.steps_rejected,
            "rhs_evaluations": traj.stats.rhs_evaluations,
            "samples": int(traj.as_arrays()["t"].size),
            "trajectory_sha256": _sha256((self.out / "trajectory.csv").read_bytes()),
        }


class SweepGrid:
    """One op = ``run_sweep(plan)`` on the 16-row plan, then its sweep table.

    The plan runs in-process (see ``workloads.prepare``) unless
    ``default_workers`` switched it to the package's auto worker count.
    """

    def __init__(self, seed: int, workdir: Path):
        from rwcosmo import sweep
        self.sweep = sweep
        self.inp = wl.sweep_input(seed)
        self.plan = wl.prepare("sweep_grid", seed, workdir)
        self.rows_per_op = self.plan.size
        self.table: Optional[str] = None  # first op's table

    @contextlib.contextmanager
    def default_workers(self):
        """Inside, run with the worker pool ``rwcosmo sweep`` users get."""
        serial, self.plan = self.plan, dataclasses.replace(self.plan, workers=None)
        try:
            yield
        finally:
            self.plan = serial

    def run(self):
        rows = self.sweep.run_sweep(self.plan)
        return rows, self.sweep.sweep_table_csv(rows)

    def check(self, result) -> Optional[str]:
        rows, table = result
        points = self.inp.points()
        if len(rows) != len(points):
            return f"{len(rows)} rows for a {len(points)}-point plan"
        for i, (row, (lam, mass, chi0)) in enumerate(zip(rows, points)):
            if (row.lam, row.mass, row.chi0, row.phi0, row.rho0) != \
                    (lam, mass, chi0, self.inp.phi0, self.inp.rho0):
                return f"row {i} is out of plan order"
            want = self.inp.expected_status(lam, mass, chi0)
            if row.status != want:
                return f"row {i}: status {row.status!r} where admissibility implies {want!r}"
        if self.table is None:
            self.table = table
        elif table != self.table:
            return "sweep table differs from the first op's (not deterministic)"
        return None

    def self_check(self, warm) -> Optional[str]:
        """Check the warm-up op's rows in reverse order."""
        rows, table = warm
        return self.check((rows[::-1], table))

    def counters(self, result) -> dict:
        rows, table = result
        return {
            "rows": len(rows),
            "rows_ok": sum(r.status == wl.STATUS_OK for r in rows),
            "rows_flagged": sum(r.status != wl.STATUS_OK for r in rows),
            "sweep_csv_sha256": _sha256(table.encode()),
        }


class Children:
    """Counts the distinct child processes seen while sampling is on.

    ``end_op`` returns the count since the previous call: a sweep's worker
    pool lives for one op.
    """

    def __init__(self, interval: float = 0.05):
        self._interval = interval
        self._seen: set[int] = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "Children":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            for task in Path(f"/proc/{os.getpid()}/task").iterdir():
                try:
                    pids = task.joinpath("children").read_text().split()
                except OSError:
                    continue  # thread ended since listed
                with self._lock:
                    self._seen.update(pids)

    def end_op(self) -> int:
        with self._lock:
            seen, self._seen = self._seen, set()
        return len(seen)


def measure(runner, seconds: float, op_context=contextlib.nullcontext,
            after_op: Optional[Callable[[], None]] = None):
    """Closed loop, one client: run ops until ``seconds`` have passed.

    Returns (latencies, failure reasons, last result).  Only the op itself
    is timed; its check runs after the clock stops.  Time spent in
    ``after_op`` does not count towards ``seconds``.
    """
    latencies: list[float] = []
    failures: list[str] = []
    result = None
    deadline = time.perf_counter() + seconds
    while True:
        with op_context():
            start = time.perf_counter()
            result, error = _guarded(runner.run)
            latencies.append(time.perf_counter() - start)
        if after_op is not None:
            paused = time.perf_counter()
            after_op()
            deadline += time.perf_counter() - paused
        if error is None:
            error = _check(runner, result)
        if error is not None:
            failures.append(error)
        if time.perf_counter() >= deadline:
            return latencies, failures, result


def tail(latencies: list[float]) -> tuple[float, int]:
    """(value, ops above it) of the TAIL_PERCENTILE-th percentile.

    The percentile is fixed, not chosen from the op count, so that a faster
    program, which fits more ops into a run, is compared at the same one.
    p80 leaves about ten ops above it on dense_output at 50 s; a sweep_grid
    run has only about 16 ops, so its tail rests on three or four.
    """
    if len(latencies) < 2:
        return latencies[0], 0
    value = statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(t > value for t in latencies)


def _fresh_python(code: str, *flags: str) -> tuple[float, str]:
    """Wall time and stderr of a fresh interpreter running ``code``."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise HarnessError(f"fresh interpreter failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stderr


def setup_time(workload: str, seed: int, workdir: Path) -> float:
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
            "import pathlib, rwcosmo.cli, workloads\n"
            f"workloads.prepare({workload!r}, {seed!r}, pathlib.Path({str(workdir)!r}))")
    return _fresh_python(code)[0]


def import_times() -> tuple[float, float]:
    """Median (import rwcosmo.cli, of which numpy) from ``-X importtime``, in s."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import rwcosmo.cli"
    cli_s, numpy_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        stderr = _fresh_python(code, "-X", "importtime")[1]
        total = numpy = 0.0
        for line in stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative_us = int(parts[1])
            name = parts[2][1:]
            if name.startswith("rwcosmo"):  # top level: rwcosmo, rwcosmo.cli
                total += cumulative_us
            elif name.strip() == "numpy" and not numpy:
                numpy = cumulative_us
        cli_s.append(total / 1e6)
        numpy_s.append(numpy / 1e6)
    return statistics.median(cli_s), statistics.median(numpy_s)


def per_call_us(fn: Callable[[], object], budget_s: float = 0.3) -> float:
    """Median per-call time over batches of about 10 ms each, in µs."""
    batch = 1
    while True:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        if time.perf_counter() - start >= 0.01:
            break
        batch *= 2
    per_call = []
    deadline = time.perf_counter() + budget_s
    while time.perf_counter() < deadline or len(per_call) < 5:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        per_call.append((time.perf_counter() - start) / batch)
    return statistics.median(per_call) * 1e6


def micro_layers(rwcosmo) -> dict[str, float]:
    """rhs(), step() and make_initial_data() at the reference state."""
    p = wl.REFERENCE_POINT
    params = rwcosmo.ModelParams(lam=p["lam"], mass=p["mass"])

    def initial():
        return rwcosmo.make_initial_data(params, a0=p["a0"], phi0=p["phi0"],
                                         chi0=p["chi0"], rho0=p["rho0"])

    state = rwcosmo.build_state(initial())
    config = rwcosmo.IntegratorConfig()
    return {
        "model.rhs_us": per_call_us(lambda: rwcosmo.rhs(state, params)),
        "integrator.step_us": per_call_us(lambda: rwcosmo.step(state, params, 0.01, config)),
        "initial.make_initial_data_us": per_call_us(initial),
    }


def compare_counters(workload: str, seed: int, got: dict) -> list[str]:
    if seed != EXPECTED["default_seed"]:
        return [f"counters (seed {seed}, none pinned): {json.dumps(got)}"]
    want = EXPECTED["counters"][workload]
    moved = [f"counter moved: {k} expected {want.get(k)!r} got {got.get(k)!r}"
             for k in sorted(set(want) | set(got)) if want.get(k) != got.get(k)]
    return moved or [f"counters unchanged: {json.dumps(got)}"]


def end_to_end(workload, seed, seconds, runner, workdir, lines):
    """End-to-end metrics of an untraced run.

    Set-up is timed in a fresh interpreter between ops, about every
    seconds/SETUP_REPEATS, so that its samples see the host as the ops do.
    """
    setups: list[float] = []
    next_setup = [time.perf_counter()]

    def take_setup():
        setups.append(setup_time(workload, seed, workdir / "setup"))
        next_setup[0] += seconds / SETUP_REPEATS

    def after():
        if time.perf_counter() >= next_setup[0]:
            take_setup()

    latencies, failures, result = measure(runner, seconds, after_op=after)
    while len(setups) < SETUP_REPEATS:
        take_setup()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not failures:
        lines += compare_counters(workload, seed, runner.counters(result))
    tail_s, above = tail(latencies)
    n = len(latencies)
    lines.append(f"ops: {n} in {sum(latencies):.2f} s of op time; latency_tail_s is "
                 f"p{TAIL_PERCENTILE} with {above} ops above it; setup_s is the median "
                 f"of {len(setups)} fresh interpreters taken between ops")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_s, "s"),
        "runs_per_s": (runner.rows_per_op * n / sum(latencies), "1/s"),
        "peak_rss_mb": (self_kb / 1024.0, "MB"),
    }
    return metrics, n, failures


def wrap_layers(tr: Tracer, trajectories: list) -> list[str]:
    """Wrap each layer's public attributes; returns those that are absent."""
    from rwcosmo import cli, diagnostics, integrator, serialize, sweep

    def verified(report):
        tr.count("diagnostics.checks_failed", sum(not c.passed for c in report.checks))

    def written(paths):
        for p in paths if isinstance(paths, list) else [paths]:
            tr.count("serialize.bytes_written", os.path.getsize(p))

    def swept(rows):
        tr.count("sweep.rows_ok", sum(r.status == wl.STATUS_OK for r in rows))
        tr.count("sweep.rows_flagged", sum(r.status != wl.STATUS_OK for r in rows))
        tr.set_max("sweep.row_s_max", max(r.wall_time for r in rows))

    targets = [
        (cli, "cmd_simulate", "cli.simulate", None),
        (cli, "cmd_verify", "cli.verify", None),
        (cli, "integrate", "integrator.integrate", trajectories.append),
        (sweep, "integrate", "integrator.integrate", trajectories.append),
        (cli, "verify", "diagnostics.verify", verified),
        (sweep, "verify", "diagnostics.verify", verified),
        (cli, "write_trajectory", "serialize.write_trajectory", written),
        (cli, "read_trajectory", "serialize.read_trajectory", None),
        (cli, "write_report", "serialize.write_report", written),
        (serialize, "trajectory_csv_text", "serialize.trajectory_csv_text", None),
        (serialize, "derived_csv_text", "serialize.derived_csv_text", None),
        (diagnostics, "verify_bounds", "diagnostics.verify_bounds", None),
        (diagnostics, "verify_quadrature", "diagnostics.verify_quadrature", None),
        (diagnostics, "q_identity_check", "diagnostics.q_identity_check", None),
        (diagnostics, "verify_asymptotics", "diagnostics.verify_asymptotics", None),
        (integrator.Trajectory, "as_arrays", "integrator.as_arrays", None),
        (sweep, "run_sweep", "sweep.run_sweep", swept),
        (sweep, "sweep_table_csv", "sweep.sweep_table_csv", None),
    ]
    missing = []
    for owner, attr, span, hook in targets:
        if hasattr(owner, attr):
            tr.wrap(owner, attr, span, hook)
        else:
            missing.append(f"{owner.__name__}.{attr}")
    return missing


def traced(workload, seed, seconds, runner, rwcosmo, lines):
    """Half the time untraced, half traced; returns per-layer metrics.

    A sweep is traced in-process, as wrappers do not cross processes; a
    quarter of the time goes to untraced sweeps with the default workers,
    as the base of ``sweep.run_sweep_s``, ``sweep.workers`` and
    ``sweep.speedup``.
    """
    is_sweep = isinstance(runner, SweepGrid)
    plain, failures, _ = measure(runner, seconds / (4 if is_sweep else 2))
    pooled: list[float] = []
    worker_counts = [0]
    if is_sweep:
        with Children() as children, runner.default_workers():
            pooled, pooled_failures, _ = measure(
                runner, seconds / 4, after_op=lambda: worker_counts.append(children.end_op()))
        failures += pooled_failures

    trajectories: list = []
    with Tracer() as tr:
        missing = wrap_layers(tr, trajectories)
        as_arrays = tr.original(rwcosmo.Trajectory, "as_arrays")

        @contextlib.contextmanager
        def traced_op():
            with tr.op():
                yield
            for traj in trajectories:  # counted after the op's clock stopped
                cols = as_arrays(traj)
                tr.count("integrator.steps_accepted", traj.stats.steps_accepted)
                tr.count("integrator.steps_rejected", traj.stats.steps_rejected)
                tr.count("integrator.rhs_evaluations", traj.stats.rhs_evaluations)
                tr.count("integrator.samples", cols["t"].size)
                tr.count("integrator.events", len(traj.events))
                tr.set_max("diagnostics.max_constraint", float(abs(cols["constraint"]).max()))
            trajectories.clear()

        latencies, traced_failures, _ = measure(runner, seconds / 2, op_context=traced_op)
        trace_path = STATE_DIR / "traces" / f"{workload}-seed{seed}.jsonl"
        tr.write(trace_path)
        per_op = tr.per_op()
    failures += traced_failures

    def med(key: str) -> float:
        return statistics.median(counts.get(key, 0.0) for counts in per_op)

    def total(span: str) -> float:
        return med(span + ".total_s")

    accepted = med("integrator.steps_accepted")
    steps = accepted + med("integrator.steps_rejected")
    rhs_evaluations = med("integrator.rhs_evaluations")
    run_sweep_s = statistics.median(pooled) if is_sweep else 0.0
    overhead = statistics.median(latencies) / statistics.median(plain) - 1.0
    import_s, import_numpy_s = import_times()
    metrics = {
        **{k: (v, "us") for k, v in micro_layers(rwcosmo).items()},
        "integrator.us_per_step": (total("integrator.integrate") / steps * 1e6, "us"),
        "integrator.rhs_per_step": (rhs_evaluations / steps, "count"),
        "integrator.rhs_evaluations": (rhs_evaluations, "count"),
        "integrator.steps_accepted": (accepted, "count"),
        "integrator.steps_rejected": (med("integrator.steps_rejected"), "count"),
        "integrator.accept_ratio": (accepted / steps, "ratio"),
        "integrator.samples": (med("integrator.samples"), "count"),
        "integrator.events": (med("integrator.events"), "count"),
        "integrator.integrate_s": (total("integrator.integrate"), "s"),
        "integrator.as_arrays_s": (total("integrator.as_arrays"), "s"),
        "integrator.as_arrays_calls": (med("integrator.as_arrays.calls"), "count"),
        "serialize.write_trajectory_s": (total("serialize.write_trajectory"), "s"),
        "serialize.trajectory_csv_text_s": (total("serialize.trajectory_csv_text"), "s"),
        "serialize.derived_csv_text_s": (total("serialize.derived_csv_text"), "s"),
        "serialize.read_trajectory_s": (total("serialize.read_trajectory"), "s"),
        "serialize.write_report_s": (total("serialize.write_report"), "s"),
        "serialize.bytes_written": (med("serialize.bytes_written"), "B"),
        "diagnostics.verify_s": (total("diagnostics.verify"), "s"),
        "diagnostics.verify_bounds_s": (total("diagnostics.verify_bounds"), "s"),
        "diagnostics.verify_quadrature_s": (total("diagnostics.verify_quadrature"), "s"),
        "diagnostics.q_identity_check_s": (total("diagnostics.q_identity_check"), "s"),
        "diagnostics.verify_asymptotics_s": (total("diagnostics.verify_asymptotics"), "s"),
        "diagnostics.checks_failed": (med("diagnostics.checks_failed"), "count"),
        "diagnostics.max_constraint": (med("diagnostics.max_constraint"), "1"),
        "sweep.run_sweep_s": (run_sweep_s, "s"),
        "sweep.workers": (max(worker_counts), "count"),
        "sweep.rows_ok": (med("sweep.rows_ok"), "count"),
        "sweep.rows_flagged": (med("sweep.rows_flagged"), "count"),
        "sweep.row_s_max": (med("sweep.row_s_max"), "s"),
        "sweep.serial_s": (total("sweep.run_sweep"), "s"),
        "sweep.speedup": (statistics.median(plain) / run_sweep_s if is_sweep else 0.0, "ratio"),
        "sweep.sweep_table_csv_s": (total("sweep.sweep_table_csv"), "s"),
        "cli.import_s": (import_s, "s"),
        "cli.import_numpy_s": (import_numpy_s, "s"),
        "cli.simulate_s": (total("cli.simulate"), "s"),
        "cli.verify_s": (total("cli.verify"), "s"),
        "cli.self_s": (med("cli.simulate.self_s") + med("cli.verify.self_s"), "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    pool = f" and {len(pooled)} with the default workers" if is_sweep else ""
    lines.append(f"traced {len(latencies)} ops after {len(plain)} untraced{pool}; per-op values "
                 f"are medians over traced ops; spans in {trace_path.relative_to(ROOT)}")
    if is_sweep:
        lines.append("sweep traced in-process (wrappers do not cross processes); "
                     "cli.* and serialize.* read 0: a sweep makes no CLI call and no file I/O")
    else:
        lines.append("sweep.* read 0: this workload runs no sweep")
    if missing:
        lines.append(f"not wrapped (attribute absent, its metrics read 0): {', '.join(missing)}")
    return metrics, len(plain) + len(pooled) + len(latencies), failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        rwcosmo = load_package()
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workdir = STATE_DIR / f"run-{os.getpid()}"
    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
             f"trace {args.trace}"]
    try:
        if args.workload == "sweep_grid":
            runner = SweepGrid(args.seed, workdir)
        else:
            runner = DenseOutput(rwcosmo, args.seed, workdir)
        # The warm-up op fills caches and lazy set-up before timing.  It and
        # the self-check op are checked like any other and count as attempted.
        warm, error = _guarded(runner.run)
        untimed = [error or _check(runner, warm)]
        if untimed[0] is not None:
            lines.append("self-check skipped: the warm-up op failed")
        else:
            caught, raised = _guarded(runner.self_check, warm)
            if raised:
                untimed.append(f"self-check op {raised}")
            elif caught is None:
                raise HarnessError("self-check: a corrupted output was not counted as failed")
            else:
                lines.append(f"self-check: corrupted output counted as failed ({caught})")
        measure_run = traced if args.trace else end_to_end
        extra = (rwcosmo,) if args.trace else (workdir,)
        metrics, attempted, failures = measure_run(args.workload, args.seed, args.seconds,
                                                   runner, *extra, lines)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted += len(untimed)
    failures[:0] = [f"untimed op: {e}" for e in untimed if e is not None]

    lines.append(f"error_rate: {len(failures) / attempted!r} "
                 f"({len(failures)} of {attempted} ops failed)")
    for reason in sorted(set(failures)):
        lines.append(f"FAILED ({failures.count(reason)}x): {reason}")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:36s} {value:>16.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
