"""Self-contained verification checks, runnable from the CLI.

Each check pits the simulator against an independent oracle (finite
differences, a straight-line minibatch loop, exhaustive enumeration, exact
integer identities) and reports a ``CheckResult``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import speedup as sp
from .engine import (
    ConstantTime,
    CustomSelection,
    LogNormalTime,
    MaxConcurrency,
    MiniBatch,
    SampledMiniBatch,
    Schedule,
    StopRule,
    StragglerTime,
    UniformClientSampling,
    constant_fleet,
    run_heterogeneous,
    run_homogeneous,
)
from .metrics import DelayLedger, delay_conservation
from .objectives import (
    NoiseModel,
    finite_difference_gradient,
    make_heterogeneous,
    make_logistic,
    make_quadratic,
)
from .rng import named_stream
from .stepsize import ConstantStepsize


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# oracles


def direct_minibatch_sgd(
    objective,
    noise: NoiseModel,
    eta: float,
    batch_size: int,
    n_batches: int,
    x0,
    master_seed: int = 0,
) -> np.ndarray:
    """Straight-line minibatch SGD, the reference the simulator must reproduce.

    Every batch evaluates all ``batch_size`` stochastic gradients at the
    batch-start point (noise drawn from each worker's own stream, in worker
    order) and applies them one at a time with the same stepsize.
    """
    x = np.array(x0, dtype=float)
    dim = x.shape[0]
    streams = [named_stream(master_seed, f"noise-worker-{w}") for w in range(batch_size)]
    scale = noise.sigma / math.sqrt(dim) if noise.sigma > 0 else 0.0
    for _ in range(n_batches):
        base = objective.gradient(x)
        grads = []
        for w in range(batch_size):
            if scale > 0.0:
                grads.append(base + scale * streams[w].standard_normal(dim))
            else:
                grads.append(base)
        for g in grads:
            x = x - eta * g
    return x


# ---------------------------------------------------------------------------
# fuzzing


def random_config(rng: np.random.Generator, max_iterations: int):
    """One random run of the fuzz's space: ``(workers, policy, objective_seed,
    sigma, cap, master_seed)``, for a dim-2 quadratic of ``objective_seed``
    under noise ``sigma`` and stepsize 1e-3 from the origin."""
    n = int(rng.integers(1, 17))
    workers = []
    for _ in range(n):
        kind = rng.integers(0, 3)
        if kind == 0:
            model = ConstantTime(float(rng.uniform(0.5, 4.0)))
        elif kind == 1:
            model = LogNormalTime(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.1, 0.8)))
        else:
            model = StragglerTime(float(rng.uniform(0.5, 2.0)), float(rng.uniform(1.0, 10.0)),
                                  float(rng.uniform(0.0, 0.3)))
        workers.append(model)

    roll = int(rng.integers(0, 5))
    if roll == 0:
        policy = MaxConcurrency()
    elif roll == 1:
        policy = MiniBatch()
    elif roll == 2:
        policy = SampledMiniBatch(batch_size=int(rng.integers(1, 2 * n + 1)))
    elif roll == 3:
        policy = UniformClientSampling(concurrency=int(rng.integers(1, 2 * n + 1)))
    else:
        def pick_idle(step: int, busy: tuple[int, ...], client_rng) -> list[int]:
            idle = [w for w, jobs in enumerate(busy) if jobs == 0]
            if not idle:
                return []
            take = int(client_rng.integers(0, len(idle) + 1))
            return idle[:take] if take else [idle[0]] if sum(busy) == 0 else []

        policy = CustomSelection(select=pick_idle)

    objective_seed = int(rng.integers(0, 2**31))
    sigma = float(rng.choice([0.0, 0.1]))
    t_max = int(10 ** rng.uniform(0.5, math.log10(max_iterations)))
    return workers, policy, objective_seed, sigma, max(1, t_max), int(rng.integers(0, 2**31))


def random_run(rng: np.random.Generator, max_iterations: int = 10**4) -> DelayLedger:
    """The delay ledger of one ``random_config`` run, from its schedule alone.

    The schedule never reads the iterate and the fuzz's runs end at their
    caps, so the objective and the noise cannot change the ledger.
    """
    workers, policy, _, _, cap, master_seed = random_config(rng, max_iterations)
    schedule = Schedule(workers, policy, master_seed)
    for _ in itertools.islice(schedule, cap + 1):  # the seeded jobs, then cap events
        pass
    return schedule.close()


# ---------------------------------------------------------------------------
# checks


def check_gradient_finite_differences(seed: int = 7, points: int = 10,
                                      tol: float = 1e-6) -> CheckResult:
    rng = np.random.default_rng(seed)
    quadratic = make_quadratic(10, 1.0, 2.0, seed=seed)
    logistic = make_logistic(100, 20, seed=seed)
    family = make_heterogeneous(make_quadratic(6, 1.0, 2.0, seed=seed + 1), 4, 1.0, seed=seed + 2)
    worst = 0.0
    cases = []
    for obj in (quadratic, logistic):
        for _ in range(points):
            cases.append((obj.value, obj.gradient, rng.standard_normal(obj.dim)))
    for client in range(family.n_clients):
        for _ in range(max(1, points // family.n_clients)):
            cases.append(
                (
                    lambda x, c=client: family.client_value(c, x),
                    lambda x, c=client: family.client_gradient(c, x),
                    rng.standard_normal(family.dim),
                )
            )
    for value_fn, grad_fn, x in cases:
        exact = grad_fn(x)
        approx = finite_difference_gradient(value_fn, x)
        rel = float(np.linalg.norm(exact - approx) / max(np.linalg.norm(exact), 1e-12))
        worst = max(worst, rel)
    return CheckResult(
        "gradient_finite_differences", worst <= tol,
        f"worst relative error {worst:.3e} over {len(cases)} points (tol {tol:g})",
    )


def check_noise_calibration(seed: int = 11, draws: int = 10**5) -> CheckResult:
    noise = NoiseModel(sigma=1.0)
    rng = named_stream(seed, "noise-worker-0")
    dim = 2
    samples = noise.sample((draws, dim), rng)
    mean_sq = float((samples**2).sum(axis=1).mean())
    ok = 0.99 <= mean_sq <= 1.01
    return CheckResult(
        "noise_calibration", ok,
        f"mean squared noise norm {mean_sq:.5f} over {draws} draws (want within [0.99, 1.01])",
    )


def check_heterogeneity_exactness(seed: int = 13, n_clients: int = 4) -> CheckResult:
    base = make_quadratic(8, 1.0, 2.0, seed=seed)
    family = make_heterogeneous(base, n_clients, 1.5, seed=seed + 1)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(family.dim)
        g = family.gradient(x)
        for c in range(n_clients):
            gap = family.client_gradient(c, x) - g - family.shifts[c]
            worst = max(worst, float(np.abs(gap).max()))
    ok = worst <= 1e-12
    return CheckResult(
        "heterogeneity_exactness", ok,
        f"max |grad_i - grad - shift_i| = {worst:.2e} (want <= 1e-12)",
    )


def check_delay_conservation_fuzz(n_configs: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    failures = 0
    first = ""
    for i in range(n_configs):
        check = delay_conservation(random_run(rng))
        if not check.passed:
            failures += 1
            if not first:
                first = f" (first failure at config {i}: lhs={check.lhs} rhs={check.rhs})"
    return CheckResult(
        "delay_conservation_fuzz", failures == 0,
        f"{n_configs - failures}/{n_configs} random schedules conserve delays{first}",
    )


def check_minibatch_matches_direct(seed: int = 17, batch_sizes=(2, 4, 8),
                                   cases: int = 5) -> CheckResult:
    worst = 0.0
    for n in batch_sizes:
        for case in range(cases):
            master = seed + 100 * n + case
            objective = make_quadratic(6, 1.0, 2.0, seed=master)
            noise = NoiseModel(sigma=0.5 if case % 2 else 0.0)
            eta = 0.02
            batches = 10
            x0 = np.zeros(6)
            trace = run_homogeneous(
                objective, noise, constant_fleet([1.0] * n), MiniBatch(),
                ConstantStepsize(eta), x0, StopRule(max_iterations=n * batches),
                master_seed=master,
            )
            reference = direct_minibatch_sgd(objective, noise, eta, n, batches, x0, master)
            scale = np.maximum(np.abs(reference), 1e-12)
            worst = max(worst, float(np.max(np.abs(trace.final_x - reference) / scale)))
    ok = worst <= 1e-12
    return CheckResult(
        "minibatch_matches_direct_sgd", ok,
        f"max relative coordinate gap {worst:.2e} vs straight-line minibatch (want <= 1e-12)",
    )


def check_speedup_oracle(seed: int = 19, enum_cases: int = 25, mc_cases: int = 20) -> CheckResult:
    rng = np.random.default_rng(seed)
    problems = []
    # the 900-fast/100-slow example fleet must come out near its known values
    fleet = sp.SpeedupInput((10.0,) * 900 + (60.0,) * 100, 10)
    a, m = sp.async_time(fleet), sp.minibatch_time(fleet)
    if not (a == 15.0 and 42.4 <= m <= 42.7):
        return CheckResult(
            "speedup_closed_form", False,
            f"reference fleet gave async={a} minibatch={m}",
        )
    for _ in range(enum_cases):
        n = int(rng.integers(2, 13))
        c_max = int(math.log(sp.ENUMERATION_BUDGET) / math.log(n))
        c = int(rng.integers(1, max(2, c_max + 1)))
        inp = sp.SpeedupInput(tuple(rng.uniform(1.0, 50.0, size=n)), c)
        exact = sp.minibatch_time(inp)
        oracle = sp.minibatch_time_oracle(inp, method="exhaustive")
        gap = abs(exact - oracle.estimate) / max(abs(exact), 1e-12)
        if oracle.method != "exhaustive" or gap > 1e-12:
            return CheckResult(
                "speedup_closed_form", False,
                f"enumeration mismatch {gap:.2e} at n={n} concurrency={c}",
            )
        problems.append(gap)
    for i in range(mc_cases):
        n = int(rng.integers(2, 200))
        c = int(rng.integers(1, 64))
        inp = sp.SpeedupInput(tuple(rng.uniform(1.0, 50.0, size=n)), c)
        exact = sp.minibatch_time(inp)
        est = sp.minibatch_time_oracle(inp, method="monte_carlo", samples=10**5, seed=seed + i)
        slack = 3.0 * est.stderr + 1e-9 * abs(exact)
        if abs(exact - est.estimate) > slack:
            return CheckResult(
                "speedup_closed_form", False,
                f"monte carlo gap {abs(exact - est.estimate):.3e} beyond {slack:.3e}",
            )
    return CheckResult(
        "speedup_closed_form", True,
        f"{enum_cases} exhaustive and {mc_cases} monte-carlo cases agree with the closed form",
    )


def check_determinism(seed: int = 23) -> CheckResult:
    objective = make_quadratic(4, 1.0, 2.0, seed=seed)
    family = make_heterogeneous(objective, 3, 1.0, seed=seed + 1)

    def run_once():
        homo = run_homogeneous(
            objective, NoiseModel(0.2), constant_fleet([1.0, 2.0, 3.0]), MaxConcurrency(),
            ConstantStepsize(0.05), np.zeros(4), StopRule(max_iterations=400),
            master_seed=seed,
        )
        hetero = run_heterogeneous(
            family, NoiseModel(0.1), constant_fleet([1.0, 1.5, 2.5]), 2,
            ConstantStepsize(0.05), np.zeros(4), StopRule(max_iterations=400),
            master_seed=seed,
        )
        return homo, hetero

    first = run_once()
    second = run_once()
    for a, b in zip(first, second):
        same = (
            np.array_equal(a.stepsizes, b.stepsizes)
            and np.array_equal(a.grad_norms, b.grad_norms)
            and np.array_equal(a.sim_times, b.sim_times)
            and np.array_equal(a.final_x, b.final_x)
            and a.ledger == b.ledger
        )
        if not same:
            return CheckResult(
                "determinism_bitwise", False, "replayed run differs from the original"
            )
    return CheckResult(
        "determinism_bitwise", True, "homogeneous and heterogeneous replays are bit-identical"
    )


def run_all(fuzz_configs: int, seed: int) -> list[CheckResult]:
    return [
        check_gradient_finite_differences(),
        check_noise_calibration(),
        check_heterogeneity_exactness(),
        check_delay_conservation_fuzz(n_configs=fuzz_configs, seed=seed),
        check_minibatch_matches_direct(),
        check_speedup_oracle(),
        check_determinism(),
    ]
