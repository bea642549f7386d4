"""Full-scale acceptance runs for the package's headline guarantees.

Every test here exercises one end-to-end claim at its contractual scale and
tolerance and prints a single [PASS] line with the measured numbers (run
with ``pytest tests/test_acceptance.py -v -s`` to see them).  The
tolerances are part of the contract: if one of these goes red, the package
behavior changed, and the fix belongs in the code, not in the threshold.
"""

import json
import math

import numpy as np
import pytest

from asgdsim import (
    ConstantStepsize,
    DelayAdaptiveStepsize,
    MaxConcurrency,
    MiniBatch,
    NoiseModel,
    StopRule,
    UniformClientSampling,
    constant_fleet,
    make_heterogeneous,
    make_logistic,
    make_quadratic,
    run_homogeneous,
)
from asgdsim import metrics
from asgdsim.cli import main, scaling_experiment
from asgdsim.objectives import finite_difference_gradient
from asgdsim.rng import named_stream
from asgdsim.speedup import (
    SpeedupInput,
    async_time,
    minibatch_time,
    minibatch_time_oracle,
    minibatch_weights,
    speedup_ratio,
)
from asgdsim.stepsize import (
    TuneOutcome,
    default_log_grid,
    grid_tune,
    theoretical_constant_eta,
)
from asgdsim.verify import random_run


def ok(line: str) -> None:
    print(f"\n[PASS] {line}")


def test_01_delay_conservation_exact_on_fuzzed_runs():
    """1,000 randomized runs (1-16 workers, every scheduling policy, caps up
    to 10^4) satisfy the delay/concurrency conservation identity with exact
    integer equality."""
    rng = np.random.default_rng(20260816)
    checked = 0
    for _ in range(1000):
        check = metrics.delay_conservation(random_run(rng))
        assert isinstance(check.lhs, int) and isinstance(check.rhs, int)
        assert check.lhs == check.rhs, (
            f"conservation broke on run {checked}: {check.lhs} != {check.rhs}")
        checked += 1
    ok(f"01 delay conservation: {checked}/1000 fuzzed runs exactly balanced")


def test_02_batch_time_closed_form_and_oracles():
    """The 900x10s + 100x60s fleet at concurrency 10 gives an async round of
    15.0 exactly and an expected batch maximum inside [42.4, 42.7]; the
    closed form agrees with exhaustive enumeration to 1e-12 relative
    wherever enumeration is feasible and with Monte-Carlo (10^5 draws)
    within 3 standard errors on 100 random fleets."""
    inp = SpeedupInput(tuple([10.0] * 900 + [60.0] * 100), concurrency=10)
    assert async_time(inp) == 15.0
    mb = minibatch_time(inp)
    assert 42.4 <= mb <= 42.7

    rng = np.random.default_rng(2)
    enum_checked = 0
    while enum_checked < 100:
        n = int(rng.integers(1, 10))
        c = int(rng.integers(1, 7))
        if n**c > 10**6:
            continue
        case = SpeedupInput(tuple(rng.uniform(0.1, 50.0, size=n)), concurrency=c)
        oracle = minibatch_time_oracle(case, method="exhaustive")
        assert not oracle.fell_back
        closed = minibatch_time(case)
        assert abs(closed - oracle.estimate) <= 1e-12 * abs(oracle.estimate)
        enum_checked += 1

    mc_checked = 0
    worst_sigma = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 400))
        c = int(rng.integers(1, 9))
        case = SpeedupInput(tuple(rng.uniform(0.1, 50.0, size=n)), concurrency=c)
        oracle = minibatch_time_oracle(case, method="monte_carlo",
                                       samples=10**5, seed=int(rng.integers(2**31)))
        gap = abs(minibatch_time(case) - oracle.estimate)
        # the 1e-12 relative floor covers degenerate fleets (all speeds
        # equal) where the sample variance collapses to rounding noise
        slack = 3 * oracle.stderr + 1e-12 * oracle.estimate
        if oracle.stderr > 1e-12 * oracle.estimate:
            worst_sigma = max(worst_sigma, gap / oracle.stderr)
        assert gap <= slack
        mc_checked += 1
    ok(f"02 batch-time closed form: fleet example 15.0 / {mb:.6f}, "
       f"{enum_checked} exhaustive matches at 1e-12, "
       f"{mc_checked} Monte-Carlo matches (worst {worst_sigma:.2f} sigma)")


def test_03_batch_round_never_beats_async_round():
    """On 10^4 random fleets the expected batch maximum dominates the plain
    mean, and the rank weights always sum to 1 within 1e-12."""
    rng = np.random.default_rng(3)
    worst_sum = 0.0
    for _ in range(10**4):
        n = int(rng.integers(1, 30))
        c = int(rng.integers(1, 12))
        case = SpeedupInput(tuple(rng.uniform(0.01, 100.0, size=n)), concurrency=c)
        assert minibatch_time(case) >= async_time(case) * (1 - 1e-12)
        w = minibatch_weights(n, c)
        worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
        assert worst_sum <= 1e-12
    ok(f"03 ordering: 10000 fleets, batch >= async everywhere, "
       f"worst weight-sum error {worst_sum:.2e}")


def test_04_iterations_scale_with_sqrt_max_delay():
    """Two-worker straggler sweeps (slow factors 1..256, target 1e-14,
    per-point stepsize tuning) put iterations-to-target on a line in
    sqrt(max delay) with R^2 >= 0.95 for both problem presets."""
    factors = [1, 4, 16, 64, 256]
    r2 = {}
    for preset in ("quadratic", "logistic"):
        report = scaling_experiment(preset, factors, epsilon=1e-14, seed=0)
        assert report.fit is not None
        for point in report.points:
            assert not point.eta_on_grid_edge, (
                f"{preset}: tuned eta hit the grid edge at x{point.slow_factor:g}")
            assert point.observed_max_delay == point.slow_factor or \
                point.slow_factor == 1
        r2[preset] = report.fit.r_squared
        assert report.fit.r_squared >= 0.95, (
            f"{preset} fit R^2 {report.fit.r_squared:.4f} below 0.95")
        assert report.fit.slope > 0
    ok(f"04 scaling linearity: R^2 quadratic {r2['quadratic']:.4f}, "
       f"logistic {r2['logistic']:.4f} (threshold 0.95)")


def direct_minibatch_sgd(objective, sigma, eta, batch_size, n_batches, x0, master_seed):
    """Independent straight-line minibatch loop: every gradient of a batch is
    evaluated at the batch-start point, noise drawn from per-worker streams
    in worker order, applied one at a time."""
    x = np.array(x0, dtype=float)
    dim = x.shape[0]
    streams = [named_stream(master_seed, f"noise-worker-{w}") for w in range(batch_size)]
    scale = sigma / math.sqrt(dim)
    points = [x.copy()]
    for _ in range(n_batches):
        base = objective.gradient(x)
        grads = [base + scale * streams[w].standard_normal(dim)
                 for w in range(batch_size)]
        for g in grads:
            x = x - eta * g
        points.append(x.copy())
    return points


def test_05_batch_policy_reproduces_direct_minibatch_sgd():
    """The batch-of-n scheduling policy yields iterates equal to a direct
    minibatch SGD loop (1e-12 relative per coordinate) at every batch
    boundary, for n in {2, 4, 8} on 20 random quadratics.  The iterate at
    boundary k is the final point of a run capped at k * n iterations."""
    rng = np.random.default_rng(5)
    compared = 0
    for case in range(20):
        obj = make_quadratic(int(rng.integers(2, 7)), 0.5, 2.0,
                             seed=int(rng.integers(2**31)))
        x0 = rng.standard_normal(obj.dim)
        master = int(rng.integers(2**31))
        for n in (2, 4, 8):
            n_batches = 25
            direct = direct_minibatch_sgd(obj, 0.1, 0.05, n, n_batches, x0, master)
            for k in range(1, n_batches + 1):
                trace = run_homogeneous(
                    obj, NoiseModel(0.1), constant_fleet([1.0] * n), MiniBatch(),
                    ConstantStepsize(0.05), x0, StopRule(max_iterations=k * n),
                    master_seed=master)
                np.testing.assert_allclose(
                    trace.final_x, direct[k], rtol=1e-12, atol=1e-15,
                    err_msg=f"case {case}, batch size {n}, boundary {k}")
            compared += 1
    ok(f"05 minibatch equivalence: {compared} runs matched the direct loop "
       f"at every batch boundary (rtol 1e-12)")


def test_06_theoretical_stepsize_reaches_target():
    """With the analysis stepsize eta = 1/(2L sqrt(tau_max tau_C)) and equal
    constant-speed workers, the quadratic preset drives the gradient below
    1e-10 within 10^5 iterations for concurrency 1, 2 and 4."""
    obj = make_quadratic(10, 1.0, 2.0, seed=42)
    stop = StopRule(max_iterations=10**5, grad_tol=1e-10)
    iters = {}
    for tau_c in (1, 2, 4):
        eta = theoretical_constant_eta(obj.smoothness, tau_c, tau_c)
        trace = run_homogeneous(obj, NoiseModel(0.0), constant_fleet([1.0] * tau_c),
                                MaxConcurrency(), ConstantStepsize(eta),
                                np.zeros(10), stop, master_seed=0)
        assert trace.converged and trace.stop_reason == "target"
        assert trace.final_grad_norm <= 1e-10
        assert metrics.max_delay(trace.ledger) <= tau_c
        iters[tau_c] = len(trace)
    assert iters == {1: 159, 2: 307, 4: 601}
    ok(f"06 theoretical stepsize: grad norm 1e-10 reached in "
       f"{iters[1]}/{iters[2]}/{iters[4]} iterations for concurrency 1/2/4")


def test_07_delay_adaptive_rule_survives_a_straggler():
    """One worker delivers a single gradient with delay about equal to the
    horizon.  Both delay-adaptive modes stay within 2x of the straggler-free
    baseline error at equal iteration count; the constant stepsize tuned on
    the clean fleet does not."""
    obj = make_quadratic(10, 1.0, 2.0, seed=42)
    noise = NoiseModel(0.2)
    x0 = 4.0 * np.ones(10)
    stop = StopRule(max_iterations=800)

    def run_with(stepsize, fleet):
        return run_homogeneous(obj, noise, fleet, MaxConcurrency(), stepsize,
                               x0, stop, master_seed=7)

    clean = constant_fleet([1.0])

    def tune_runner(eta, budget):
        trace = run_with(ConstantStepsize(eta), clean)
        return TuneOutcome(iterations_to_target=None,
                           final_error=metrics.last_k_error(trace),
                           diverged=trace.diverged)

    tuned = grid_tune(tune_runner, default_log_grid(), criterion="min_final_error")
    base_error = metrics.last_k_error(run_with(ConstantStepsize(tuned.best_eta), clean))

    straggler = constant_fleet([1.0, 786.0])
    ratios = {}
    for name, rule in (
        ("constant", ConstantStepsize(tuned.best_eta)),
        ("scale", DelayAdaptiveStepsize(tuned.best_eta, obj.smoothness, 2, mode="scale")),
        ("drop", DelayAdaptiveStepsize(tuned.best_eta, obj.smoothness, 2, mode="drop")),
    ):
        trace = run_with(rule, straggler)
        assert metrics.max_delay(trace.ledger) == 786  # the late gradient landed
        ratios[name] = metrics.last_k_error(trace) / base_error

    assert ratios["scale"] <= 2.0
    assert ratios["drop"] <= 2.0
    assert ratios["constant"] > 2.0
    ok(f"07 delay-adaptive robustness: error ratios vs clean baseline "
       f"scale {ratios['scale']:.3f}, drop {ratios['drop']:.3f} (bound 2.0), "
       f"constant {ratios['constant']:.1f}")


def test_08_gradients_match_finite_differences():
    """Analytic gradients of every objective family agree with central
    finite differences to 1e-6 relative at 10 random points each."""
    rng = np.random.default_rng(8)
    quad = make_quadratic(6, 0.5, 3.0, seed=int(rng.integers(2**31)))
    logi = make_logistic(40, 8, seed=int(rng.integers(2**31)))
    hetero = make_heterogeneous(make_quadratic(5, 1.0, 2.0, seed=3), 4, 0.7,
                                seed=int(rng.integers(2**31)))
    worst = 0.0
    cases = 0
    for obj, fn in (
        (quad, quad.value),
        (logi, logi.value),
        (hetero, hetero.value),
    ):
        for _ in range(10):
            x = rng.standard_normal(obj.dim)
            approx = finite_difference_gradient(fn, x)
            exact = obj.gradient(x)
            rel = np.linalg.norm(approx - exact) / max(np.linalg.norm(exact), 1e-12)
            worst = max(worst, rel)
            assert rel <= 1e-6
            cases += 1
    # per-client tilted gradients of the heterogeneous family as well
    for client in range(hetero.n_clients):
        x = rng.standard_normal(hetero.dim)
        approx = finite_difference_gradient(lambda y: hetero.client_value(client, y), x)
        exact = hetero.client_gradient(client, x)
        rel = np.linalg.norm(approx - exact) / max(np.linalg.norm(exact), 1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-6
        cases += 1
    ok(f"08 gradient correctness: {cases} finite-difference checks, "
       f"worst relative error {worst:.2e} (tolerance 1e-6)")


def test_09_client_sampling_is_uniform():
    """Over 10^5 iterations of uniform client sampling with 10 clients, each
    client's sample count sits within 4 standard deviations of its share."""
    obj = make_quadratic(2, 1.0, 2.0, seed=1)
    trace = run_homogeneous(obj, NoiseModel(0.0), constant_fleet([1.0] * 10),
                            UniformClientSampling(concurrency=4),
                            ConstantStepsize(1e-4), np.zeros(2),
                            StopRule(max_iterations=10**5), master_seed=123)
    counts = trace.ledger.samples_per_client
    n = 10
    total = sum(counts.values())
    assert total >= 10**5  # every iteration consumed a sample
    p = 1.0 / n
    sd = math.sqrt(total * p * (1 - p))
    z = {c: (counts.get(c, 0) - total * p) / sd for c in range(n)}
    worst = max(abs(v) for v in z.values())
    assert worst < 4.0
    ok(f"09 sampling uniformity: {total} samples over {n} clients, "
       f"worst |z| = {worst:.2f} (bound 4)")


def test_10_cli_runs_are_byte_identical(tmp_path):
    """Running any command twice with the same config and seed produces
    byte-identical CSV and JSON outputs."""
    config = {
        "seed": 11,
        "objective": {"family": "quadratic", "dim": 4,
                      "lambda_min": 1.0, "lambda_max": 2.0},
        "workers": [{"time": "lognormal", "mu": 0.0, "sigma": 0.6, "count": 3},
                    {"time": "straggler", "delta": 1.0, "slow_factor": 8.0,
                     "straggle_prob": 0.1}],
        "policy": {"kind": "uniform_client_sampling", "concurrency": 3},
        "stop": {"max_iterations": 400},
        "noise_sigma": 0.3,
        "stepsize": {"kind": "constant", "eta": 0.05},
        "tuning": {"criterion": "min_final_error", "values": [0.01, 0.05, 0.2]},
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))

    compared = []
    jobs = [
        (["simulate", str(cfg)], ("trace.csv", "metrics.json", "config.json")),
        (["tune", str(cfg)], ("tuning.json", "best_trace.csv", "best_metrics.json")),
        (["speedup", "--deltas", "10:40,60:5", "--concurrency", "6",
          "--oracle", "monte_carlo", "--mc-samples", "20000"],
         ("speedup.json", "weights.csv")),
    ]
    for argv, names in jobs:
        first, second = tmp_path / f"{argv[0]}_a", tmp_path / f"{argv[0]}_b"
        for out in (first, second):
            code = main(argv + ["--out", str(out)])
            assert code == 0, f"{argv[0]} exited {code}"
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), (
                f"{argv[0]}: {name} differs between identical runs")
            compared.append(f"{argv[0]}/{name}")
    ok(f"10 determinism: {len(compared)} output files byte-identical "
       f"across repeated runs")
