"""Perf benchmark for the batched posterior-predictive engine.

Times ``VariationalBNN.predict`` on the paper's MLP regression workload
(Listings 1-2 shape: a 1-50-1 tanh network on a 1-D grid) at
``num_predictions=32`` against a per-sample ``guided_forward`` loop (the
reference oracle, one traced pass per posterior sample) and asserts

* the batched path is at least 3x faster than the loop, and
* both produce identical stacked and aggregated predictions under the same
  RNG seed (``atol=1e-8``).

The two are timed in interleaved rounds and compared via the median
per-round ratio, so machine-load drift hits both sides equally.  The
measured timings are written to ``benchmarks/BENCH_predict.json`` so future
PRs can track the trajectory of this hot path.
"""

from functools import partial

import numpy as np
from _harness import interleaved_rounds, record, record_bench, run_once

from repro import nn, ppl
import repro.core as tyxe
from repro.ppl import distributions as dist

NUM_PREDICTIONS = 32
MIN_SPEEDUP = 3.0
ROUNDS = 5


def _make_bnn(rng, x):
    net = nn.Sequential(nn.Linear(1, 50, rng=rng), nn.Tanh(), nn.Linear(50, 1, rng=rng))
    return tyxe.VariationalBNN(net, tyxe.priors.IIDPrior(dist.Normal(0.0, 1.0)),
                               tyxe.likelihoods.HomoskedasticGaussian(len(x), 0.1),
                               partial(tyxe.guides.AutoNormal, init_scale=0.05,
                                       init_loc_fn=tyxe.guides.init_to_normal("radford")))


def _looped_predict(bnn, x, num_predictions):
    """The reference oracle: one traced ``guided_forward`` per sample."""
    with nn.no_grad():
        return nn.Tensor(np.stack([bnn.guided_forward(nn.Tensor(x)).data
                                   for _ in range(num_predictions)]))


def test_vectorized_predict_speedup(benchmark, speedup_gate):
    rng = np.random.default_rng(0)
    x = np.linspace(-2.0, 2.0, 100).reshape(-1, 1)
    bnn = _make_bnn(rng, x)
    bnn.predict(x, num_predictions=1)  # instantiate guide parameters

    # numerical equivalence under a shared seed
    ppl.set_rng_seed(42)
    looped = _looped_predict(bnn, x, NUM_PREDICTIONS)
    ppl.set_rng_seed(42)
    vectorized = bnn.predict(x, num_predictions=NUM_PREDICTIONS, aggregate=False)
    np.testing.assert_allclose(vectorized.data, looped.data, atol=1e-8, rtol=0)
    ppl.set_rng_seed(42)
    agg_looped = bnn.likelihood.aggregate_predictions(
        _looped_predict(bnn, x, NUM_PREDICTIONS))
    ppl.set_rng_seed(42)
    agg_vectorized = bnn.predict(x, num_predictions=NUM_PREDICTIONS)
    np.testing.assert_allclose(agg_vectorized.data, agg_looped.data, atol=1e-8, rtol=0)

    speedup, t_looped, t_vectorized = interleaved_rounds(
        lambda: _looped_predict(bnn, x, NUM_PREDICTIONS),
        lambda: bnn.predict(x, num_predictions=NUM_PREDICTIONS, aggregate=False),
        rounds=ROUNDS)

    run_once(benchmark, bnn.predict, x, num_predictions=NUM_PREDICTIONS,
             aggregate=False)
    record(benchmark, looped_ms=t_looped * 1e3, vectorized_ms=t_vectorized * 1e3,
           speedup=speedup, num_predictions=NUM_PREDICTIONS)

    # gate first: the trajectory file must only hold gate-passing numbers
    speedup_gate(speedup, MIN_SPEEDUP,
                 detail=f"looped {t_looped * 1e3:.2f}ms, vectorized {t_vectorized * 1e3:.2f}ms")

    record_bench("predict", {
        "workload": "mlp_regression_predict",
        "num_predictions": NUM_PREDICTIONS,
        "grid_points": int(x.shape[0]),
        "looped_seconds": t_looped,
        "vectorized_seconds": t_vectorized,
        "speedup": speedup,
        # median of per-round ratios (interleaved rounds), NOT the quotient of
        # the median times above — the two can differ slightly under load
        "speedup_definition": "median_of_interleaved_round_ratios",
        "rounds": ROUNDS,
        "min_required_speedup": MIN_SPEEDUP,
    })
