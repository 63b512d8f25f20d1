"""Ablation — shared RED queue vs per-flow DRR at the base station.

The paper's §6.2 models the cell with one shared RED queue; §3 notes
real base stations keep per-user queues.  This ablation reruns the
Verus-vs-Cubic contention under both queue models.  Expected shape:

* under the shared queue, Cubic's bufferbloat inflates *everyone's*
  delay, so the co-existing Verus flows suffer;
* under per-flow DRR, Verus flows keep their own short queues and their
  delay advantage survives Cubic's presence — while aggregate capacity
  sharing stays comparable.
"""

import numpy as np

from repro.cellular import generate_scenario_trace
from repro.experiments import FlowSpec, format_table
from repro.metrics import flow_stats
from repro.netsim import DRRQueue, Dumbbell, REDQueue, Simulator, TraceLink
from repro.experiments.runner import make_endpoints


def run_mixed(queue_factory, duration=60.0, seed=33):
    trace = generate_scenario_trace("city_stationary", duration=duration,
                                    technology="3g", mean_rate_bps=16e6,
                                    seed=seed)
    sim = Simulator()
    rng = np.random.default_rng(seed)
    link = TraceLink(sim, trace, queue=queue_factory(rng), delay=0.005,
                     loop=True, rng=rng)
    bell = Dumbbell(sim, link, default_rtt=0.01)
    specs = ([FlowSpec("verus", label="verus", options={"r": 2.0})
              for _ in range(3)]
             + [FlowSpec("cubic", label="cubic") for _ in range(3)])
    flow_seeds = np.random.SeedSequence(seed).spawn(len(specs))
    receivers = []
    for flow_id, (spec, flow_seed) in enumerate(zip(specs, flow_seeds)):
        sender, receiver = make_endpoints(spec, flow_id, flow_seed)
        bell.add_flow(sender, receiver)
        receivers.append((spec.label, receiver))
    sim.run(until=duration)

    out = {}
    for label in ("verus", "cubic"):
        stats = [flow_stats(r.deliveries, start=10.0, end=duration)
                 for l, r in receivers if l == label]
        out[label] = {
            "throughput_mbps": float(np.mean([s.throughput_mbps
                                              for s in stats])),
            "mean_delay_ms": float(np.mean([s.mean_delay_ms
                                            for s in stats])),
        }
    return out


def run_ablation():
    shared = run_mixed(lambda rng: REDQueue.paper_config(rng=rng))
    per_flow = run_mixed(
        lambda rng: DRRQueue(per_flow_capacity_bytes=9_000_000 // 8))
    rows = []
    for model, result in (("shared_red", shared), ("per_flow_drr", per_flow)):
        for label, stats in result.items():
            rows.append({"queue_model": model, "protocol": label, **stats})
    return rows


def test_ablation_queue_model(run_once):
    rows = run_once(run_ablation)

    print()
    print(format_table(rows, title="Ablation: shared RED vs per-flow DRR"))

    def get(model, protocol):
        return next(r for r in rows
                    if r["queue_model"] == model and r["protocol"] == protocol)

    # Per-flow queues isolate Verus from Cubic's bufferbloat: its delay
    # advantage over co-existing Cubic must widen dramatically.
    shared_gap = (get("shared_red", "cubic")["mean_delay_ms"]
                  / max(get("shared_red", "verus")["mean_delay_ms"], 1e-9))
    drr_gap = (get("per_flow_drr", "cubic")["mean_delay_ms"]
               / max(get("per_flow_drr", "verus")["mean_delay_ms"], 1e-9))
    assert drr_gap > 2.0 * shared_gap
    assert get("per_flow_drr", "verus")["mean_delay_ms"] < 100.0
    # Verus still moves data under both models.
    for model in ("shared_red", "per_flow_drr"):
        assert get(model, "verus")["throughput_mbps"] > 0.2
