"""Named channel scenarios mirroring the paper's measurement campaigns.

§5.3 of the paper collects 5-minute traces in seven scenarios — "Campus
stationary, Campus pedestrian, City stationary, City driving, Highway
driving, Shopping Mall and City waterfront" — on a 3G HSPA+ network at
5 Mbps downlink / 2.5 Mbps uplink per device.  §3 additionally measures two
operators (Etisalat- and Du-like presets) on 3G and LTE.

Each scenario maps to a :class:`~repro.cellular.channel_model.ChannelParams`
preset whose mobility class sets the fading volatility and outage behaviour:

* ``stationary`` — slow OU drift, no outages.
* ``pedestrian`` — moderate drift, rare brief outages.
* ``driving`` — fast drift, regular outages (handovers).
* ``highway`` — fastest drift, frequent longer outages.
* ``indoor`` (mall) — slow drift but deep shadowing variance.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

import numpy as np

from .channel_model import CellularChannelModel, ChannelParams

#: The seven trace-collection scenarios of §5.3, in paper order.
SCENARIO_NAMES = [
    "campus_stationary",
    "campus_pedestrian",
    "city_stationary",
    "city_driving",
    "highway_driving",
    "shopping_mall",
    "city_waterfront",
]

#: The five scenarios used for the §6.2 trace-driven contention evaluation
#: (the paper reports fairness "across all five different scenarios").
EVALUATION_SCENARIOS = [
    "campus_pedestrian",
    "city_stationary",
    "city_driving",
    "highway_driving",
    "shopping_mall",
]

_MOBILITY = {
    "stationary": dict(fading_theta=0.3, fading_sigma=0.18,
                       fast_fading_sigma=0.12, outage_rate=0.0,
                       outage_duration=0.0),
    "pedestrian": dict(fading_theta=0.5, fading_sigma=0.30,
                       fast_fading_sigma=0.18, outage_rate=0.01,
                       outage_duration=0.3),
    "driving": dict(fading_theta=0.9, fading_sigma=0.45,
                    fast_fading_sigma=0.25, outage_rate=0.05,
                    outage_duration=0.5),
    "highway": dict(fading_theta=1.2, fading_sigma=0.60,
                    fast_fading_sigma=0.30, outage_rate=0.08,
                    outage_duration=0.8),
    "indoor": dict(fading_theta=0.25, fading_sigma=0.40,
                   fast_fading_sigma=0.20, outage_rate=0.02,
                   outage_duration=0.4),
}

_SCENARIO_MOBILITY = {
    "campus_stationary": "stationary",
    "campus_pedestrian": "pedestrian",
    "city_stationary": "stationary",
    "city_driving": "driving",
    "highway_driving": "highway",
    "shopping_mall": "indoor",
    "city_waterfront": "pedestrian",
}

#: Technology presets: 3G HSPA+ serves rarer, bigger bursts; LTE serves
#: frequent small bursts (paper Fig 2: "LTE networks exhibit more frequent
#: smaller bursts").
_TECHNOLOGY = {
    "3g": dict(technology="3g", serve_prob=0.18, burst_sigma=0.85,
               peak_rate_bps=42e6, loss_rate=0.002),
    "lte": dict(technology="lte", serve_prob=0.55, burst_sigma=0.55,
                peak_rate_bps=150e6, loss_rate=0.001),
}

#: Operator flavours for the §3 measurement reproduction (Fig 2): the two
#: UAE operators differ mildly in scheduler granularity and load.
_OPERATOR = {
    "etisalat": dict(),
    "du": dict(serve_prob_scale=0.8, burst_sigma_delta=0.1),
}

#: Default downlink rates used in the paper's trace collection.
DEFAULT_RATE_BPS = {"3g": 5e6, "lte": 10e6}
UPLINK_RATE_BPS = {"3g": 2.5e6, "lte": 5e6}


def scenario_params(name: str, technology: str = "3g",
                    mean_rate_bps: Optional[float] = None,
                    operator: str = "etisalat",
                    direction: str = "downlink") -> ChannelParams:
    """Build the channel parameters for a named measurement scenario.

    ``direction`` selects the paper's downlink (default) or uplink
    configuration; the uplink runs at the §5.3 uplink rates (e.g.
    2.5 Mbps on 3G HSPA+) with a sparser grant schedule, matching the
    paper's note that "the observations are similar on the uplink".
    """
    if name not in _SCENARIO_MOBILITY:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    if technology not in _TECHNOLOGY:
        raise ValueError(f"unknown technology {technology!r}")
    if operator not in _OPERATOR:
        raise ValueError(f"unknown operator {operator!r}")
    if direction not in ("downlink", "uplink"):
        raise ValueError(f"direction must be 'downlink' or 'uplink'")

    tech = dict(_TECHNOLOGY[technology])
    op = _OPERATOR[operator]
    serve_prob = tech.pop("serve_prob") * op.get("serve_prob_scale", 1.0)
    burst_sigma = tech.pop("burst_sigma") + op.get("burst_sigma_delta", 0.0)
    mobility = _MOBILITY[_SCENARIO_MOBILITY[name]]
    if direction == "uplink":
        # Uplink grants are scheduled more sparsely (request/grant cycle)
        # and the default rate drops to the uplink provisioning.
        serve_prob *= 0.7
        default_rate = UPLINK_RATE_BPS[technology]
    else:
        default_rate = DEFAULT_RATE_BPS[technology]
    rate = mean_rate_bps if mean_rate_bps is not None else default_rate

    return ChannelParams(
        name=f"{name}/{technology}/{operator}/{direction}",
        mean_rate_bps=rate,
        serve_prob=serve_prob,
        burst_sigma=burst_sigma,
        **tech,
        **mobility,
    )


def generate_scenario_trace(name: str, duration: float = 300.0,
                            technology: str = "3g",
                            mean_rate_bps: Optional[float] = None,
                            operator: str = "etisalat",
                            direction: str = "downlink",
                            seed: int = 0) -> np.ndarray:
    """Delivery-opportunity trace for a named scenario (default 5 minutes,
    matching the paper's collection runs)."""
    params = scenario_params(name, technology=technology,
                             mean_rate_bps=mean_rate_bps, operator=operator,
                             direction=direction)
    model = CellularChannelModel(params, rng=np.random.default_rng(seed))
    return model.generate(duration)


def operator_presets() -> Dict[str, ChannelParams]:
    """The four §3 measurement configurations of Fig 2."""
    combos = [("du", "3g"), ("etisalat", "3g"), ("du", "lte"), ("etisalat", "lte")]
    return {
        f"{op}_{tech}": scenario_params("city_stationary", technology=tech,
                                        operator=op)
        for op, tech in combos
    }


def mobile_variant(params: ChannelParams, mobility: str) -> ChannelParams:
    """Re-class an existing preset into another mobility class."""
    if mobility not in _MOBILITY:
        raise ValueError(f"unknown mobility class {mobility!r}")
    return replace(params, **_MOBILITY[mobility])
