"""Schema-conformant synthetic flow generator with tunable class separability.

Labels are drawn uniformly over the three classes. Each feature of each row
comes from a class-conditional distribution with probability signal_strength
and from a shared class-agnostic distribution otherwise, so strength 0 makes
features independent of labels while strength 1 gives nearly disjoint
class-conditional ranges (BTC/USD/netflow tiers, protocol and threat mixes).
Each column is drawn as one array, and the arrays form the FlowTable that
`generate_records` returns, so no per-row record is built.
"""

from __future__ import annotations

import numpy as np

from flowbench.flow_data import CANONICAL_COLUMNS, FlowTable, TextColumn

_FAMILY_POOLS = {
    0: ["EDA2", "Flyper", "Globe", "JigSaw", "NoobCrypt", "Razy"],
    1: ["CryptXXX", "CryptoLocker", "Cryptohitman", "DMALocker", "Locky", "TeslaCrypt"],
    2: ["APT", "CryptoLocker2015", "DMALockerv3", "SamSam", "WannaCry"],
}
_ALL_FAMILIES = sorted(f for pool in _FAMILY_POOLS.values() for f in pool)

_PROTOCOLS = ["TCP", "UDP", "ICMP"]
_PROTOCOL_SHARED = [0.5, 0.4, 0.1]
_PROTOCOL_CLASS = {0: [0.1, 0.8, 0.1], 1: [0.85, 0.1, 0.05], 2: [0.3, 0.1, 0.6]}

_FLAGS = ["A", "AF", "AP", "FPA", "R"]
_FLAG_SHARED = [0.35, 0.1, 0.35, 0.1, 0.1]
_FLAG_CLASS = {
    0: [0.7, 0.1, 0.1, 0.05, 0.05],
    1: [0.1, 0.1, 0.7, 0.05, 0.05],
    2: [0.05, 0.4, 0.05, 0.4, 0.1],
}

_THREATS = ["Blacklist", "Botnet", "Scan", "Spam", "SSH", "UDP Scan"]
_THREAT_SHARED = [0.15, 0.25, 0.2, 0.15, 0.15, 0.1]
_THREAT_CLASS = {
    0: [0.4, 0.0, 0.6, 0.0, 0.0, 0.0],
    1: [0.0, 0.7, 0.0, 0.3, 0.0, 0.0],
    2: [0.0, 0.0, 0.0, 0.0, 0.5, 0.5],
}

_IP_CLASSES = ["A", "B", "C"]
_IP_SHARED = [0.4, 0.35, 0.25]
_IP_CLASS = {0: [0.7, 0.2, 0.1], 1: [0.2, 0.6, 0.2], 2: [0.1, 0.2, 0.7]}

_PORTS = [22, 80, 443, 5061, 5062, 8080]
_PORT_SHARED = [1 / 6] * 6
_PORT_CLASS = {
    0: [0.0, 0.0, 0.0, 0.5, 0.5, 0.0],
    1: [0.0, 0.5, 0.5, 0.0, 0.0, 0.0],
    2: [0.5, 0.0, 0.0, 0.0, 0.0, 0.5],
}

# (shared_range, per-class ranges), all inclusive integer bounds
_BTC_RANGES = ((0, 1200), {0: (0, 10), 1: (300, 500), 2: (900, 1200)})
_USD_RANGES = ((0, 20000), {0: (0, 600), 1: (5000, 8000), 2: (15000, 20000)})
_NETFLOW_RANGES = ((1, 12000), {0: (1, 500), 1: (2000, 4000), 2: (8000, 12000)})
_CLUSTER_RANGES = ((1, 6), {0: (1, 2), 1: (3, 4), 2: (5, 6)})

_SEED_ADDRESSES = [
    "1AEoiHYZ",
    "1BonuSr7",
    "1DA11mPS",
    "1DiCeTjB",
    "1Gebru3w",
    "1LaqEKxh",
    "1PyqNahY",
    "1SYSTEMQ",
]
_EXP_ADDRESSES = [
    "1BgxLnVt",
    "1CryptoN",
    "1DqNnLkA",
    "1FusionX",
    "1KeyRansm",
    "1MxVault",
    "1QvZoVvD",
    "1Trnqish",
]


def generate_records(n: int, seed: int, signal_strength: float = 1.0) -> FlowTable:
    """Generate a table of n schema-valid records; deterministic for a fixed seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= signal_strength <= 1.0:
        raise ValueError("signal_strength must be in [0, 1]")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=n)

    # Values are drawn from object arrays so that text columns hold plain
    # str, as parsed ones do; a numpy string array would give np.str_ values.
    def mixed_choice(values, shared_p, class_p):
        values = np.array(values, dtype=object)
        out = rng.choice(values, size=n, p=shared_p)
        gate = rng.random(n) < signal_strength
        for cls, p in class_p.items():
            draw = rng.choice(values, size=n, p=p)
            mask = gate & (labels == cls)
            out[mask] = draw[mask]
        return out

    def mixed_integers(ranges):
        (lo, hi), class_ranges = ranges
        out = rng.integers(lo, hi + 1, size=n)
        gate = rng.random(n) < signal_strength
        for cls, (clo, chi) in class_ranges.items():
            draw = rng.integers(clo, chi + 1, size=n)
            mask = gate & (labels == cls)
            out[mask] = draw[mask]
        return out

    times = rng.integers(1, 101, size=n)
    protocols = mixed_choice(_PROTOCOLS, _PROTOCOL_SHARED, _PROTOCOL_CLASS)
    flags = mixed_choice(_FLAGS, _FLAG_SHARED, _FLAG_CLASS)
    families = _mixed_families(rng, labels, n, signal_strength)
    clusters = mixed_integers(_CLUSTER_RANGES)
    seed_addresses = rng.choice(np.array(_SEED_ADDRESSES, dtype=object), size=n)
    exp_addresses = rng.choice(np.array(_EXP_ADDRESSES, dtype=object), size=n)
    btc = mixed_integers(_BTC_RANGES)
    usd = mixed_integers(_USD_RANGES)
    netflow = mixed_integers(_NETFLOW_RANGES)
    ip_classes = mixed_choice(_IP_CLASSES, _IP_SHARED, _IP_CLASS)
    threats = mixed_choice(_THREATS, _THREAT_SHARED, _THREAT_CLASS)
    ports = mixed_choice(_PORTS, _PORT_SHARED, _PORT_CLASS).astype(np.int64)

    columns = (times, protocols, flags, families, clusters, seed_addresses,
               exp_addresses, btc, usd, netflow, ip_classes, threats, ports)
    return FlowTable(
        {
            header: TextColumn.of(column) if column.dtype == object else column
            for header, column in zip(CANONICAL_COLUMNS, columns)
        },
        labels,
    )


def _mixed_families(rng, labels, n, signal_strength):
    out = rng.choice(np.array(_ALL_FAMILIES, dtype=object), size=n)
    gate = rng.random(n) < signal_strength
    for cls, pool in _FAMILY_POOLS.items():
        draw = rng.choice(np.array(pool, dtype=object), size=n)
        mask = gate & (labels == cls)
        out[mask] = draw[mask]
    return out
