"""Schema-conformant synthetic flow generator with tunable class separability.

Labels are drawn uniformly over the three classes. Each feature of each row
comes from a class-conditional distribution with probability signal_strength
and from a shared class-agnostic distribution otherwise, so strength 0 makes
features independent of labels while strength 1 gives nearly disjoint
class-conditional ranges (BTC/USD/netflow tiers, protocol and threat mixes).
Each column is drawn as one array, and the arrays form the FlowTable that
`generate_records` returns, so no per-row record is built. Text columns are
drawn as indices into their value lists and become codes directly.
"""

from __future__ import annotations

import numpy as np

from flowbench.flow_data import CANONICAL_COLUMNS, CLASS_TOKENS, FlowTable, TextColumn

_FAMILY_POOLS = {
    0: ["EDA2", "Flyper", "Globe", "JigSaw", "NoobCrypt", "Razy"],
    1: ["CryptXXX", "CryptoLocker", "Cryptohitman", "DMALocker", "Locky", "TeslaCrypt"],
    2: ["APT", "CryptoLocker2015", "DMALockerv3", "SamSam", "WannaCry"],
}
_ALL_FAMILIES = sorted(f for pool in _FAMILY_POOLS.values() for f in pool)
# Each class's pool as indices into _ALL_FAMILIES.
_FAMILY_INDICES = {
    cls: [_ALL_FAMILIES.index(family) for family in pool] for cls, pool in _FAMILY_POOLS.items()
}

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
    labels = rng.integers(0, len(CLASS_TOKENS), size=n)

    def mixed(draw, shared, per_class):
        # Each row takes the draw of `shared`, or, with probability
        # signal_strength, the draw of its class's entry in `per_class`.
        out = draw(shared)
        gate = rng.random(n) < signal_strength
        for cls, spec in per_class.items():
            drawn = draw(spec)
            mask = gate & (labels == cls)
            out[mask] = drawn[mask]
        return out

    # rng.choice draws the same indices from len(values) as from values itself.
    def pick(values, p=None):
        return rng.choice(len(values), size=n, p=p)

    def pick_family(indices):
        return np.take(indices, pick(indices))

    def between(bounds):
        low, high = bounds
        return rng.integers(low, high + 1, size=n)

    times = rng.integers(1, 101, size=n)
    protocols = mixed(lambda p: pick(_PROTOCOLS, p), _PROTOCOL_SHARED, _PROTOCOL_CLASS)
    flags = mixed(lambda p: pick(_FLAGS, p), _FLAG_SHARED, _FLAG_CLASS)
    families = mixed(pick_family, range(len(_ALL_FAMILIES)), _FAMILY_INDICES)
    clusters = mixed(between, *_CLUSTER_RANGES)
    seed_addresses = pick(_SEED_ADDRESSES)
    exp_addresses = pick(_EXP_ADDRESSES)
    btc = mixed(between, *_BTC_RANGES)
    usd = mixed(between, *_USD_RANGES)
    netflow = mixed(between, *_NETFLOW_RANGES)
    ip_classes = mixed(lambda p: pick(_IP_CLASSES, p), _IP_SHARED, _IP_CLASS)
    threats = mixed(lambda p: pick(_THREATS, p), _THREAT_SHARED, _THREAT_CLASS)
    ports = mixed(lambda p: pick(_PORTS, p), _PORT_SHARED, _PORT_CLASS)

    columns = (
        times,
        _text_column(protocols, _PROTOCOLS),
        _text_column(flags, _FLAGS),
        _text_column(families, _ALL_FAMILIES),
        clusters,
        _text_column(seed_addresses, _SEED_ADDRESSES),
        _text_column(exp_addresses, _EXP_ADDRESSES),
        btc,
        usd,
        netflow,
        _text_column(ip_classes, _IP_CLASSES),
        _text_column(threats, _THREATS),
        np.array(_PORTS, dtype=np.int64)[ports],
    )
    return FlowTable(dict(zip(CANONICAL_COLUMNS, columns)), labels)


def _text_column(indices: np.ndarray, values: list) -> TextColumn:
    """The text column whose row i holds values[indices[i]].

    Its vocabulary is in order of first appearance, as the parser's is.
    """
    present, first = np.unique(indices, return_index=True)
    order = present[np.argsort(first)]
    code_of = np.empty(len(values), dtype=np.int32)
    code_of[order] = np.arange(order.size, dtype=np.int32)
    return TextColumn(tuple(values[i] for i in order.tolist()), code_of[indices])
