"""The synthetic generator one record at a time.

gen_synthetic and synthetic_bayes_rate as first written: seven single Rng
draws, one scalar link score and one scalar sigmoid per record, with their
own copy of the link formula. `vrboost.data` draws and scores by column and
must reproduce their tables and Bayes rates exactly, value and type.
"""

import math

from vrboost.data import COLUMNS, GENDERS, HEADSETS, Table
from vrboost.numerics import Rng, sigmoid

_MOTION_MEAN, _MOTION_STD = 5.5, math.sqrt(99.0 / 12.0)   # uniform {1..10}
_DURATION_MEAN, _DURATION_STD = 32.5, 55.0 / math.sqrt(12.0)  # uniform (5, 60)
_HEADSET_EFFECT = {"HTC Vive": 1.0, "Oculus Rift": 0.0, "PlayStation VR": -1.0}
_LINK_COEF = (-1.0, 0.6, 0.5)  # motion, duration, headset


def signal_score(motion_sickness: float, duration: float, vr_headset: str) -> float:
    cm, cd, ch = _LINK_COEF
    return (cm * (motion_sickness - _MOTION_MEAN) / _MOTION_STD
            + cd * (duration - _DURATION_MEAN) / _DURATION_STD
            + ch * _HEADSET_EFFECT[vr_headset])


def gen_synthetic(n: int, seed: int, signal_strength: float) -> Table:
    rng = Rng(seed)
    rows = []
    for _ in range(n):
        age = rng.randint(18, 60)
        gender = GENDERS[rng.randint(0, 2)]
        headset = HEADSETS[rng.randint(0, 2)]
        duration = rng.uniform(5.0, 60.0)
        motion = rng.randint(1, 10)
        p_high = sigmoid(signal_strength * signal_score(motion, duration, headset))
        high = rng.uniform(0.0, 1.0) < p_high
        immersion = rng.randint(4, 5) if high else rng.randint(1, 3)
        rows.append((age, gender, headset, duration, motion, immersion))  # COLUMNS order
    return Table(dict(zip(COLUMNS, map(list, zip(*rows)))))


def synthetic_bayes_rate(table: Table, signal_strength: float) -> float:
    cols = table.columns
    links = map(signal_score, cols["MotionSickness"], cols["Duration"], cols["VRHeadset"])
    best = [max(p, 1.0 - p) for p in (sigmoid(signal_strength * z) for z in links)]
    return math.fsum(best) / len(best)
