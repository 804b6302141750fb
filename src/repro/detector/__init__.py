"""Offline and online data-race detection over event logs."""

from .fasttrack import FastTrackDetector, fasttrack_races
from .flat import FlatDetector
from .flatclock import TidSlots
from .hb import HappensBeforeDetector, detect_races
from .lockset import LocksetDetector
from .merge import MergeResult, merge_thread_logs
from .online import OnlineRaceDetector
from .oracle import OracleDetector, oracle_races
from .races import RARE_PER_MILLION, RaceInstance, RaceKey, RaceReport
from .vectorclock import VectorClock

__all__ = [
    "VectorClock",
    "HappensBeforeDetector",
    "detect_races",
    "FastTrackDetector",
    "fasttrack_races",
    "FlatDetector",
    "TidSlots",
    "LocksetDetector",
    "OnlineRaceDetector",
    "OracleDetector",
    "oracle_races",
    "MergeResult",
    "merge_thread_logs",
    "RaceReport",
    "RaceInstance",
    "RaceKey",
    "RARE_PER_MILLION",
]
