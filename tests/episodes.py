"""Whole-episode helpers for the tests; every run goes through env.evaluate."""

import csv

from epictrl.baselines import SchedulePolicy, null_policy
from epictrl.calibration import ungated_env
from epictrl.env import evaluate
from epictrl.simulator import COUNT_FIELDS, DailyCounts


def constant_policy(action) -> SchedulePolicy:
    """The policy that applies one action on every day."""
    return SchedulePolicy(entries=((0, action),), name="constant")


def ungated_series(cfg, n_days: int, seed: int, policy=null_policy()) -> list:
    """DailyCounts of one n_days episode, the policy applied from day 0."""
    return evaluate(policy, ungated_env(cfg, n_days), [seed])[0].series


def counts_from_csv(path: str) -> list[DailyCounts]:
    """Read back a series that simulator.counts_to_csv wrote."""
    with open(path, "r", encoding="utf-8") as fh:
        return [DailyCounts(**{k: int(row[k]) for k in COUNT_FIELDS}) for row in csv.DictReader(fh)]
