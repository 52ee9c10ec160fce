"""Fixed, non-learned comparison policies.

A schedule policy is a pure step function of the simulation day: the most
recent entry at or before the current day applies. Schedules may use
intervention levels outside the learning agents' action box (for example an
80% lockdown, ch_beta = 0.2).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

from .errors import ScheduleParseError
from .interventions import Action, NULL_ACTION

UK_SCHEDULE_RESOURCE = "uk_schedule_approx.csv"


@dataclass(frozen=True)
class SchedulePolicy:
    """Ordered (start_day, Action) entries; first entry must be day 0."""

    entries: tuple[tuple[int, Action], ...]
    name: str = "schedule"

    def __post_init__(self):
        if not self.entries:
            raise ScheduleParseError("schedule needs at least a day-0 entry")
        days = [d for d, _ in self.entries]
        if days[0] != 0:
            raise ScheduleParseError(f"first schedule entry must start at day 0, got {days[0]}")
        if any(b <= a for a, b in zip(days, days[1:])):
            raise ScheduleParseError("schedule start days must be strictly increasing")

    def action_at(self, day: int) -> Action:
        current = self.entries[0][1]
        for start, action in self.entries:
            if start > day:
                break
            current = action
        return current

    # Environment-policy protocol: schedules ignore the observation.
    def select_action(self, observation, day: int) -> Action:
        return self.action_at(day)


def null_policy() -> SchedulePolicy:
    """The do-nothing policy (no lockdown, no testing, no tracing)."""
    return SchedulePolicy(entries=((0, NULL_ACTION),), name="none")


def seven_work_seven_lockdown(
    horizon_days: int = 366,
    lockdown_beta: float = 0.2,
    ch_tp: float = 0.0,
    ch_ctp: float = 0.0,
) -> SchedulePolicy:
    """Alternate 7 normal days with 7 days of 80% lockdown.

    The lockdown blocks scale transmission to lockdown_beta (0.2 means 80%
    of people are locked down). Testing and tracing levels default to zero
    but are configurable.
    """
    open_action = Action(1.0, ch_tp, ch_ctp)
    closed_action = Action(lockdown_beta, ch_tp, ch_ctp)
    entries = []
    for start in range(0, horizon_days, 7):
        entries.append((start, closed_action if (start // 7) % 2 else open_action))
    return SchedulePolicy(entries=tuple(entries), name="7w7l")


def real_world_schedule(path: str, name: str | None = None) -> SchedulePolicy:
    """Load a dated action schedule from CSV (columns day,ch_beta,ch_tp,ch_ctp).

    Lines starting with '#' are comments. Days must be strictly increasing;
    a missing day-0 row gets an implicit null entry.
    """
    entries: list[tuple[int, Action]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entries = _parse_schedule(fh)
    except OSError as exc:
        raise ScheduleParseError(f"cannot read schedule file {path}: {exc}") from exc
    if not entries or entries[0][0] != 0:
        entries.insert(0, (0, NULL_ACTION))
    return SchedulePolicy(entries=tuple(entries), name=name or path)


def _parse_schedule(fh) -> list[tuple[int, Action]]:
    rows = [line for line in fh if line.strip() and not line.lstrip().startswith("#")]
    reader = csv.DictReader(rows)
    required = {"day", "ch_beta", "ch_tp", "ch_ctp"}
    if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
        raise ScheduleParseError(f"schedule file needs columns {sorted(required)}, got {reader.fieldnames}")
    entries: list[tuple[int, Action]] = []
    for row in reader:
        try:
            day = int(row["day"])
            action = Action(float(row["ch_beta"]), float(row["ch_tp"]), float(row["ch_ctp"]))
        except (TypeError, ValueError) as exc:
            raise ScheduleParseError(f"bad schedule row {row}: {exc}") from exc
        if entries and day <= entries[-1][0]:
            raise ScheduleParseError(f"schedule days must be strictly increasing, got {day} after {entries[-1][0]}")
        entries.append((day, action))
    return entries


def uk_approximation_schedule() -> SchedulePolicy:
    """The shipped, explicitly approximate UK intervention timeline.

    Day 0 is 2020-01-21. The dates and intensities are a coarse
    approximation assembled for comparison runs, not an authoritative
    reconstruction.
    """
    ref = resources.files("epictrl.data").joinpath(UK_SCHEDULE_RESOURCE)
    with resources.as_file(ref) as path:
        return real_world_schedule(str(path), name="uk-approx")
