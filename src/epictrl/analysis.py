"""Post-hoc analysis: reproduction number and across-seed reports.

The real-time reproduction number is estimated with a transparent ratio:
window-smoothed daily new infections divided by the window-smoothed count
of currently infectious people, times the mean infectious duration. At a
steady state where each infectious person is replaced exactly once per
infectious period the estimate is 1 by construction, and it is invariant
to rescaling all counts.

Across-seed reports read env.evaluate's EvalEpisodes directly: summarize
gives one policy's means and standard deviations, compare_strategies one
row per policy on a shared seed set, and both reduce through mean_sd.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError
from .simulator import DailyCounts

RT_WINDOW = 7  # days in the trailing smoothing window


@dataclass
class RtSeries:
    """R_t estimates on the days where they are defined, and the smoothed infectious counts under them."""

    days: list[int]
    values: list[float]
    infectious: list[float]

    def first_below_one(self, min_infectious: float = 5.0, sustain: int = 3) -> int | None:
        """First day the estimate drops below 1 and stays there.

        Only days whose smoothed infectious count is at least min_infectious
        are considered (early estimates from a handful of infectious agents
        are noise), and the estimate must remain below 1 for `sustain`
        consecutive defined estimates. Returns None when no such day exists.
        """
        for i, infectious in enumerate(self.infectious):
            if infectious < min_infectious:
                continue
            run = self.values[i:i + sustain]
            if len(run) == sustain and all(v < 1.0 for v in run):
                return self.days[i]
        return None


def estimate_rt(series: list[DailyCounts], infectious_mean: float) -> RtSeries:
    """Ratio estimator of the real-time reproduction number.

    R_t = (smoothed new infections / smoothed currently infectious) *
    infectious_mean, using a trailing window of RT_WINDOW days. Days whose
    window contains no infectious person are omitted.
    """
    if not series:
        raise ProtocolError("cannot estimate R_t from an empty series")
    if infectious_mean <= 0:
        raise ProtocolError("mean infectious duration must be positive")
    new_inf = np.array([c.new_infections for c in series], dtype=np.float64)
    infectious = np.array([c.I for c in series], dtype=np.float64)

    rt = RtSeries(days=[], values=[], infectious=[])
    for t in range(len(series)):
        lo = max(0, t - RT_WINDOW + 1)
        inf_bar = infectious[lo:t + 1].mean()
        if inf_bar <= 0:
            continue
        new_bar = new_inf[lo:t + 1].mean()
        rt.days.append(series[t].day)
        rt.values.append(float(new_bar / inf_bar * infectious_mean))
        rt.infectious.append(float(inf_bar))
    return rt


def rt_to_csv(rt: RtSeries, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["day", "rt"])
        for d, v in zip(rt.days, rt.values):
            writer.writerow([d, f"{v:.10g}"])


def mean_sd(values) -> tuple[float, float]:
    """Mean and sample standard deviation (0 for a single value)."""
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std(ddof=1)) if len(arr) > 1 else 0.0


def summarize(episodes) -> dict:
    """Mean and standard deviation of the headline metrics across seeds."""
    out = {}
    for name in ("total_return", "cumulative_infections", "total_deaths", "mean_economic_loss"):
        out[f"{name}_mean"], out[f"{name}_sd"] = mean_sd([getattr(e, name) for e in episodes])
    return out


REPORT_COLUMNS = (
    "strategy",
    "cumulative_infections_mean", "cumulative_infections_sd",
    "deaths_mean", "deaths_sd",
    "economic_loss_pct_mean", "economic_loss_pct_sd",
    "return_mean", "return_sd",
    "rt_below_1_day_mean", "rt_below_1_count",
)


def compare_strategies(runs, infectious_mean: float) -> list[dict]:
    """Comparison table of (name, episodes) runs evaluated on identical seed sets.

    The R_t columns average the crossing day over the seeds where R_t falls
    below 1 and count those seeds; the mean is nan when there are none.
    """
    if len(runs) < 2:
        raise ProtocolError("compare_strategies needs at least two strategies")
    seed_sets = {tuple(ep.seed for ep in episodes) for _, episodes in runs}
    if len(seed_sets) != 1:
        raise ProtocolError(f"strategies were evaluated on different seed sets: {seed_sets}")
    rows = []
    for name, episodes in runs:
        row = {"strategy": name}
        for label, values in (
            ("cumulative_infections", [ep.cumulative_infections for ep in episodes]),
            ("deaths", [ep.total_deaths for ep in episodes]),
            ("economic_loss_pct", [100.0 * ep.mean_economic_loss for ep in episodes]),
            ("return", [ep.total_return for ep in episodes]),
        ):
            row[f"{label}_mean"], row[f"{label}_sd"] = mean_sd(values)
        crossings = [estimate_rt(ep.series, infectious_mean).first_below_one() for ep in episodes]
        crossed = [day for day in crossings if day is not None]
        row["rt_below_1_day_mean"] = float(np.mean(crossed)) if crossed else float("nan")
        row["rt_below_1_count"] = len(crossed)
        rows.append(row)
    return rows


def report_to_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in REPORT_COLUMNS])


def report_to_text(rows: list[dict]) -> str:
    lines = [
        f"{'strategy':<14} {'infections':>16} {'deaths':>14} {'econ loss %':>14} "
        f"{'return':>18} {'Rt<1 day':>10}"
    ]
    for row in rows:
        lines.append(
            f"{row['strategy']:<14} "
            f"{row['cumulative_infections_mean']:>9.1f} ±{row['cumulative_infections_sd']:<5.1f} "
            f"{row['deaths_mean']:>8.2f} ±{row['deaths_sd']:<4.2f} "
            f"{row['economic_loss_pct_mean']:>8.2f} ±{row['economic_loss_pct_sd']:<4.2f} "
            f"{row['return_mean']:>11.1f} ±{row['return_sd']:<5.1f} "
            f"{_fmt(row['rt_below_1_day_mean']):>10}"
        )
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        if value != value:
            return "nan"
        return f"{value:.6g}"
    return str(value)
