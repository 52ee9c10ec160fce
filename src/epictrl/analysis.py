"""Post-hoc analysis: reproduction number and strategy reports.

The real-time reproduction number is estimated with a transparent ratio:
window-smoothed daily new infections divided by the window-smoothed count
of currently infectious people, times the mean infectious duration. At a
steady state where each infectious person is replaced exactly once per
infectious period the estimate is 1 by construction, and it is invariant
to rescaling all counts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ProtocolError
from .simulator import DailyCounts


@dataclass
class RtSeries:
    """R_t estimates on the days where they are defined."""

    days: list[int]
    values: list[float]
    window: int = 7

    def first_below_one(self, min_infectious: float = 5.0, sustain: int = 3,
                        smoothed_infectious: list[float] | None = None) -> int | None:
        """First day the estimate drops below 1 and stays there.

        Only days whose smoothed infectious count is at least min_infectious
        are considered (early estimates from a handful of infectious agents
        are noise), and the estimate must remain below 1 for `sustain`
        consecutive defined estimates. Returns None when no such day exists.
        """
        if smoothed_infectious is None:
            smoothed_infectious = [np.inf] * len(self.days)
        n = len(self.days)
        for i in range(n):
            if smoothed_infectious[i] < min_infectious:
                continue
            run = self.values[i:i + sustain]
            if len(run) == sustain and all(v < 1.0 for v in run):
                return self.days[i]
        return None


def estimate_rt(
    series: list[DailyCounts],
    infectious_mean: float,
    window: int = 7,
) -> tuple[RtSeries, list[float]]:
    """Ratio estimator of the real-time reproduction number.

    R_t = (smoothed new infections / smoothed currently infectious) *
    infectious_mean, using a trailing window. Days whose window
    contains no infectious person are omitted. Also returns the smoothed
    infectious counts aligned with the estimates (useful for filtering
    low-signal days downstream).
    """
    if not series:
        raise ProtocolError("cannot estimate R_t from an empty series")
    if infectious_mean <= 0:
        raise ProtocolError("mean infectious duration must be positive")
    new_inf = np.array([c.new_infections for c in series], dtype=np.float64)
    infectious = np.array([c.I for c in series], dtype=np.float64)

    days: list[int] = []
    values: list[float] = []
    smoothed_i: list[float] = []
    for t in range(len(series)):
        lo = max(0, t - window + 1)
        inf_bar = infectious[lo:t + 1].mean()
        if inf_bar <= 0:
            continue
        new_bar = new_inf[lo:t + 1].mean()
        days.append(series[t].day)
        values.append(float(new_bar / inf_bar * infectious_mean))
        smoothed_i.append(float(inf_bar))
    return RtSeries(days=days, values=values, window=window), smoothed_i


def rt_to_csv(rt: RtSeries, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "rt"])
        for d, v in zip(rt.days, rt.values):
            writer.writerow([d, f"{v:.10g}"])


@dataclass
class StrategyMetrics:
    """Aggregated evaluation metrics for one strategy over a seed set."""

    name: str
    seeds: tuple[int, ...]
    returns: list[float]
    cumulative_infections: list[float]
    deaths: list[float]
    economic_loss_pct: list[float]
    rt_cross_days: list[float] = field(default_factory=list)  # inf when never

    def row(self) -> dict:
        def stats(xs):
            arr = np.asarray(xs, dtype=np.float64)
            sd = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
            return float(arr.mean()), sd

        out = {"strategy": self.name}
        for label, xs in (
            ("cumulative_infections", self.cumulative_infections),
            ("deaths", self.deaths),
            ("economic_loss_pct", self.economic_loss_pct),
            ("return", self.returns),
        ):
            mean, sd = stats(xs)
            out[f"{label}_mean"] = mean
            out[f"{label}_sd"] = sd
        finite = [d for d in self.rt_cross_days if np.isfinite(d)]
        out["rt_below_1_day_mean"] = float(np.mean(finite)) if finite else float("nan")
        out["rt_below_1_count"] = len(finite)
        return out


def strategy_metrics_from_eval(
    name: str,
    episodes,
    infectious_mean: float,
    rt_window: int = 7,
    min_infectious: float = 5.0,
) -> StrategyMetrics:
    """Build comparison metrics from env.evaluate output."""
    cross_days = []
    for ep in episodes:
        rt, smoothed = estimate_rt(ep.series, infectious_mean, rt_window)
        day = rt.first_below_one(min_infectious=min_infectious, smoothed_infectious=smoothed)
        cross_days.append(float("inf") if day is None else float(day))
    return StrategyMetrics(
        name=name,
        seeds=tuple(ep.seed for ep in episodes),
        returns=[ep.total_return for ep in episodes],
        cumulative_infections=[float(ep.cumulative_infections) for ep in episodes],
        deaths=[float(ep.total_deaths) for ep in episodes],
        economic_loss_pct=[100.0 * ep.mean_economic_loss for ep in episodes],
        rt_cross_days=cross_days,
    )


REPORT_COLUMNS = (
    "strategy",
    "cumulative_infections_mean", "cumulative_infections_sd",
    "deaths_mean", "deaths_sd",
    "economic_loss_pct_mean", "economic_loss_pct_sd",
    "return_mean", "return_sd",
    "rt_below_1_day_mean", "rt_below_1_count",
)


def compare_strategies(metric_sets: list[StrategyMetrics]) -> list[dict]:
    """Comparison table across strategies evaluated on identical seed sets."""
    if len(metric_sets) < 2:
        raise ProtocolError("compare_strategies needs at least two strategies")
    seed_sets = {m.seeds for m in metric_sets}
    if len(seed_sets) != 1:
        raise ProtocolError(f"strategies were evaluated on different seed sets: {seed_sets}")
    return [m.row() for m in metric_sets]


def report_to_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
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
