"""Critical-value tables for the self-normalized Wald statistic.

The limiting null distribution of the self-normalized statistic depends
only on the number of integrated regressors m, the number of restrictions
s, and the deterministic specification. The quantiles shipped here were
simulated from that limit law on a 10,000-point lattice with 10,000
replications (see :mod:`sncoint.asymptotics` for the simulator); fresh
tables can be generated with the ``critvals`` CLI command.

Tables serialize to a small versioned text format::

    # sncoint critical values v1
    m=1 s=1 det=intercept n_grid=10000 reps=10000 seed=42
    0.9 64.13
    0.95 95.81
    ...
"""

from __future__ import annotations

from dataclasses import dataclass, field


from .timeseries import Deterministics, _check_alpha

__all__ = ["CriticalValueTable", "default_table", "save_table", "load_table"]

_FORMAT_HEADER = "# sncoint critical values v1"


@dataclass(frozen=True)
class CriticalValueTable:
    """Upper quantiles of the self-normalized limit law for one (m, s, det)."""

    m: int
    s: int
    det: Deterministics
    quantiles: dict[float, float]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        probs = sorted(self.quantiles)
        values = [self.quantiles[p] for p in probs]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("quantiles must be strictly increasing in probability")

    def critical_value(self, alpha: float) -> float:
        """Quantile at probability 1 - alpha; raises if not tabulated."""
        return self.quantiles[_level(self.quantiles, alpha)]

    def require(self, m: int, s: int, det: Deterministics) -> None:
        """Raise KeyError unless the table is for (m, s, det)."""
        if (self.m, self.s, self.det) != (m, s, det):
            raise KeyError(
                f"table is for m={self.m}, s={self.s}, det={self.det.value}; "
                f"sample needs m={m}, s={s}, det={det.value}"
            )


def _level(probs, alpha: float) -> float:
    """The probability 1 - alpha among ``probs``; ValueError unless alpha is
    in (0, 1), KeyError if the probability is not there."""
    _check_alpha(alpha)
    target = 1.0 - alpha
    for prob in probs:
        if abs(prob - target) < 1e-9:
            return prob
    raise KeyError(f"no tabulated quantile at probability {target:.10g}")  # 0.93, not 0.9299999999999999


# Simulated quantiles, indexed (m, s) within each deterministic panel and
# ordered (90%, 95%, 97.5%, 99%).
_PROBS = (0.90, 0.95, 0.975, 0.99)

_TABULATED = {
    Deterministics.NONE: {
        (1, 1): (36.63, 56.58, 79.24, 120.10),
        (2, 1): (66.33, 96.51, 131.79, 189.69),
        (2, 2): (122.32, 167.23, 216.99, 286.97),
        (3, 1): (94.04, 140.69, 191.68, 266.16),
        (3, 2): (172.00, 231.79, 290.47, 375.30),
        (3, 3): (240.58, 313.46, 390.38, 494.00),
        (4, 1): (131.68, 189.15, 256.38, 355.25),
        (4, 2): (232.77, 309.06, 390.07, 505.21),
        (4, 3): (318.25, 407.17, 504.08, 645.89),
        (4, 4): (402.61, 510.60, 630.19, 767.61),
    },
    Deterministics.INTERCEPT: {
        (1, 1): (64.13, 95.81, 136.10, 187.13),
        (2, 1): (94.15, 140.55, 190.23, 263.92),
        (2, 2): (168.58, 233.15, 292.64, 381.78),
        (3, 1): (126.65, 187.03, 245.93, 338.59),
        (3, 2): (221.45, 297.11, 375.55, 474.31),
        (3, 3): (305.36, 396.56, 488.35, 602.27),
        (4, 1): (162.08, 236.54, 325.56, 421.68),
        (4, 2): (278.05, 372.79, 458.37, 582.89),
        (4, 3): (382.30, 487.71, 587.85, 719.98),
        (4, 4): (481.15, 596.15, 720.31, 872.07),
    },
    Deterministics.TREND: {
        (1, 1): (90.44, 134.19, 183.51, 243.72),
        (2, 1): (122.19, 171.46, 231.09, 304.08),
        (2, 2): (209.54, 283.33, 357.66, 460.98),
        (3, 1): (152.66, 219.51, 294.26, 409.03),
        (3, 2): (261.47, 354.08, 433.33, 556.42),
        (3, 3): (363.17, 460.37, 569.84, 713.24),
        (4, 1): (180.25, 258.75, 342.56, 478.05),
        (4, 2): (311.22, 423.39, 524.25, 680.76),
        (4, 3): (434.29, 546.31, 686.44, 821.12),
        (4, 4): (545.37, 688.21, 810.09, 977.09),
    },
    Deterministics.QUADRATIC: {
        (1, 1): (115.13, 166.35, 217.42, 290.63),
        (2, 1): (138.49, 200.65, 268.86, 357.58),
        (2, 2): (245.91, 331.26, 401.63, 513.85),
        (3, 1): (175.40, 255.74, 348.51, 472.49),
        (3, 2): (302.95, 402.90, 509.51, 646.48),
        (3, 3): (418.77, 530.94, 637.29, 800.81),
        (4, 1): (205.72, 303.58, 390.59, 527.20),
        (4, 2): (352.96, 465.28, 589.05, 754.26),
        (4, 3): (479.57, 621.70, 762.57, 923.59),
        (4, 4): (608.35, 764.20, 902.89, 1070.32),
    },
    Deterministics.CUBIC: {
        (1, 1): (137.70, 198.48, 263.30, 352.56),
        (2, 1): (166.87, 237.82, 308.64, 406.48),
        (2, 2): (292.13, 379.15, 467.71, 587.03),
        (3, 1): (197.84, 288.65, 391.70, 539.71),
        (3, 2): (340.61, 446.27, 565.65, 726.07),
        (3, 3): (465.58, 590.05, 720.19, 903.53),
        (4, 1): (229.38, 334.55, 438.56, 592.44),
        (4, 2): (392.80, 509.11, 645.41, 846.82),
        (4, 3): (533.60, 684.33, 853.07, 1052.20),
        (4, 4): (680.84, 858.04, 1004.50, 1222.78),
    },
}


def default_table(m: int, s: int, det: Deterministics) -> CriticalValueTable:
    """Return the packaged table for (m, s, det).

    Raises :class:`KeyError` when the combination is not tabulated
    (m up to 4, s up to m).
    """
    panel = _TABULATED.get(det)
    if panel is None or (m, s) not in panel:
        raise KeyError(f"no packaged critical values for m={m}, s={s}, det={det.value}")
    values = panel[(m, s)]
    return CriticalValueTable(
        m=m,
        s=s,
        det=det,
        quantiles=dict(zip(_PROBS, values)),
        meta={"n_grid": 10_000, "reps": 10_000, "source": "packaged"},
    )


def save_table(table: CriticalValueTable, path: str) -> None:
    """Write a table in the versioned plain-text format."""
    meta = table.meta
    header = (
        f"m={table.m} s={table.s} det={table.det.value} "
        f"n_grid={meta.get('n_grid', 0)} reps={meta.get('reps', 0)} seed={meta.get('seed', '')}"
    )
    lines = [_FORMAT_HEADER, header]
    for prob in sorted(table.quantiles):
        lines.append(f"{prob:g} {table.quantiles[prob]!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_table(path: str) -> CriticalValueTable:
    """Read a table written by :func:`save_table`; a malformed file raises
    :class:`ValueError` naming it."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != _FORMAT_HEADER:
        raise ValueError(f"{path}: not a sncoint critical value file")
    try:
        fields = dict(item.split("=", 1) for item in lines[1].split())
        quantiles = {float(prob): float(value) for prob, value in (ln.split() for ln in lines[2:])}
        meta = {"n_grid": int(fields["n_grid"]), "reps": int(fields["reps"])}
        if fields.get("seed"):
            meta["seed"] = int(fields["seed"])
        return CriticalValueTable(
            m=int(fields["m"]),
            s=int(fields["s"]),
            det=Deterministics(fields["det"]),
            quantiles=quantiles,
            meta=meta,
        )
    except KeyError as exc:
        raise ValueError(f"{path}: header has no {exc.args[0]}= field") from None
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed critical value file: {exc}") from None
