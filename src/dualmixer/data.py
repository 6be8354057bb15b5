"""Turbofan run-to-failure data pipeline.

Handles the standard 26-column whitespace text format (unit id, cycle index,
3 operating settings, 21 sensor channels), sensor selection, train-split
min-max normalization, sliding windows, capped-linear life labels, and
final-window test-set construction. The cycle and setting columns are checked
on reading and then dropped: a unit keeps its sensor rows in cycle order.
Everything is deterministic and pure; functions either return new values or
raise.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import sys
import typing
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

logger = logging.getLogger(__name__)

# 1-based positions of the informative sensor channels; the complement
# {1,5,6,10,16,18,19} is near-constant in this benchmark family.
SELECTED_SENSORS = (2, 3, 4, 7, 8, 9, 11, 12, 13, 14, 15, 17, 20, 21)

# Remaining-life labels saturate at this many cycles before normalization.
RUL_KNEE = 125


class ParseError(ValueError):
    """Malformed input text; the message carries file and line context."""


class DegenerateVariableError(ValueError):
    """A kept variable has max == min on the training split."""


@dataclass
class RawSeries:
    """One unit's full run: sensor channels (L x n_sensors), where row k is
    cycle k + 1."""

    unit_id: int
    sensors: np.ndarray

    @property
    def length(self) -> int:
        return int(self.sensors.shape[0])


@dataclass
class WindowSample:
    """One training or evaluation window.

    values is a read-only view of its unit's normalized rows (a window of a
    unit shorter than w is its own padded array). anchor_index is the
    window's position in its unit's ordered window sequence (the index the
    negative sampler works over).
    """

    values: np.ndarray  # w x m_vars, normalized
    label: float        # in [0, 1]
    unit_id: int
    anchor_index: int


@dataclass(frozen=True)
class NormStats:
    """Per-variable training-split extrema, 1 x m_vars each."""

    mins: np.ndarray
    maxs: np.ndarray


# --------------------------------------------------------------------------
# parsing and serialization
# --------------------------------------------------------------------------

def parse_cmapss(path: str) -> list[RawSeries]:
    """Parse a 26-column run-to-failure text file into per-unit series.

    Units are returned in first-appearance order with rows sorted by cycle;
    cycle indices must then run 1..L without gaps. Every field must be a
    finite number, and the unit id (never negative) and cycle whole numbers.
    Only the sensor columns are kept.
    """
    rows_by_unit: dict[int, list[list[float]]] = {}
    with open(path, "r") as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 26:
                raise ParseError(f"{path}:{lineno}: expected 26 columns, got {len(parts)}")
            try:
                row = [float(p) for p in parts]
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric field") from None
            whole = row[0].is_integer() and row[0] >= 0 and row[1].is_integer()  # id, cycle
            if not (whole and all(map(math.isfinite, row))):
                raise ParseError(f"{path}:{lineno}: non-finite field or negative or fractional "
                                 "unit id or cycle")
            rows_by_unit.setdefault(int(row[0]), []).append(row)
    series = []
    for unit_id, rows in rows_by_unit.items():
        rows.sort(key=lambda r: r[1])
        arr = np.array(rows)
        if not np.array_equal(arr[:, 1], np.arange(1, len(rows) + 1)):
            raise ParseError(f"{path}: unit {unit_id} cycle indices are not contiguous from 1")
        series.append(RawSeries(unit_id=unit_id, sensors=arr[:, 5:26]))
    return series


def parse_rul(path: str) -> list[int]:
    """Parse a remaining-life file for a test split: one whole number of
    cycles, zero or more, per line."""
    out = []
    with open(path, "r") as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 1:
                raise ParseError(f"{path}:{lineno}: expected 1 column, got {len(parts)}")
            try:
                value = float(parts[0])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric field") from None
            if not (value.is_integer() and value >= 0):  # also refuses inf and nan
                raise ParseError(f"{path}:{lineno}: {parts[0]!r} is not a count of cycles")
            out.append(int(value))
    return out


@contextmanager
def atomic_path(path: str) -> Iterator[str]:
    """Yield a temporary path beside ``path`` to write the whole file to;
    it is renamed over ``path`` only if the block finishes, so ``path`` is
    either absent, its old contents, or complete."""
    tmp = path + ".tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_json_object(path: str, what: str) -> dict:
    """The JSON object held by the file at ``path``; a file that is not
    valid JSON, or holds another JSON value, raises ValueError naming
    ``path`` and ``what`` the file is."""
    try:
        with open(path) as f:
            value = json.load(f)
    except (ValueError, RecursionError) as exc:  # also undecodable bytes, deep nesting
        raise ValueError(f"{path}: {what} is not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path}: {what} must hold a JSON object")
    return value


def from_fields(cls, values: dict, source: str):
    """Dataclass ``cls`` built from ``values``, which must name exactly its
    fields (those with a default may be left out); a missing or unknown
    field, or a value the constructor refuses, raises ValueError prefixed
    by ``source``."""
    fields = dataclasses.fields(cls)
    missing = [f.name for f in fields if f.name not in values
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    unknown = sorted(set(values) - {f.name for f in fields})
    causes = [f"{kind} fields {names}"
              for kind, names in (("missing", missing), ("unknown", unknown)) if names]
    if causes:
        raise ValueError(f"{source}: " + "; ".join(causes))
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _fits(value, hint, item: bool = False) -> bool:
    """Whether ``value`` may fill a field annotated ``hint``: a bool is not
    an int, an int fits a float, and a tuple[...], list[...] or dict[...]
    fits item by item, where a float must also be finite (``item``)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return any(_fits(value, a, item) for a in args)
    if origin is tuple:
        return (isinstance(value, tuple) and len(value) == len(args)
                and all(_fits(v, a, True) for v, a in zip(value, args)))
    if origin is list:
        return isinstance(value, list) and all(_fits(v, args[0], True) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _fits(k, args[0], True) and _fits(v, args[1], True) for k, v in value.items())
    if isinstance(value, bool):
        return hint is bool
    if hint is float:  # NaN, infinity and an int beyond the float range are not finite
        return isinstance(value, (int, float)) and (
            not item or abs(value) <= sys.float_info.max)
    return isinstance(value, hint)


def check_fields(obj) -> None:
    """ValueError naming the first field of dataclass instance ``obj`` that
    does not fit its annotation or holds a NaN or infinite float, at any
    depth; an int in a float field is stored as a float (beyond the float
    range, infinity), while ints inside lists and dicts are kept as ints."""
    hints = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        value, hint = getattr(obj, f.name), hints[f.name]
        if not _fits(value, hint):
            nested = typing.get_origin(hint) in (list, dict)
            rule = " with every float finite" if nested else ""
            raise ValueError(f"field {f.name!r} holds {type(value).__name__}, "
                             f"expected {hint}{rule}")
        if isinstance(value, (int, float)) and float in (hint, *typing.get_args(hint)):
            try:
                value = float(value)
            except OverflowError:  # an int beyond the float range
                value = math.inf
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            object.__setattr__(obj, f.name, value)


def write_cmapss(path: str, series_list: Sequence[RawSeries]) -> None:
    """Write series in the 26-column text format: row i as cycle i + 1, zero
    operating settings, and the sensors with enough float digits that
    reparsing reproduces them exactly. Atomic: a unit that cannot be written
    raises ValueError and leaves ``path`` as it was."""
    with atomic_path(path) as tmp, open(tmp, "w") as f:
        for s in series_list:
            if s.sensors.shape[1] != 21:
                raise ValueError(f"unit {s.unit_id}: need 21 sensor columns to "
                                 f"serialize, got {s.sensors.shape[1]}")
            for i in range(s.length):
                fields = [str(s.unit_id), str(i + 1), "0", "0", "0"]
                fields += ["%.17g" % v for v in s.sensors[i]]
                f.write(" ".join(fields) + "\n")


def write_rul(path: str, ruls: Sequence[int]) -> None:
    """One whole number of cycles per line, atomically."""
    with atomic_path(path) as tmp, open(tmp, "w") as f:
        for r in ruls:
            f.write(f"{int(r)}\n")


# --------------------------------------------------------------------------
# preprocessing
# --------------------------------------------------------------------------

def select_variables(series: RawSeries) -> RawSeries:
    """Keep the 14 informative sensor channels, order preserved."""
    if series.sensors.shape[1] != 21:
        raise ValueError(f"unit {series.unit_id}: variable selection needs 21 "
                         f"sensor columns, got {series.sensors.shape[1]}")
    idx = [s - 1 for s in SELECTED_SENSORS]
    return replace(series, sensors=series.sensors[:, idx])


def fit_minmax(values_list: Iterable[np.ndarray]) -> NormStats:
    """Per-variable extrema over every row of every given array."""
    mins = None
    maxs = None
    for values in values_list:
        lo = values.min(axis=0, keepdims=True)
        hi = values.max(axis=0, keepdims=True)
        mins = lo if mins is None else np.minimum(mins, lo)
        maxs = hi if maxs is None else np.maximum(maxs, hi)
    if mins is None:
        raise ValueError("fit_minmax: no data")
    flat = np.flatnonzero(maxs[0] == mins[0])
    if flat.size:
        raise DegenerateVariableError(f"constant variables at columns {flat.tolist()}")
    return NormStats(mins=mins, maxs=maxs)


def apply_minmax(values: np.ndarray, stats: NormStats) -> np.ndarray:
    """(x - min) / (max - min); out-of-range values are NOT clipped. The
    result is read-only, as the windows cut from it are views of it."""
    out = (values - stats.mins) / (stats.maxs - stats.mins)
    out.flags.writeable = False
    return out


def sliding_window(values: np.ndarray, w: int, sl: int) -> list[np.ndarray]:
    """Windows of w rows at offsets 0, sl, 2 sl, ...; count (L - w) // sl + 1.
    Each window is a view of ``values``, so overlapping windows share its
    rows and store none of their own."""
    if w < 1 or sl < 1:
        raise ValueError("window size and stride must be >= 1")
    length = values.shape[0]
    if length < w:
        raise ValueError(f"series of length {length} shorter than window {w}")
    return [values[start:start + w] for start in range(0, length - w + 1, sl)]


def piecewise_label(remaining_cycles: int) -> float:
    """Capped-linear life fraction: min(R, RUL_KNEE) / RUL_KNEE."""
    if remaining_cycles < 0:
        raise ValueError(f"negative remaining cycles: {remaining_cycles}")
    return min(remaining_cycles, RUL_KNEE) / RUL_KNEE


def build_training_windows(series_list: Sequence[RawSeries], stats: NormStats,
                           w: int, sl: int) -> list[WindowSample]:
    """Normalize, window, and label every unit; a window's label is the
    remaining life at its last cycle. Units shorter than w are skipped."""
    samples = []
    for s in series_list:
        if s.length < w:
            logger.warning("unit %d has %d cycles, shorter than window %d; skipped",
                           s.unit_id, s.length, w)
            continue
        values = apply_minmax(s.sensors, stats)
        for j, window in enumerate(sliding_window(values, w, sl)):
            samples.append(WindowSample(values=window,
                                        label=piecewise_label(s.length - j * sl - w),
                                        unit_id=s.unit_id, anchor_index=j))
    return samples


def build_test_set(series_list: Sequence[RawSeries], ruls: Sequence[int],
                   stats: NormStats, w: int) -> list[WindowSample]:
    """One evaluation sample per unit: the final w cycles (left-padded by
    repeating the first cycle when the unit is shorter), labeled with the
    supplied true remaining life."""
    if len(ruls) != len(series_list):
        raise ValueError(f"remaining-life file has {len(ruls)} entries for "
                         f"{len(series_list)} test units")
    samples = []
    for s, r in zip(series_list, ruls):
        values = apply_minmax(s.sensors, stats)
        if s.length >= w:
            window = values[-w:]
            anchor = (s.length - w)  # final window index at stride 1
        else:
            pad = np.repeat(values[:1], w - s.length, axis=0)
            window = np.vstack([pad, values])
            anchor = 0
        samples.append(WindowSample(values=window, label=piecewise_label(int(r)),
                                    unit_id=s.unit_id, anchor_index=int(anchor)))
    return samples


def group_by_unit(samples: Sequence[WindowSample]) -> dict[int, list[WindowSample]]:
    """Unit id -> that unit's windows ordered by anchor_index."""
    groups: dict[int, list[WindowSample]] = {}
    for s in samples:
        groups.setdefault(s.unit_id, []).append(s)
    for unit_samples in groups.values():
        unit_samples.sort(key=lambda s: s.anchor_index)
    return groups

