"""Multi-environment tabular data: container, encoding schema, CSV loading.

A :class:`MultiEnvDataset` holds one float feature matrix, a binary response
and an environment label per row, plus a registry that marks each
environment as training or test.  The response is stored for every row,
including the test environment, but nothing in the fitting code reads test
responses; they exist so that evaluation can score predictions afterwards.

CSV ingestion is schema-driven: an :class:`EncodingSpec` declares, per
column, whether it is numeric or categorical, the category list (whose first
entry is the dropped reference level), how missing cells are treated, and
how raw response and environment values map to {0, 1} and labeled
environments.  Two loads of the same file under the same schema produce
bit-identical matrices.  :func:`sniff_table` and :func:`encode_table`
transpose the rows once and read them column by column, parsing a numeric
column in one ``float`` pass; their refusals still name the first offending
line in file order.
"""

from __future__ import annotations

import copy
import csv
import json
from dataclasses import dataclass, field
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CsvParseError,
    SchemaError,
    UnknownEnvironmentError,
    ValidationError,
)

ROLE_TRAIN = "train"
ROLE_TEST = "test"
ROLE_DROP = "drop"

_MISSING_TOKEN = "?"


@dataclass(frozen=True)
class Environment:
    """A named environment with a training/test role."""

    label: str
    role: str

    def __post_init__(self):
        if self.role not in (ROLE_TRAIN, ROLE_TEST):
            raise ValidationError(f"environment role must be train or test, got {self.role!r}")


@dataclass(frozen=True)
class MultiEnvDataset:
    """Immutable bundle of features, binary response and environment labels.

    ``column_origin`` maps each encoded column name back to the raw column it
    came from, so one-hot groups can be recovered downstream; for data that
    was never encoded it is the identity map.
    """

    features: np.ndarray
    response: np.ndarray
    env_of: np.ndarray
    environments: tuple[Environment, ...]
    column_names: tuple[str, ...]
    column_origin: Mapping[str, str] = field(default=None)

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        response = np.asarray(self.response, dtype=np.int64)
        env_of = np.asarray(self.env_of, dtype=object)
        if features.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {features.shape}")
        if not np.all(np.isfinite(features)):
            raise ValidationError("features contain non-finite entries")
        n = features.shape[0]
        if response.shape != (n,):
            raise ValidationError("response length does not match feature rows")
        if env_of.shape != (n,):
            raise ValidationError("env_of length does not match feature rows")
        if response.size and not np.all(np.isin(response, (0, 1))):
            raise ValidationError("response must take values in {0, 1}")
        labels = [e.label for e in self.environments]
        if len(set(labels)) != len(labels):
            raise ValidationError("environment labels must be unique")
        if sum(e.role == ROLE_TEST for e in self.environments) > 1:
            raise ValidationError("at most one environment may have the test role")
        unknown = ~_label_mask(env_of, labels)
        if np.any(unknown):
            raise UnknownEnvironmentError(
                f"row labeled with unregistered environment {env_of[unknown][0]!r}"
            )
        if len(self.column_names) != features.shape[1]:
            raise ValidationError("column_names length does not match feature columns")
        if len(set(self.column_names)) != len(self.column_names):
            raise ValidationError("column names must be unique")
        origin = self.column_origin
        if origin is None:
            origin = {name: name for name in self.column_names}
        else:
            origin = dict(origin)
            missing = [c for c in self.column_names if c not in origin]
            if missing:
                raise ValidationError(f"column_origin lacks entries for {missing}")
        features.setflags(write=False)
        response.setflags(write=False)
        env_of.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "response", response)
        object.__setattr__(self, "env_of", env_of)
        object.__setattr__(self, "environments", tuple(self.environments))
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "column_origin", origin)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    @property
    def train_labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.environments if e.role == ROLE_TRAIN)

    @property
    def test_label(self) -> str | None:
        for e in self.environments:
            if e.role == ROLE_TEST:
                return e.label
        return None

    def rows_in(self, label: str) -> np.ndarray:
        if label not in {e.label for e in self.environments}:
            raise UnknownEnvironmentError(f"unknown environment {label!r}")
        return _label_mask(self.env_of, (label,))

    def take(self, mask: np.ndarray) -> "MultiEnvDataset":
        """Row-subset sharing the environment registry and column metadata.

        The subset is not validated again, because row selection keeps every
        invariant ``__post_init__`` established: the selected features are
        still a finite 2-D float matrix with the same columns, the responses
        still lie in {0, 1}, every environment label left was registered in
        the registry the subset shares, and the registry and column metadata
        are reused unchanged.  The selected arrays are copies, frozen like
        the originals.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n,):
            raise ValidationError(f"mask must have shape ({self.n},), got {mask.shape}")
        subset = copy.copy(self)
        for name in ("features", "response", "env_of"):
            rows = getattr(self, name)[mask]
            rows.setflags(write=False)
            object.__setattr__(subset, name, rows)
        return subset


def _label_mask(env_of: np.ndarray, labels) -> np.ndarray:
    """Rows of ``env_of`` whose label is one of ``labels``."""
    mask = np.zeros(env_of.shape, dtype=bool)
    for label in labels:
        mask |= env_of == label
    return mask


def training_subset(d: MultiEnvDataset) -> MultiEnvDataset:
    """Rows belonging to training-role environments."""
    return d.take(_label_mask(d.env_of, d.train_labels))


def test_subset(d: MultiEnvDataset) -> MultiEnvDataset:
    """Rows belonging to the test-role environment."""
    label = d.test_label
    if label is None:
        raise ValidationError("dataset has no test environment")
    return d.take(d.rows_in(label))


def feature_groups(d: MultiEnvDataset) -> tuple[tuple[int, ...], ...]:
    """Column-index groups sharing a raw origin, in first-appearance order.

    Numeric columns form singleton groups; the encoder maps a categorical
    raw column to one group spanning all of its indicator columns.
    """
    order: list[str] = []
    members: dict[str, list[int]] = {}
    for j, name in enumerate(d.column_names):
        origin = d.column_origin[name]
        if origin not in members:
            members[origin] = []
            order.append(origin)
        members[origin].append(j)
    return tuple(tuple(members[o]) for o in order)


@dataclass(frozen=True)
class EncodingSpec:
    """Declarative schema for turning a raw CSV into a dataset.

    ``kinds`` maps each feature column to "numeric" or "categorical";
    categorical columns list their categories with the first entry acting as
    the dropped reference level (an unseen category encodes as all zeros).
    ``missing_policy`` is "drop_row" (default) or "missing_as_category"; the
    missing token is matched after stripping surrounding whitespace, and
    numeric columns always drop rows with missing cells.  ``env_map`` sends
    raw environment values to {"label", "role"} records, where role "drop"
    discards the row.
    """

    columns: tuple[str, ...]
    kinds: Mapping[str, str]
    categories: Mapping[str, tuple[str, ...]]
    response_column: str
    response_map: Mapping[str, int]
    env_column: str
    env_map: Mapping[str, Mapping[str, str]]
    missing_policy: str = "drop_row"
    missing_token: str = _MISSING_TOKEN

    def __post_init__(self):
        if self.missing_policy not in ("drop_row", "missing_as_category"):
            raise ValidationError(f"unknown missing_policy {self.missing_policy!r}")
        for col in self.columns:
            kind = self.kinds.get(col)
            if kind not in ("numeric", "categorical"):
                raise ValidationError(f"column {col!r} has unknown kind {kind!r}")
            if kind == "categorical":
                cats = self.categories.get(col, ())
                if len(cats) < 1:
                    raise ValidationError(f"categorical column {col!r} lists no categories")
                if len(set(cats)) != len(cats):
                    raise ValidationError(f"categorical column {col!r} repeats a category")
        if set(self.response_map.values()) - {0, 1}:
            raise ValidationError("response_map must map onto {0, 1}")
        for raw, record in self.env_map.items():
            role = record.get("role")
            if role not in (ROLE_TRAIN, ROLE_TEST, ROLE_DROP):
                raise ValidationError(f"env value {raw!r} has unknown role {role!r}")
            if role != ROLE_DROP and not record.get("label"):
                raise ValidationError(f"env value {raw!r} needs a label")

    def encoded_columns(self) -> tuple[tuple[str, str], ...]:
        """(encoded name, raw origin) pairs in deterministic order."""
        out: list[tuple[str, str]] = []
        for col in self.columns:
            if self.kinds[col] == "numeric":
                out.append((col, col))
            else:
                for cat in self.categories[col][1:]:
                    out.append((f"{col}={cat}", col))
        return tuple(out)

    def to_json(self) -> str:
        payload = {
            "columns": list(self.columns),
            "kinds": dict(self.kinds),
            "categories": {k: list(v) for k, v in self.categories.items()},
            "response_column": self.response_column,
            "response_map": dict(self.response_map),
            "env_column": self.env_column,
            "env_map": {k: dict(v) for k, v in self.env_map.items()},
            "missing_policy": self.missing_policy,
            "missing_token": self.missing_token,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "EncodingSpec":
        """Parse :meth:`to_json` output; a malformed document raises :class:`SchemaError`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"schema is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise SchemaError(f"schema must be a JSON object, not {type(payload).__name__}")
        try:
            fields = dict(
                columns=tuple(payload["columns"]),
                kinds=dict(payload["kinds"]),
                categories={k: tuple(v) for k, v in payload["categories"].items()},
                response_column=payload["response_column"],
                response_map={k: int(v) for k, v in payload["response_map"].items()},
                env_column=payload["env_column"],
                env_map={k: dict(v) for k, v in payload["env_map"].items()},
                missing_policy=payload.get("missing_policy", "drop_row"),
                missing_token=payload.get("missing_token", _MISSING_TOKEN),
            )
        except KeyError as exc:
            raise SchemaError(f"schema has no {exc.args[0]!r} entry") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise SchemaError(f"schema entry has the wrong type: {exc}") from None
        return EncodingSpec(**fields)


def _columns(header: list[str], rows: list[tuple[int, list[str]]]):
    """Cells by header name, transposed once, up to the first row of the wrong width.

    Also returns that row's :class:`CsvParseError`, or None.  Callers strip only
    the columns they compare: ``float`` ignores the whitespace ``str.strip`` removes.
    """
    cells = [row for _, row in rows]
    widths = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))
    wrong = np.flatnonzero(widths != len(header))
    bad_width = None
    if wrong.size:
        line_no, row = rows[wrong[0]]
        bad_width = CsvParseError(f"expected {len(header)} fields, found {len(row)}", line=line_no)
        cells = cells[: wrong[0]]
    columns = list(zip(*cells)) if cells else [()] * len(header)
    return dict(zip(header, columns)), bad_width


def _floats(cells: Sequence[str]) -> np.ndarray | None:
    """The cells parsed by ``float``, or None when one of them does not parse."""
    try:
        return np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        return None


def encode_table(
    header: list[str],
    rows: list[tuple[int, list[str]]],
    spec: EncodingSpec,
) -> MultiEnvDataset:
    """Encode parsed CSV cells (as (line number, row) pairs) under ``spec``.

    Cells are whitespace-stripped before any comparison.  Rows are dropped
    when their environment maps to role "drop" or when the missing policy
    says so; every other unmappable value raises :class:`SchemaError`, as
    does a numeric cell that is not a finite float (``nan``, ``inf``).

    A refusal names the first offending line in file order.  Within a line
    the environment comes first, then the response, then the columns in spec
    order, and a row dropped by its environment or a missing cell raises
    nothing for its later cells.  A row of the wrong width raises
    :class:`CsvParseError` only when no earlier row raised.
    """
    for col in (*spec.columns, spec.response_column, spec.env_column):
        if col not in header:
            raise SchemaError(f"column {col!r} not present in header")
    cells, bad_width = _columns(header, rows)
    refusals: list[tuple[int, int, str]] = []  # (row, stage): the least one is raised

    env_cells = list(map(str.strip, cells[spec.env_column]))
    n = len(env_cells)
    code_of_env = {raw: code for code, raw in enumerate(spec.env_map)}
    env_codes = np.fromiter(map(code_of_env.get, env_cells, repeat(-1)), dtype=np.intp, count=n)
    for i in np.flatnonzero(env_codes < 0)[:1]:
        refusals.append((i, 0, f"unmapped environment value {env_cells[i]!r}"))
    # code -1 (unmapped) indexes the trailing False
    keep = np.array([r["role"] != ROLE_DROP for r in spec.env_map.values()] + [False])[env_codes]

    y_cells = list(map(str.strip, cells[spec.response_column]))
    response = np.fromiter(map(spec.response_map.get, y_cells, repeat(-1)), np.int64, count=n)
    for i in np.flatnonzero(keep & (response < 0))[:1]:
        refusals.append((i, 1, f"unmapped response value {y_cells[i]!r}"))

    encoded = spec.encoded_columns()
    features = np.empty((n, len(encoded)))
    cursor = 0
    # a token that does not parse already fails the one-pass parse of its column
    token_parses = _floats([spec.missing_token]) is not None
    for stage, col in enumerate(spec.columns, start=2):
        column = cells[col]
        if spec.kinds[col] == "numeric":
            values = _floats(column)
            if values is None or token_parses and spec.missing_token in map(str.strip, column):
                values = np.zeros(n)
                for i, cell in enumerate(map(str.strip, column)):
                    if cell in ("", spec.missing_token):
                        keep[i] = False
                        continue
                    try:
                        values[i] = float(cell)
                    except ValueError:
                        if keep[i]:
                            refusals.append(
                                (i, stage, f"column {col!r} has non-numeric value {cell!r}")
                            )
                            break
            # rows after a non-numeric cell hold 0 here, and that cell's refusal comes first
            for i in np.flatnonzero(keep & ~np.isfinite(values))[:1]:
                refusals.append(
                    (i, stage, f"column {col!r} has non-finite value {column[i].strip()!r}")
                )
            features[:, cursor] = values
            cursor += 1
        else:
            levels = spec.categories[col][1:]  # the reference level and unseen cells: -1
            slot = {cat: j for j, cat in enumerate(levels)}
            if spec.missing_policy == "drop_row":
                slot[""] = slot[spec.missing_token] = -2
            codes = np.fromiter(map(slot.get, map(str.strip, column), repeat(-1)), np.intp, count=n)
            keep &= codes != -2
            features[:, cursor : cursor + len(levels)] = codes[:, None] == np.arange(len(levels))
            cursor += len(levels)

    if refusals:
        i, _, message = min(refusals)
        raise SchemaError(f"line {rows[i][0]}: {message}")
    if bad_width is not None:
        raise bad_width

    declared: dict[str, str] = {}
    for record in spec.env_map.values():
        if record["role"] != ROLE_DROP:
            declared.setdefault(record["label"], record["role"])
    label_of = np.array([r.get("label") for r in spec.env_map.values()], dtype=object)
    present = set(label_of[np.bincount(env_codes[keep], minlength=len(label_of)) > 0])
    empty = [label for label in declared if label not in present]
    if empty:
        raise ValidationError(f"declared environments ended up empty: {empty}")

    return MultiEnvDataset(
        features=features[keep],
        response=response[keep],
        env_of=label_of[env_codes[keep]],
        environments=tuple(Environment(label, role) for label, role in declared.items()),
        column_names=tuple(name for name, _ in encoded),
        column_origin=dict(encoded),
    )


def _read_csv(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError("file is empty") from None
        header = [h.strip() for h in header]
        rows = [(i, row) for i, row in enumerate(reader, start=2) if row]
    return header, rows


def sniff_table(
    header: list[str],
    rows: list[tuple[int, list[str]]],
    env_column: str,
    response_column: str,
    test_env: str | None = None,
    response_map: Mapping[str, int] | None = None,
    exclude: tuple[str, ...] = (),
) -> EncodingSpec:
    """Build an :class:`EncodingSpec` by inspecting parsed cells once.

    A feature column is numeric when every non-missing cell parses as a
    float, categorical otherwise with categories sorted ascending (first =
    reference).  Environment values become labels verbatim; the one equal to
    ``test_env`` gets the test role.  Without an explicit ``response_map``
    the response column must carry exactly two distinct values, mapped in
    sorted order to 0 and 1.  Columns named in ``exclude`` are left out of
    the feature set.

    Each column is typed by one ``float`` pass; only where that fails is it
    parsed again without its missing cells.  A row of the wrong width raises
    :class:`CsvParseError`.
    """
    for col in (env_column, response_column):
        if col not in header:
            raise SchemaError(f"column {col!r} not present in header")
    cells, bad_width = _columns(header, rows)
    if bad_width is not None:
        raise bad_width

    skip = {env_column, response_column, *exclude}
    feature_cols = [c for c in header if c not in skip]
    kinds: dict[str, str] = {}
    categories: dict[str, tuple[str, ...]] = {}
    for col in feature_cols:
        present = cells[col]
        numeric = _floats(present) is not None
        if not numeric:
            present = [c for c in map(str.strip, present) if c not in ("", _MISSING_TOKEN)]
            numeric = _floats(present) is not None
        kinds[col] = "numeric" if numeric and present else "categorical"
        if kinds[col] == "categorical":
            categories[col] = tuple(sorted(set(present)))

    if response_map is None:
        distinct = sorted(set(map(str.strip, cells[response_column])))
        if len(distinct) != 2:
            raise SchemaError(
                f"response column {response_column!r} has {len(distinct)} distinct "
                "values; pass an explicit response_map"
            )
        response_map = {distinct[0]: 0, distinct[1]: 1}

    env_map = {
        value: {
            "label": value,
            "role": ROLE_TEST if value == test_env else ROLE_TRAIN,
        }
        for value in sorted(set(map(str.strip, cells[env_column])))
    }
    if test_env is not None and test_env not in env_map:
        raise SchemaError(f"test environment {test_env!r} never appears in {env_column!r}")

    return EncodingSpec(
        columns=tuple(feature_cols),
        kinds=kinds,
        categories=categories,
        response_column=response_column,
        response_map=dict(response_map),
        env_column=env_column,
        env_map=env_map,
    )
