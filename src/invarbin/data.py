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
bit-identical matrices.
"""

from __future__ import annotations

import copy
import csv
import json
from dataclasses import dataclass, field
from typing import Mapping

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

    def env_sizes(self) -> dict[str, int]:
        return {e.label: int(np.count_nonzero(self.env_of == e.label)) for e in self.environments}

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


def _is_missing(value: str, token: str) -> bool:
    return value == "" or value == token


def encode_table(
    header: list[str],
    rows: list[tuple[int, list[str]]],
    spec: EncodingSpec,
) -> MultiEnvDataset:
    """Encode parsed CSV cells (as (line number, row) pairs) under ``spec``.

    Cells are whitespace-stripped before any comparison.  Rows are dropped
    when their environment maps to role "drop" or when the missing policy
    says so; every other unmappable value raises :class:`SchemaError`.
    """
    positions = {name: i for i, name in enumerate(header)}
    for col in (*spec.columns, spec.response_column, spec.env_column):
        if col not in positions:
            raise SchemaError(f"column {col!r} not present in header")

    cat_positions: dict[str, dict[str, int]] = {}
    for col in spec.columns:
        if spec.kinds[col] == "categorical":
            cats = spec.categories[col]
            cat_positions[col] = {c: i - 1 for i, c in enumerate(cats)}

    encoded = spec.encoded_columns()
    width = len(encoded)
    offsets: dict[str, int] = {}
    cursor = 0
    for col in spec.columns:
        offsets[col] = cursor
        cursor += 1 if spec.kinds[col] == "numeric" else len(spec.categories[col]) - 1

    feature_rows: list[np.ndarray] = []
    responses: list[int] = []
    env_labels: list[str] = []
    declared: dict[str, str] = {}
    for record in spec.env_map.values():
        if record["role"] != ROLE_DROP and record["label"] not in declared:
            declared[record["label"]] = record["role"]

    for line_no, row in rows:
        if len(row) != len(header):
            raise CsvParseError(
                f"expected {len(header)} fields, found {len(row)}", line=line_no
            )
        cells = [c.strip() for c in row]

        raw_env = cells[positions[spec.env_column]]
        if raw_env not in spec.env_map:
            raise SchemaError(f"line {line_no}: unmapped environment value {raw_env!r}")
        env_record = spec.env_map[raw_env]
        if env_record["role"] == ROLE_DROP:
            continue

        raw_y = cells[positions[spec.response_column]]
        if raw_y not in spec.response_map:
            raise SchemaError(f"line {line_no}: unmapped response value {raw_y!r}")

        values = np.zeros(width)
        drop = False
        for col in spec.columns:
            cell = cells[positions[col]]
            missing = _is_missing(cell, spec.missing_token)
            if spec.kinds[col] == "numeric":
                if missing:
                    drop = True
                    break
                try:
                    values[offsets[col]] = float(cell)
                except ValueError:
                    raise SchemaError(
                        f"line {line_no}: column {col!r} has non-numeric value {cell!r}"
                    ) from None
            else:
                if missing and spec.missing_policy == "drop_row":
                    drop = True
                    break
                slot = cat_positions[col].get(cell)
                if slot is None:
                    # unseen category (or undeclared missing token): all zeros
                    continue
                if slot >= 0:
                    values[offsets[col] + slot] = 1.0
        if drop:
            continue

        feature_rows.append(values)
        responses.append(spec.response_map[raw_y])
        env_labels.append(env_record["label"])

    environments = tuple(Environment(label, role) for label, role in declared.items())
    sizes = {label: 0 for label in declared}
    for label in env_labels:
        sizes[label] += 1
    empty = [label for label, count in sizes.items() if count == 0]
    if empty:
        raise ValidationError(f"declared environments ended up empty: {empty}")

    features = np.asarray(feature_rows) if feature_rows else np.zeros((0, width))
    names = tuple(name for name, _ in encoded)
    origin = {name: raw for name, raw in encoded}
    return MultiEnvDataset(
        features=features,
        response=np.asarray(responses, dtype=np.int64),
        env_of=np.asarray(env_labels, dtype=object),
        environments=environments,
        column_names=names,
        column_origin=origin,
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
    """
    positions = {name: i for i, name in enumerate(header)}
    for col in (env_column, response_column):
        if col not in positions:
            raise SchemaError(f"column {col!r} not present in header")

    skip = {env_column, response_column, *exclude}
    feature_cols = [c for c in header if c not in skip]
    seen: dict[str, set[str]] = {c: set() for c in feature_cols}
    numeric_ok: dict[str, bool] = {c: True for c in feature_cols}
    env_values: list[str] = []
    response_values: set[str] = set()
    for line_no, row in rows:
        if len(row) != len(header):
            raise CsvParseError(
                f"expected {len(header)} fields, found {len(row)}", line=line_no
            )
        cells = [c.strip() for c in row]
        value = cells[positions[env_column]]
        if value not in env_values:
            env_values.append(value)
        response_values.add(cells[positions[response_column]])
        for col in feature_cols:
            cell = cells[positions[col]]
            if _is_missing(cell, _MISSING_TOKEN):
                continue
            seen[col].add(cell)
            if numeric_ok[col]:
                try:
                    float(cell)
                except ValueError:
                    numeric_ok[col] = False

    kinds: dict[str, str] = {}
    categories: dict[str, tuple[str, ...]] = {}
    for col in feature_cols:
        if numeric_ok[col] and seen[col]:
            kinds[col] = "numeric"
        else:
            kinds[col] = "categorical"
            categories[col] = tuple(sorted(seen[col]))

    if response_map is None:
        distinct = sorted(response_values)
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
        for value in sorted(env_values)
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
