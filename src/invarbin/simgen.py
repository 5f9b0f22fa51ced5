"""Data generators: two Gaussian families plus an exact discrete oracle.

Everything here is seeded through counter-based Philox bit generators, so a
given (seed, stream) pair yields the same draws on any platform and any
worker schedule.  Stream 0 is reserved for drawing configurations, stream 1
for generating data from a configuration, stream 2 for building random
discrete structural models.

The discrete part of the module exists to check the pipeline's central
identity without sampling error: a structural model over finitely supported
variables admits exact (rational-arithmetic) conditional expectations, so
the matching ratio can be compared against the true conditional class
probability at every support point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .data import Environment, MultiEnvDataset, ROLE_TEST, ROLE_TRAIN
from .errors import SupportSizeError, ValidationError

TARGET = "Y"

_MAX_ATOMS = 10_000
_MIN_VIOLATION_GAP = 0.05


def philox_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; (seed, stream) fully determines the draws."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def _stack(parts, column_names: tuple[str, ...]) -> MultiEnvDataset:
    """One dataset from per-environment (label, role, features, response) parts, in order."""
    return MultiEnvDataset(
        features=np.vstack([X for _, _, X, _ in parts]),
        response=np.concatenate([y for _, _, _, y in parts]),
        env_of=np.asarray([label for label, _, _, y in parts for _ in range(len(y))], dtype=object),
        environments=tuple(Environment(label, role) for label, role, _, _ in parts),
        column_names=column_names,
    )


# ---------------------------------------------------------------------------
# Three-variable Gaussian family (one anchor, one shifted cause, one child
# whose slope depends on the class)
# ---------------------------------------------------------------------------


# The reference setting: (label, role, mean of x2, coefficient of x2 in the
# class rule) per environment.  The test environment flips x2's mean and
# severs it from the class, so any predictor leaning on x2's training
# association breaks.
_ANCHOR_ENVS = (
    ("train1", ROLE_TRAIN, 1.0, 1.0),
    ("train2", ROLE_TRAIN, 1.0, 1.0),
    ("test", ROLE_TEST, -1.0, 0.0),
)
_ANCHOR_BETA1 = 2.0
_ANCHOR_GAMMA = (1.0, 3.0)


def gen_anchor(n_per_env: int, seed: int) -> MultiEnvDataset:
    """Sample the three-variable family's reference setting; columns x1, x2, x3.

    In every environment x1 ~ N(0, 1) and x2 ~ N(mu2, 1) independently; the
    class is the indicator of 2*x1 + beta2*x2 + N(0, 1) > 0, and x3 =
    gamma_y*x1 + N(0, 1) with (gamma_0, gamma_1) = (1, 3).  The x3 mechanism
    never changes across environments, which is what makes the pair
    (x3, {x1}) usable.  ``_ANCHOR_ENVS`` gives mu2 and beta2 per environment.
    """
    if n_per_env < 1:
        raise ValidationError("n_per_env must be positive")
    rng = philox_generator(seed, stream=1)
    parts = []
    for label, role, mu2, beta2 in _ANCHOR_ENVS:
        x1 = rng.standard_normal(n_per_env)
        x2 = mu2 + rng.standard_normal(n_per_env)
        noise_y = rng.standard_normal(n_per_env)
        y = (_ANCHOR_BETA1 * x1 + beta2 * x2 + noise_y > 0).astype(np.int64)
        gamma = np.where(y == 1, _ANCHOR_GAMMA[1], _ANCHOR_GAMMA[0])
        x3 = gamma * x1 + rng.standard_normal(n_per_env)
        parts.append((label, role, np.column_stack([x1, x2, x3]), y))
    return _stack(parts, ("x1", "x2", "x3"))


# ---------------------------------------------------------------------------
# Benchmark family: x1 responds to all remaining coordinates with a slope
# vector chosen by the class; the test environment flips the response rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkConfig:
    """Drawn configuration of the benchmark family.

    ``mu`` and ``beta`` map each environment label to length-(m-1) vectors;
    the label in ``test_label`` uses the sign-flipped noisy threshold rule
    for the response instead of the logistic rule, so a classifier pooled
    over training environments transfers badly on purpose.  ``eta0`` and
    ``eta1`` are the class-conditional slopes of x1 and never vary across
    environments.
    """

    m: int
    mu: Mapping[str, tuple[float, ...]]
    beta: Mapping[str, tuple[float, ...]]
    eta0: tuple[float, ...]
    eta1: tuple[float, ...]
    test_label: str
    n_per_env: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.m < 2:
            raise ValidationError("benchmark family needs m >= 2")
        if set(self.mu) != set(self.beta):
            raise ValidationError("mu and beta must cover the same environments")
        if self.test_label not in self.mu:
            raise ValidationError(f"test label {self.test_label!r} has no parameters")
        if len(self.mu) < 3:
            raise ValidationError("need at least two training environments plus test")
        width = self.m - 1
        for name, vec in (("eta0", self.eta0), ("eta1", self.eta1)):
            if len(vec) != width:
                raise ValidationError(f"{name} must have length m - 1 = {width}")
        for label in self.mu:
            if len(self.mu[label]) != width or len(self.beta[label]) != width:
                raise ValidationError(f"environment {label!r} has wrong parameter width")
        if self.n_per_env < 1:
            raise ValidationError("n_per_env must be positive")


def draw_benchmark_config(
    seed: int, m: int | None = None, n_per_env: int = 1000
) -> BenchmarkConfig:
    """Draw one replicate configuration (stream 0 of ``seed``).

    Coordinate means are uniform on [-2, 0] in the first training
    environment, [0, 2] in the second and [0, 3] in the test environment;
    each environment gets its own nonnegative slope vector normalized to sum
    one, and the class-conditional slopes of x1 are uniform on [0, 1].
    """
    rng = philox_generator(seed, stream=0)
    if m is None:
        m = int(rng.integers(3, 8))
    if m < 2:
        raise ValidationError("benchmark family needs m >= 2")
    width = m - 1
    intervals = {"env1": (-2.0, 0.0), "env2": (0.0, 2.0), "test": (0.0, 3.0)}
    mu = {
        label: tuple(float(v) for v in rng.uniform(low, high, size=width))
        for label, (low, high) in intervals.items()
    }
    beta: dict[str, tuple[float, ...]] = {}
    for label in intervals:
        raw = rng.uniform(0.0, 1.0, size=width)
        beta[label] = tuple(float(v) for v in raw / raw.sum())
    eta0 = tuple(float(v) for v in rng.uniform(0.0, 1.0, size=width))
    eta1 = tuple(float(v) for v in rng.uniform(0.0, 1.0, size=width))
    return BenchmarkConfig(
        m=m,
        mu=mu,
        beta=beta,
        eta0=eta0,
        eta1=eta1,
        test_label="test",
        n_per_env=n_per_env,
        seed=seed,
    )


def gen_benchmark(cfg: BenchmarkConfig) -> MultiEnvDataset:
    """Sample the benchmark family (stream 1 of ``cfg.seed``).

    Training responses are Bernoulli with logistic probability in the
    remaining coordinates; the test response is 1 exactly when the linear
    score plus standard normal noise is negative.  x1 is generated last from
    the class-conditional slopes plus unit noise.
    """
    rng = philox_generator(cfg.seed, stream=1)
    width = cfg.m - 1
    parts = []
    eta0 = np.asarray(cfg.eta0)
    eta1 = np.asarray(cfg.eta1)
    for label in cfg.mu:
        n = cfg.n_per_env
        mu = np.asarray(cfg.mu[label])
        beta = np.asarray(cfg.beta[label])
        rest = mu + rng.standard_normal((n, width))
        score = rest @ beta
        if label == cfg.test_label:
            y = (score + rng.standard_normal(n) < 0).astype(np.int64)
            role = ROLE_TEST
        else:
            prob = 1.0 / (1.0 + np.exp(-score))
            y = (rng.random(n) < prob).astype(np.int64)
            role = ROLE_TRAIN
        slopes = np.where(y[:, None] == 1, eta1, eta0)
        x1 = (rest * slopes).sum(axis=1) + rng.standard_normal(n)
        parts.append((label, role, np.column_stack([x1, rest]), y))
    return _stack(parts, tuple(f"x{j}" for j in range(1, cfg.m + 1)))


# ---------------------------------------------------------------------------
# Finite-support structural models with exact conditional expectations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteNoise:
    """Finitely supported, exactly mean-zero additive noise."""

    values: tuple[Fraction, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != len(self.probs) or not self.values:
            raise ValidationError("noise needs matching, non-empty values and probs")
        if len(set(self.values)) != len(self.values):
            raise ValidationError("noise values must be distinct")
        if any(p < 0 for p in self.probs) or sum(self.probs) != 1:
            raise ValidationError("noise probs must be non-negative and sum to one")
        if sum(v * p for v, p in zip(self.values, self.probs)) != 0:
            raise ValidationError("noise must have exactly zero mean")


@dataclass(frozen=True)
class CptVariable:
    """A finitely supported variable with one CPT per environment.

    CPT keys are tuples of parent values aligned with ``parents``; each row
    is a probability vector over ``support``.
    """

    name: str
    parents: tuple[str, ...]
    support: tuple[Fraction, ...]
    cpts: Mapping[str, Mapping[tuple, tuple[Fraction, ...]]]

    def __post_init__(self):
        if len(set(self.support)) != len(self.support) or not self.support:
            raise ValidationError(f"{self.name}: support must be non-empty and distinct")
        for env, cpt in self.cpts.items():
            for key, row in cpt.items():
                if len(key) != len(self.parents):
                    raise ValidationError(f"{self.name}: CPT key arity mismatch in {env!r}")
                if len(row) != len(self.support):
                    raise ValidationError(f"{self.name}: CPT row width mismatch in {env!r}")
                if any(p < 0 for p in row) or sum(row) != 1:
                    raise ValidationError(
                        f"{self.name}: CPT row must be a probability vector in {env!r}"
                    )


@dataclass(frozen=True)
class AdditiveMechanism:
    """X_k = g(parent values, class) + noise, with g shared across envs.

    ``g`` is keyed by tuples of the upstream-parent values followed by the
    class value; only the noise distribution may differ per environment.
    """

    r_parents: tuple[str, ...]
    g: Mapping[tuple, Fraction]
    noise: Mapping[str, DiscreteNoise]


@dataclass(frozen=True)
class ScmSpec:
    """A multi-environment structural model over finite supports.

    ``order`` is a topological ordering of all variables including the
    target and the additively generated ``k_name``.  ``q_names`` selects the
    conditioning variables that accompany ``r_parents`` in the matching set;
    whether they are actually non-descendants of ``k_name`` is checked by
    :func:`q_is_non_descendant`, not here, so that deliberately broken
    models can be built for power studies.
    """

    envs: tuple[str, ...]
    order: tuple[str, ...]
    variables: Mapping[str, CptVariable]
    k_name: str
    k_mechanism: AdditiveMechanism
    q_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.envs) < 2:
            raise ValidationError("need at least two environments")
        names = set(self.order)
        if len(self.order) != len(names):
            raise ValidationError("order repeats a variable")
        expected = set(self.variables) | {self.k_name}
        if names != expected:
            raise ValidationError("order must list every variable exactly once")
        if TARGET not in self.variables:
            raise ValidationError(f"spec needs a target variable named {TARGET!r}")
        if set(self.variables[TARGET].support) != {Fraction(0), Fraction(1)}:
            raise ValidationError("target support must be {0, 1}")
        position = {name: i for i, name in enumerate(self.order)}
        for name, var in self.variables.items():
            for parent in var.parents:
                if parent not in position or position[parent] >= position[name]:
                    raise ValidationError(f"{name}: parent {parent!r} does not precede it")
            missing = [env for env in self.envs if env not in var.cpts]
            if missing:
                raise ValidationError(f"{name}: no CPT for environments {missing}")
        for parent in (*self.k_mechanism.r_parents, TARGET):
            if position.get(parent, len(self.order)) >= position[self.k_name]:
                raise ValidationError(f"k parent {parent!r} does not precede {self.k_name!r}")
        missing = [env for env in self.envs if env not in self.k_mechanism.noise]
        if missing:
            raise ValidationError(f"{self.k_name}: no noise for environments {missing}")
        for q in self.q_names:
            if q not in self.variables or q == TARGET:
                raise ValidationError(f"q variable {q!r} must be a non-target variable")

    @property
    def s_names(self) -> tuple[str, ...]:
        """Matching set R union Q, ordered as in ``order``."""
        wanted = set(self.k_mechanism.r_parents) | set(self.q_names)
        return tuple(name for name in self.order if name in wanted)

    def k_parents(self) -> tuple[str, ...]:
        return (*self.k_mechanism.r_parents, TARGET)


def children_map(spec: ScmSpec) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {name: set() for name in spec.order}
    for name, var in spec.variables.items():
        for parent in var.parents:
            out[parent].add(name)
    for parent in spec.k_parents():
        out[parent].add(spec.k_name)
    return out


def descendants(spec: ScmSpec, name: str) -> set[str]:
    kids = children_map(spec)
    seen: set[str] = set()
    frontier = [name]
    while frontier:
        node = frontier.pop()
        for child in kids[node]:
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen


def q_is_non_descendant(spec: ScmSpec) -> bool:
    """True when every q variable lies outside k's descendant set."""
    below = descendants(spec, spec.k_name)
    return not any(q in below for q in spec.q_names)


def _k_support(mech: AdditiveMechanism) -> tuple[Fraction, ...]:
    noise_values = set()
    for noise in mech.noise.values():
        noise_values.update(noise.values)
    values = {g + nu for g in mech.g.values() for nu in noise_values}
    return tuple(sorted(values))


def _atom_count(spec: ScmSpec) -> int:
    atoms = 1
    for name in spec.order:
        if name == spec.k_name:
            atoms *= max(len(noise.values) for noise in spec.k_mechanism.noise.values())
        else:
            atoms *= len(spec.variables[name].support)
    return atoms


class DiscreteOracle:
    """Exact per-environment joint distribution and conditional tables.

    Probabilities are rational numbers; construction refuses a joint support
    of more than 10^4 atoms.
    """

    def __init__(self, spec: ScmSpec):
        self.spec = spec
        atoms = _atom_count(spec)
        if atoms > _MAX_ATOMS:
            raise SupportSizeError(
                f"joint support would hold {atoms} atoms (limit {_MAX_ATOMS})"
            )
        self.atom_count = atoms
        self._joint = {env: self._build_joint(env) for env in spec.envs}
        self._s_tables: dict[str, dict] = {}

    def _build_joint(self, env: str) -> dict[tuple, Fraction]:
        spec = self.spec
        position = {name: i for i, name in enumerate(spec.order)}
        r_slots = tuple(position[p] for p in spec.k_mechanism.r_parents)
        y_slot = position[TARGET]
        noise = spec.k_mechanism.noise[env]

        # Extend partial assignments variable by variable in topological
        # order, so a child of k sees k's realized value in its CPT key.
        states: list[tuple[tuple, Fraction]] = [((), Fraction(1))]
        for name in spec.order:
            extended: list[tuple[tuple, Fraction]] = []
            if name == spec.k_name:
                for prefix, prob in states:
                    g_key = tuple(prefix[i] for i in r_slots) + (prefix[y_slot],)
                    g_val = spec.k_mechanism.g[g_key]
                    for nu, q in zip(noise.values, noise.probs):
                        if q:
                            extended.append((prefix + (g_val + nu,), prob * q))
            else:
                var = spec.variables[name]
                slots = tuple(position[p] for p in var.parents)
                cpt = var.cpts[env]
                for prefix, prob in states:
                    row = cpt[tuple(prefix[i] for i in slots)]
                    for value, q in zip(var.support, row):
                        if q:
                            extended.append((prefix + (value,), prob * q))
            states = extended

        joint: dict[tuple, Fraction] = {}
        for assignment, prob in states:
            joint[assignment] = joint.get(assignment, Fraction(0)) + prob
        return joint

    def total_mass(self, env: str):
        return sum(self._joint[env].values())

    def _s_table(self, env: str) -> dict:
        """Per x_S accumulators: mass, class-1 mass, k sums overall/by class."""
        if env in self._s_tables:
            return self._s_tables[env]
        spec = self.spec
        slots = [spec.order.index(name) for name in spec.s_names]
        y_slot = spec.order.index(TARGET)
        k_slot = spec.order.index(spec.k_name)
        table: dict[tuple, list] = {}
        for assignment, p in self._joint[env].items():
            key = tuple(assignment[i] for i in slots)
            cell = table.setdefault(key, [Fraction(0)] * 5)
            y = assignment[y_slot]
            k_val = assignment[k_slot]
            cell[0] += p
            cell[2] += p * k_val
            if y == 1:
                cell[1] += p
                cell[3] += p * k_val
            else:
                cell[4] += p * k_val
        self._s_tables[env] = table
        return table

    def support_s(self, env: str) -> tuple[tuple, ...]:
        """Positive-probability values of the matching set, sorted."""
        return tuple(sorted(self._s_table(env).keys()))

    def e_y_given_s(self, env: str, x_s: tuple):
        cell = self._s_table(env)[x_s]
        return cell[1] / cell[0]

    def e_k_given_s(self, env: str, x_s: tuple):
        cell = self._s_table(env)[x_s]
        return cell[2] / cell[0]

    def h_given_s(self, env: str, x_s: tuple, y: int):
        """E[X_k | X_S = x_s, Y = y]; None when the class has zero mass."""
        cell = self._s_table(env)[x_s]
        mass1 = cell[1]
        mass0 = cell[0] - cell[1]
        if y == 1:
            return None if mass1 == 0 else cell[3] / mass1
        return None if mass0 == 0 else cell[4] / mass0


def ratio_identity_gap(spec: ScmSpec, oracle: DiscreteOracle | None = None) -> float:
    """Worst |matching ratio - P(Y=1 | X_S)| over envs and support points.

    Skips support points where either class-conditional expectation is
    undefined or where the two coincide (vanishing denominator).
    """
    oracle = oracle or DiscreteOracle(spec)
    worst = Fraction(0)
    for env in spec.envs:
        for x_s in oracle.support_s(env):
            h0 = oracle.h_given_s(env, x_s, 0)
            h1 = oracle.h_given_s(env, x_s, 1)
            if h0 is None or h1 is None or h1 == h0:
                continue
            ratio = (oracle.e_k_given_s(env, x_s) - h0) / (h1 - h0)
            gap = abs(ratio - oracle.e_y_given_s(env, x_s))
            if gap > worst:
                worst = gap
    return float(worst)


def h_invariance_gap(spec: ScmSpec, oracle: DiscreteOracle | None = None) -> float:
    """Worst cross-environment disagreement of the class-conditional tables.

    Compares h(x_S, y) between every environment pair at shared support
    points, for both classes.  Zero means the matching function is
    environment-constant wherever it is defined.
    """
    oracle = oracle or DiscreteOracle(spec)
    worst = Fraction(0)
    for env_a, env_b in itertools.combinations(spec.envs, 2):
        shared = set(oracle.support_s(env_a)) & set(oracle.support_s(env_b))
        for x_s in shared:
            for y in (0, 1):
                ha = oracle.h_given_s(env_a, x_s, y)
                hb = oracle.h_given_s(env_b, x_s, y)
                if ha is None or hb is None:
                    continue
                gap = abs(ha - hb)
                if gap > worst:
                    worst = gap
    return float(worst)


def sample_scm(spec: ScmSpec, env: str, n: int, seed: int) -> dict[str, np.ndarray]:
    """Vectorized ancestral sampling; returns one float array per variable."""
    if env not in spec.envs:
        raise ValidationError(f"unknown environment {env!r}")
    rng = philox_generator(seed, stream=3)
    codes: dict[str, np.ndarray] = {}
    values: dict[str, np.ndarray] = {}
    support_of: dict[str, tuple[Fraction, ...]] = {
        name: var.support for name, var in spec.variables.items()
    }
    support_of[spec.k_name] = _k_support(spec.k_mechanism)

    def parent_codes(parents: tuple[str, ...]) -> np.ndarray:
        idx = np.zeros(n, dtype=np.int64)
        for parent in parents:
            idx = idx * len(support_of[parent]) + codes[parent]
        return idx

    for name in spec.order:
        if name == spec.k_name:
            mech = spec.k_mechanism
            parents = spec.k_parents()
            combos = list(itertools.product(*(support_of[p] for p in parents)))
            g_row = np.asarray([float(mech.g[key]) for key in combos])
            noise = mech.noise[env]
            cum = np.cumsum(np.asarray([float(q) for q in noise.probs]))
            noise_idx = np.searchsorted(cum, rng.random(n), side="right")
            noise_idx = np.minimum(noise_idx, len(noise.values) - 1)
            k_support = support_of[spec.k_name]
            pos_of = {v: i for i, v in enumerate(k_support)}
            pos_table = np.asarray(
                [
                    [pos_of[mech.g[key] + nu] for nu in noise.values]
                    for key in combos
                ],
                dtype=np.int64,
            )
            idx = parent_codes(parents)
            codes[name] = pos_table[idx, noise_idx]
            values[name] = g_row[idx] + np.asarray([float(v) for v in noise.values])[noise_idx]
        else:
            var = spec.variables[name]
            combos = list(itertools.product(*(support_of[p] for p in var.parents)))
            probs = np.asarray(
                [[float(p) for p in var.cpts[env][key]] for key in combos]
            )
            cum = np.cumsum(probs, axis=1)
            idx = parent_codes(var.parents)
            u = rng.random(n)
            pick = (u[:, None] > cum[idx]).sum(axis=1)
            pick = np.minimum(pick, len(var.support) - 1)
            codes[name] = pick
            values[name] = np.asarray([float(v) for v in var.support])[pick]
    return values


def scm_dataset(spec: ScmSpec, n_per_env: int, seed: int, test_env: str) -> MultiEnvDataset:
    """Sample every environment and package the draws as a dataset.

    Feature columns are the non-target variables in ``spec.order``.
    """
    if test_env not in spec.envs:
        raise ValidationError(f"unknown test environment {test_env!r}")
    feature_names = tuple(name for name in spec.order if name != TARGET)
    parts = []
    for i, env in enumerate(spec.envs):
        draws = sample_scm(spec, env, n_per_env, seed=seed * 1000 + i)
        role = ROLE_TEST if env == test_env else ROLE_TRAIN
        features = np.column_stack([draws[name] for name in feature_names])
        parts.append((env, role, features, draws[TARGET].astype(np.int64)))
    return _stack(parts, feature_names)


# -- random model builders ---------------------------------------------------


def _random_row(rng: np.random.Generator, width: int) -> tuple[Fraction, ...]:
    """Strictly positive probability row with small rational entries."""
    weights = [int(w) for w in rng.integers(1, 10, size=width)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def _random_cpts(
    rng: np.random.Generator,
    envs: tuple[str, ...],
    parents: tuple[str, ...],
    parent_supports: list[tuple[Fraction, ...]],
    width: int,
) -> dict[str, dict[tuple, tuple[Fraction, ...]]]:
    keys = list(itertools.product(*parent_supports))
    return {env: {key: _random_row(rng, width) for key in keys} for env in envs}


def _small_support(rng: np.random.Generator) -> tuple[Fraction, ...]:
    size = int(rng.integers(2, 4))
    start = int(rng.integers(-1, 2))
    return tuple(Fraction(start + i) for i in range(size))


def random_matching_spec(seed: int) -> ScmSpec:
    """A random model in which (k, R union Q) provably matches.

    The additive mechanism g is drawn once and shared by all environments,
    its class gap g(., 1) - g(., 0) is forced away from zero everywhere,
    and all other mechanisms (including the target's) are redrawn per
    environment.  Q collects upstream variables only.
    """
    rng = philox_generator(seed, stream=2)
    envs = ("env1", "env2")
    n_pre = int(rng.integers(1, 3))
    pre = [f"X{i + 1}" for i in range(n_pre)]
    order: list[str] = []
    variables: dict[str, CptVariable] = {}

    for i, name in enumerate(pre):
        parents = tuple(p for p in pre[:i] if rng.random() < 0.5)
        support = _small_support(rng)
        cpts = _random_cpts(
            rng, envs, parents, [variables[p].support for p in parents], len(support)
        )
        variables[name] = CptVariable(name, parents, support, cpts)
        order.append(name)

    y_parents = tuple(p for p in pre if rng.random() < 0.7)
    y_support = (Fraction(0), Fraction(1))
    variables[TARGET] = CptVariable(
        TARGET,
        y_parents,
        y_support,
        _random_cpts(rng, envs, y_parents, [variables[p].support for p in y_parents], 2),
    )
    order.append(TARGET)

    if rng.random() < 0.5:
        mid = "X%d" % (n_pre + 1)
        parents = tuple(
            p for p in (*pre, TARGET) if rng.random() < 0.5
        )
        support = _small_support(rng)
        cpts = _random_cpts(
            rng, envs, parents, [variables[p].support for p in parents], len(support)
        )
        variables[mid] = CptVariable(mid, parents, support, cpts)
        order.append(mid)

    upstream = [name for name in order if name != TARGET]
    n_r = int(rng.integers(0, min(2, len(upstream)) + 1))
    r_order = list(rng.permutation(len(upstream)))
    r_parents = tuple(upstream[i] for i in sorted(r_order[:n_r]))

    k_name = "K"
    g: dict[tuple, Fraction] = {}
    r_supports = [variables[p].support for p in r_parents]
    for key in itertools.product(*r_supports):
        base = Fraction(int(rng.integers(0, 4)))
        delta = Fraction(int(rng.choice([-2, -1, 1, 2])))
        g[key + (Fraction(0),)] = base
        g[key + (Fraction(1),)] = base + delta
    noise = {}
    for env in envs:
        p = Fraction(int(rng.integers(1, 4)), 8)
        noise[env] = DiscreteNoise(
            values=(Fraction(-1), Fraction(0), Fraction(1)),
            probs=(p, 1 - 2 * p, p),
        )
    mech = AdditiveMechanism(r_parents=r_parents, g=g, noise=noise)
    order.append(k_name)

    # optionally hang a child off K; it must stay out of Q
    if rng.random() < 0.5:
        child = "D"
        parents = (k_name,)
        support = (Fraction(0), Fraction(1))
        k_support = _k_support(mech)
        cpts = _random_cpts(rng, envs, parents, [k_support], 2)
        variables[child] = CptVariable(child, parents, support, cpts)
        order.append(child)

    q_names = tuple(name for name in upstream if name not in r_parents)
    return ScmSpec(
        envs=envs,
        order=tuple(order),
        variables=variables,
        k_name=k_name,
        k_mechanism=mech,
        q_names=q_names,
    )


def random_violating_spec(seed: int) -> ScmSpec:
    """A model whose conditioning set includes a descendant of k.

    The descendant's mechanism is flipped between the two environments (its
    dependence on k reverses direction), so the class-conditional tables
    disagree across environments by construction.  Draws are retried with
    the next sub-seed until the realized disagreement reaches 0.05;
    the flip makes the first draw succeed in practice.
    """
    for attempt in range(32):
        spec = _violating_candidate(seed * 100 + attempt)
        if h_invariance_gap(spec) >= _MIN_VIOLATION_GAP:
            return spec
    raise ValidationError(f"could not realize a gap of {_MIN_VIOLATION_GAP} from seed {seed}")


def _violating_candidate(sub_seed: int) -> ScmSpec:
    rng = philox_generator(sub_seed, stream=2)
    envs = ("env1", "env2")
    a_support = (Fraction(0), Fraction(1))
    variables: dict[str, CptVariable] = {
        "A": CptVariable("A", (), a_support, _random_cpts(rng, envs, (), [], 2))
    }
    variables[TARGET] = CptVariable(
        TARGET,
        ("A",),
        (Fraction(0), Fraction(1)),
        _random_cpts(rng, envs, ("A",), [a_support], 2),
    )
    g: dict[tuple, Fraction] = {}
    for a in a_support:
        base = Fraction(int(rng.integers(0, 3)))
        delta = Fraction(int(rng.choice([-1, 1])))
        g[(a, Fraction(0))] = base
        g[(a, Fraction(1))] = base + delta
    p = Fraction(int(rng.integers(1, 4)), 8)
    noise = {
        env: DiscreteNoise((Fraction(-1), Fraction(0), Fraction(1)), (p, 1 - 2 * p, p))
        for env in envs
    }
    mech = AdditiveMechanism(r_parents=("A",), g=g, noise=noise)
    k_support = _k_support(mech)

    # D copies the rank of K in env1 and anti-copies it in env2
    ranks = {v: i for i, v in enumerate(k_support)}
    top = len(k_support) - 1
    cpt_env1 = {}
    cpt_env2 = {}
    for v in k_support:
        lean = Fraction(1 + 8 * ranks[v], 10 * top) if top else Fraction(1, 2)
        lean = min(max(lean, Fraction(1, 10)), Fraction(9, 10))
        cpt_env1[(v,)] = (1 - lean, lean)
        cpt_env2[(v,)] = (lean, 1 - lean)
    variables["D"] = CptVariable(
        "D",
        ("K",),
        (Fraction(0), Fraction(1)),
        {"env1": cpt_env1, "env2": cpt_env2},
    )
    return ScmSpec(
        envs=envs,
        order=("A", TARGET, "K", "D"),
        variables=variables,
        k_name="K",
        k_mechanism=mech,
        q_names=("D",),
    )
