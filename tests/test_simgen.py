from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import invarbin
from invarbin import (
    AdditiveMechanism,
    CptVariable,
    DiscreteNoise,
    DiscreteOracle,
    ScmSpec,
    SupportSizeError,
    ValidationError,
    draw_benchmark_config,
    gen_anchor,
    gen_benchmark,
    h_invariance_gap,
    philox_generator,
    q_is_non_descendant,
    random_matching_spec,
    random_violating_spec,
    ratio_identity_gap,
    sample_scm,
    scm_dataset,
)
from invarbin.simgen import descendants
from invarbin import test_subset as held_out_subset
from invarbin import training_subset

F = Fraction


def test_philox_streams_are_independent_and_repeatable():
    a1 = philox_generator(42, stream=0).normal(size=5)
    a2 = philox_generator(42, stream=0).normal(size=5)
    b = philox_generator(42, stream=1).normal(size=5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


@pytest.mark.parametrize("seed, stream, named", [(-1, 0, "seed"), (0, -3, "stream")])
def test_philox_refuses_negative_seed_or_stream(seed, stream, named):
    with pytest.raises(ValidationError, match=f"{named} must be non-negative"):
        philox_generator(seed, stream)


def test_every_export_resolves():
    missing = [name for name in invarbin.__all__ if not hasattr(invarbin, name)]
    assert missing == []
    assert len(set(invarbin.__all__)) == len(invarbin.__all__)


def test_anchor_dataset_shape_and_roles():
    d = gen_anchor(500, 1)
    assert d.column_names == ("x1", "x2", "x3")
    assert Counter(d.env_of) == {"train1": 500, "train2": 500, "test": 500}
    assert d.test_label == "test"
    assert set(np.unique(d.response)) <= {0, 1}


def test_anchor_generation_deterministic():
    d1 = gen_anchor(200, 9)
    d2 = gen_anchor(200, 9)
    assert np.array_equal(d1.features, d2.features)
    assert np.array_equal(d1.response, d2.response)


def test_anchor_test_env_drops_second_feature():
    # x2 has mean 1 and enters the class rule in training; in the test
    # environment its mean flips to -1 and its coefficient is zero
    d = gen_anchor(4000, 3)
    expected = (("train1", 1.0, True), ("train2", 1.0, True), ("test", -1.0, False))
    for label, mean, informative in expected:
        rows = d.env_of == label
        x = d.features[rows]
        assert x[:, 1].mean() == pytest.approx(mean, abs=0.1)
        design = np.column_stack([np.ones(len(x)), x[:, 0], x[:, 1]])
        coef = np.linalg.lstsq(design, d.response[rows], rcond=None)[0]
        assert coef[2] > 0.1 if informative else abs(coef[2]) < 0.02


def test_benchmark_config_ranges():
    for seed in range(40):
        cfg = draw_benchmark_config(seed)
        assert 3 <= cfg.m <= 7
        for label, beta in cfg.beta.items():
            assert len(beta) == cfg.m - 1
            assert sum(beta) == pytest.approx(1.0, abs=1e-12)
            assert all(b >= 0 for b in beta)
        assert all(-2.0 <= v <= 0.0 for v in cfg.mu["env1"])
        assert all(0.0 <= v <= 2.0 for v in cfg.mu["env2"])
        assert all(0.0 <= v <= 3.0 for v in cfg.mu["test"])
        assert all(0.0 <= v <= 1.0 for v in cfg.eta0)
        assert all(0.0 <= v <= 1.0 for v in cfg.eta1)


def test_benchmark_fixed_m_honored():
    cfg = draw_benchmark_config(5, m=4)
    assert cfg.m == 4
    d = gen_benchmark(cfg)
    assert d.column_names == ("x1", "x2", "x3", "x4")
    assert Counter(d.env_of) == {"env1": 1000, "env2": 1000, "test": 1000}


def test_benchmark_deterministic():
    cfg = draw_benchmark_config(11)
    d1 = gen_benchmark(cfg)
    d2 = gen_benchmark(cfg)
    assert np.array_equal(d1.features, d2.features)
    assert np.array_equal(d1.response, d2.response)


def test_benchmark_first_feature_tracks_class():
    # x1 is generated from the remaining coordinates with class-specific
    # weights, so its class-conditional means should differ
    cfg = draw_benchmark_config(2, m=5)
    d = gen_benchmark(cfg)
    train = training_subset(d)
    x1 = train.features[:, 0]
    m0 = x1[train.response == 0].mean()
    m1 = x1[train.response == 1].mean()
    assert abs(m0 - m1) > 0.01


# -- hand-built discrete model with a brute-force cross-check -----------------


def tiny_matching_spec() -> ScmSpec:
    a = CptVariable(
        name="A",
        parents=(),
        support=(F(0), F(1)),
        cpts={
            "e1": {(): (F(1, 3), F(2, 3))},
            "e2": {(): (F(1, 2), F(1, 2))},
        },
    )
    y = CptVariable(
        name="Y",
        parents=("A",),
        support=(F(0), F(1)),
        cpts={
            "e1": {(F(0),): (F(1, 2), F(1, 2)), (F(1),): (F(1, 4), F(3, 4))},
            "e2": {(F(0),): (F(2, 3), F(1, 3)), (F(1),): (F(1, 5), F(4, 5))},
        },
    )
    mech = AdditiveMechanism(
        r_parents=("A",),
        g={
            (F(0), F(0)): F(0),
            (F(0), F(1)): F(2),
            (F(1), F(0)): F(1),
            (F(1), F(1)): F(3),
        },
        noise={
            "e1": DiscreteNoise((F(-1), F(1)), (F(1, 2), F(1, 2))),
            "e2": DiscreteNoise((F(-1), F(0), F(1)), (F(1, 4), F(1, 2), F(1, 4))),
        },
    )
    return ScmSpec(
        envs=("e1", "e2"),
        order=("A", "Y", "K"),
        variables={"A": a, "Y": y},
        k_name="K",
        k_mechanism=mech,
        q_names=(),
    )


def brute_force_tables(spec: ScmSpec, env: str):
    """Enumerate (a, y, nu) outcomes directly from the declared CPTs."""
    a_var = spec.variables["A"]
    y_var = spec.variables["Y"]
    noise = spec.k_mechanism.noise[env]
    table: dict[Fraction, list[Fraction]] = {}
    for a, pa in zip(a_var.support, a_var.cpts[env][()]):
        for y, py in zip(y_var.support, y_var.cpts[env][(a,)]):
            for nu, pn in zip(noise.values, noise.probs):
                k = spec.k_mechanism.g[(a, y)] + nu
                p = pa * py * pn
                cell = table.setdefault(a, [F(0)] * 5)
                cell[0] += p
                cell[2] += p * k
                if y == 1:
                    cell[1] += p
                    cell[3] += p * k
                else:
                    cell[4] += p * k
    return table


def test_oracle_matches_brute_force_enumeration():
    spec = tiny_matching_spec()
    oracle = DiscreteOracle(spec)
    for env in spec.envs:
        assert sum(oracle.joint(env).values()) == 1
        reference = brute_force_tables(spec, env)
        assert set(oracle.support_s(env)) == {(a,) for a in reference}
        for a, cell in reference.items():
            mass, mass1, sum_k, sum_k1, sum_k0 = cell
            got = (
                oracle.e_y_given_s(env, (a,)),
                oracle.e_k_given_s(env, (a,)),
                oracle.h_given_s(env, (a,), 1),
                oracle.h_given_s(env, (a,), 0),
            )
            assert all(isinstance(v, Fraction) for v in got)
            assert got == (mass1 / mass, sum_k / mass, sum_k1 / mass1, sum_k0 / (mass - mass1))


def test_tiny_spec_satisfies_matching_identity_exactly():
    spec = tiny_matching_spec()
    assert q_is_non_descendant(spec)
    assert ratio_identity_gap(spec) == 0.0
    assert h_invariance_gap(spec) == 0.0


def test_ratio_equals_class_posterior_by_hand():
    spec = tiny_matching_spec()
    oracle = DiscreteOracle(spec)
    for env in spec.envs:
        for a in (F(0), F(1)):
            h0 = oracle.h_given_s(env, (a,), 0)
            h1 = oracle.h_given_s(env, (a,), 1)
            ratio = (oracle.e_k_given_s(env, (a,)) - h0) / (h1 - h0)
            assert ratio == oracle.e_y_given_s(env, (a,))


def test_h_is_environment_constant_here():
    spec = tiny_matching_spec()
    oracle = DiscreteOracle(spec)
    for a in (F(0), F(1)):
        for y in (0, 1):
            assert oracle.h_given_s("e1", (a,), y) == oracle.h_given_s("e2", (a,), y)


def test_sampler_agrees_with_oracle_moments():
    spec = tiny_matching_spec()
    oracle = DiscreteOracle(spec)
    n = 200_000
    for env in spec.envs:
        draws = sample_scm(spec, env, n, seed=17)
        for name in ("A", "Y", "K"):
            assert len(draws[name]) == n
        # P(Y=1), E[K] against exact values, four sigma slack
        p1 = float(
            sum(
                oracle.e_y_given_s(env, (a,)) * cell[0]
                for a, cell in brute_force_tables(spec, env).items()
            )
        )
        se = (p1 * (1 - p1) / n) ** 0.5
        assert abs(draws["Y"].mean() - p1) < 4 * se + 1e-9
        e_k = float(
            sum(cell[2] for cell in brute_force_tables(spec, env).values())
        )
        assert abs(draws["K"].mean() - e_k) < 0.03


def test_sampler_deterministic():
    spec = tiny_matching_spec()
    d1 = sample_scm(spec, "e1", 500, seed=3)
    d2 = sample_scm(spec, "e1", 500, seed=3)
    for name in d1:
        assert np.array_equal(d1[name], d2[name])


def test_sampler_draws_only_positive_probability_atoms():
    specs = [tiny_matching_spec(), *(random_matching_spec(seed) for seed in range(6))]
    for spec in specs:
        oracle = DiscreteOracle(spec)
        for env in spec.envs:
            joint = oracle.joint(env)
            atoms = {tuple(float(v) for v in atom) for atom, p in joint.items() if p > 0}
            draws = sample_scm(spec, env, 2000, seed=11)
            rows = set(zip(*(draws[name].tolist() for name in spec.order)))
            assert rows <= atoms


def test_sampler_refuses_a_negative_row_count():
    spec = tiny_matching_spec()
    with pytest.raises(ValidationError, match="row count must be non-negative, got -1"):
        sample_scm(spec, "e1", -1, seed=0)
    with pytest.raises(ValidationError, match="row count must be non-negative, got -3"):
        scm_dataset(spec, n_per_env=-3, seed=0, test_env="e2")


def test_scm_dataset_wraps_sampler():
    spec = tiny_matching_spec()
    d = scm_dataset(spec, n_per_env=300, seed=5, test_env="e2")
    assert d.test_label == "e2"
    assert d.train_labels == ("e1",)
    assert d.column_names == ("A", "K")
    assert d.n == 600


def test_random_matching_specs_satisfy_identity():
    for seed in range(12):
        spec = random_matching_spec(seed)
        assert q_is_non_descendant(spec)
        assert ratio_identity_gap(spec) == 0.0
        assert h_invariance_gap(spec) == 0.0


def closure_descendants(spec: ScmSpec, name: str) -> set[str]:
    """Transitive closure of the child relation, iterated to a fixed point in no set order."""
    parents = {var: set(spec.variables[var].parents) for var in spec.variables}
    parents[spec.k_name] = {*spec.k_mechanism.r_parents, "Y"}
    below: set[str] = set()
    grew = True
    while grew:
        grew = False
        for var, ups in parents.items():
            if var not in below and (name in ups or ups & below):
                below.add(var)
                grew = True
    return below


def test_descendants_match_transitive_closure():
    for seed in range(100):
        for spec in (random_matching_spec(seed), random_violating_spec(seed)):
            for name in spec.order:
                assert descendants(spec, name) == closure_descendants(spec, name)


def test_random_matching_specs_vary():
    a = random_matching_spec(0)
    b = random_matching_spec(1)
    assert (a.order != b.order) or (a.k_mechanism.g != b.k_mechanism.g)


def test_violating_specs_break_invariance():
    for seed in range(5):
        spec = random_violating_spec(seed)
        assert not q_is_non_descendant(spec)
        assert h_invariance_gap(spec) >= 0.05


def uniform_roots_spec(n_roots: int, size: int, noise: DiscreteNoise) -> ScmSpec:
    """Independent uniform roots on {0, ..., size - 1}, a fair-coin Y and K = Y + noise."""

    def both_envs(row):
        return {"e1": {(): row}, "e2": {(): row}}

    names = tuple(f"R{i}" for i in range(n_roots))
    support = tuple(F(i) for i in range(size))
    uniform = both_envs(tuple(F(1, size) for _ in range(size)))
    roots = {
        name: CptVariable(name=name, parents=(), support=support, cpts=uniform) for name in names
    }
    y = CptVariable(name="Y", parents=(), support=(F(0), F(1)), cpts=both_envs((F(1, 2), F(1, 2))))
    mech = AdditiveMechanism(
        r_parents=(), g={(F(0),): F(0), (F(1),): F(1)}, noise={"e1": noise, "e2": noise}
    )
    return ScmSpec(
        envs=("e1", "e2"),
        order=(*names, "Y", "K"),
        variables={**roots, "Y": y},
        k_name="K",
        k_mechanism=mech,
        q_names=names[:1],
    )


def test_oracle_refuses_oversized_support():
    noise = DiscreteNoise((F(-1), F(1)), (F(1, 2), F(1, 2)))
    with pytest.raises(SupportSizeError):
        DiscreteOracle(uniform_roots_spec(2, 1500, noise))


def test_oracle_refuses_more_than_ten_thousand_atoms():
    # 2^11 root values x 2 classes x 3 noise values = 12,288 atoms, above the 10^4 cap
    noise = DiscreteNoise((F(-1), F(0), F(1)), (F(1, 4), F(1, 2), F(1, 4)))
    with pytest.raises(SupportSizeError, match="12288 atoms"):
        DiscreteOracle(uniform_roots_spec(11, 2, noise))


def test_sampler_refuses_more_than_ten_thousand_atoms():
    noise = DiscreteNoise((F(-1), F(0), F(1)), (F(1, 4), F(1, 2), F(1, 4)))
    with pytest.raises(SupportSizeError, match="12288 atoms"):
        sample_scm(uniform_roots_spec(11, 2, noise), "e1", 10, seed=0)


def test_noise_must_be_zero_mean():
    with pytest.raises(ValidationError):
        DiscreteNoise((F(0), F(1)), (F(1, 2), F(1, 2)))


def test_cpt_rows_must_be_stochastic():
    with pytest.raises(ValidationError):
        CptVariable(
            name="A",
            parents=(),
            support=(F(0), F(1)),
            cpts={"e1": {(): (F(1, 2), F(1, 3))}},
        )


def test_spec_requires_topological_order():
    a = CptVariable(
        name="A",
        parents=("K",),  # K comes later in order: invalid
        support=(F(0), F(1)),
        cpts={"e1": {(F(0),): (F(1), F(0))}, "e2": {(F(0),): (F(1), F(0))}},
    )
    y = CptVariable(
        name="Y",
        parents=(),
        support=(F(0), F(1)),
        cpts={
            "e1": {(): (F(1, 2), F(1, 2))},
            "e2": {(): (F(1, 2), F(1, 2))},
        },
    )
    noise = DiscreteNoise((F(-1), F(1)), (F(1, 2), F(1, 2)))
    mech = AdditiveMechanism(
        r_parents=(), g={(F(0),): F(0), (F(1),): F(1)}, noise={"e1": noise, "e2": noise}
    )
    with pytest.raises(ValidationError):
        ScmSpec(
            envs=("e1", "e2"),
            order=("A", "Y", "K"),
            variables={"A": a, "Y": y},
            k_name="K",
            k_mechanism=mech,
            q_names=(),
        )
