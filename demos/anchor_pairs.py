"""
Why the choice of matching pair matters
=======================================

Every environment draws x1 ~ N(0, 1), the class from
2*x1 + beta2*x2 + N(0, 1) > 0, and x3 = gamma_y*x1 + N(0, 1) with
gamma = (1, 3).  The two training environments draw x2 ~ N(1, 1) with
beta2 = 1; the held-out test environment draws x2 ~ N(-1, 1) with
beta2 = 0, so x2 stops carrying the class.  A pair built on the shared
mechanism of x3 transfers to the shifted test environment; a pair built
on x2 does not, even though both look fine in-sample.
"""

import numpy as np

from invarbin import (
    Pair,
    accuracy,
    fit_pair_model,
    gen_anchor,
    predict_pair,
    test_subset,
    training_subset,
)

d = gen_anchor(10_000, 0)
print(f"environments: {[e.label for e in d.environments]}")
for env in d.environments:
    x2 = d.features[d.env_of == env.label, 1]
    print(f"  {env.label} ({env.role}): mean of x2 {x2.mean():+.3f}")

test = test_subset(d)
base_rate = float(training_subset(d).response.mean())

# column 0 is x1, 1 is x2, 2 is x3
for name, pair in (("(x3, {x1})", Pair(k=2, s=(0,))), ("(x2, {x1})", Pair(k=1, s=(0,)))):
    model = fit_pair_model(d, pair, variant="linear")
    probs, degenerate = predict_pair(model, test.features)
    filled = np.where(degenerate, base_rate, probs)
    acc = accuracy((filled >= 0.5).astype(np.int64), test.response)
    print(f"pair {name}: test accuracy {acc:.3f}, degenerate rows {int(degenerate.sum())}")

# The class-conditional fits g0, g1 are what the ratio divides through;
# print their slopes to see the invariant mechanism the stable pair found.
stable = fit_pair_model(d, Pair(k=2, s=(0,)), variant="linear")
print(f"g0 coefficients {tuple(round(c, 3) for c in stable.h0.coef)}")
print(f"g1 coefficients {tuple(round(c, 3) for c in stable.h1.coef)}")
