"""The seeded inputs of the forestlie benchmark.

Everything a workload derives from its seed is built here.  The module
imports only ``random``, so that ``setup_s`` times forestlie's own start-up
and not the harness's.

An interactive call is a spec tuple: ``("coeff", p, fmt)``,
``("clambda", lam, fmt)``, ``("dyck", k, coeffs, fmt)``, ``("pullback", k,
fmt)``, ``("sigma", k, fmt)``, ``("lie", k, check, fmt)``, ``("estimate", k,
h, fmt)``, ``("usage", argv)`` for a usage error, or ``("defect", argv)`` for
the known-defect call.  ``workloads.py`` turns specs into checked calls.
"""

from __future__ import annotations

import random

FORMATS = ("text", "json", "csv")
USAGE_ERRORS = [
    ("coeff",),
    ("dyck", "--k", "x"),
    ("coeff", "--p", "0,5"),
    ("clambda", "--lambda", "2,0"),
    ("sigma", "--k", "10", "--check"),
    ("verify", "--all", "--jobs", "0"),
]


def random_dyck(rng: random.Random, k: int) -> tuple[int, ...]:
    p, total = [], 0
    for j in range(1, k + 1):
        p.append(rng.randint(0, j - total))
        total += p[-1]
    return tuple(p)


def random_composition(rng: random.Random, n: int) -> tuple[int, ...]:
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    bounds = [0] + cuts + [n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def interactive_specs(seed: int) -> list[tuple]:
    """One pass of the interactive mix: 112 short calls, 3 large-output calls,
    6 usage errors and the known-defect call, shuffled by the seed."""
    rng = random.Random(seed)
    specs = []
    for _ in range(16):
        specs += [
            ("coeff", random_dyck(rng, rng.randint(1, 8)), rng.choice(FORMATS)),
            ("clambda", random_composition(rng, rng.randint(1, 8)), rng.choice(FORMATS)),
            ("dyck", rng.randint(0, 4), rng.random() < 0.5, rng.choice(FORMATS)),
            ("pullback", rng.randint(1, 6), rng.choice(FORMATS)),
            ("sigma", rng.randint(1, 4), rng.choice(FORMATS)),
            ("lie", rng.randint(1, 3), True, rng.choice(FORMATS)),
            ("estimate", rng.randint(1, 3), rng.randint(0, 3), rng.choice(FORMATS)),
        ]
    specs += [("dyck", 9, True, "csv"), ("lie", 6, False, "json"), ("estimate", 6, 2, "csv")]
    specs += [("usage", argv) for argv in USAGE_ERRORS]
    specs.append(("defect", ("dyck", "--k", "2")))
    rng.shuffle(specs)
    return specs


def bruteforce_inputs(seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The seeded Dyck vector of length 7 and composition of 9."""
    rng = random.Random(seed)
    return random_dyck(rng, 7), random_composition(rng, 9)


def build_inputs(workload: str, seed: int):
    """Everything a workload derives from its seed; timed as part of setup_s."""
    if workload == "interactive":
        return interactive_specs(seed)
    if workload == "bruteforce":
        return bruteforce_inputs(seed)
    return None
