"""A solution's provenance is the config that rebuilds it: ``cli._solution``
of ``sol.provenance``, after a JSON round trip, evaluates bit for bit as
``sol`` does, for every certificate, every line of the record and a
fixed-seed set of T1/T2 chains."""

import json
import random

import numpy as np
import pytest

import record
from conftest import random_smooth_tree
from dsexact import TransformSpec, compose, eval_solution, parse_timefn
from dsexact.cli import _solution
from dsexact.elliptic import ELLIPTIC_KINDS
from dsexact.selftest import CERTIFICATES

CONFIGS = {name: cfg for rows in CERTIFICATES.values()
           for name, _, cfg in rows}
CONFIGS.update({f"record {kind}": record._line(kind) for kind in record.LINES})
CONFIGS.update({f"record {kind} chain": {**record._line(kind),
                                         "transforms": record.CHAIN}
                for kind in record.LINES})


def random_chain(rng):
    """1 to 3 transforms: T1 with bounded smooth time functions, T2 with b
    of either sign from 0.5 to 2."""
    specs = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            specs.append(TransformSpec("T1", *(
                parse_timefn(random_smooth_tree(rng, bounded=True))
                for _ in range(3))))
        else:
            specs.append(TransformSpec("T2", b=rng.choice((-1, 1))
                                       * rng.uniform(0.5, 2.0)))
    return specs


def chains(count=12, seed=52):
    rng = random.Random(seed)
    names = sorted(CONFIGS)
    for i in range(count):
        base = rng.choice(names)
        yield f"chain {i} on {base}", compose(random_chain(rng),
                                              _solution(CONFIGS[base]))


SOLUTIONS = [(name, _solution(cfg)) for name, cfg in CONFIGS.items()] \
    + list(chains())


def assert_rebuilds(sol):
    config = json.loads(json.dumps(sol.provenance))
    assert config == sol.provenance
    rebuilt = _solution(config)
    assert rebuilt.provenance == sol.provenance
    assert rebuilt.derived == sol.derived
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, 1.0, 200)
    x, y = rng.uniform(-3.0, 3.0, (2, 200))
    got, want = eval_solution(rebuilt, t, x, y), eval_solution(sol, t, x, y)
    assert want[2].any()
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name, sol", SOLUTIONS,
                         ids=[name for name, _ in SOLUTIONS])
def test_provenance_rebuilds_the_solution(name, sol):
    assert_rebuilds(sol)
    params = sol.provenance["params"]
    assert not set(params) & set(sol.derived)
    assert ("m" in params) == (params.get("kind") in ELLIPTIC_KINDS)


def test_every_certificate_and_record_line_is_covered():
    assert sum(len(rows) for rows in CERTIFICATES.values()) == 34
    assert len(CONFIGS) == 34 + 2 * len(record.LINES)
    assert sum(name.startswith("chain ") for name, _ in SOLUTIONS) == 12
