import hashlib

import numpy as np
import pytest

from cganlab.rng import RngStream

DRAWS = {
    "uniform": lambda s: s.uniform(-1.0, 1.0, (3, 4)),
    "normal": lambda s: s.normal(0.5, 2.0, 7),
    "permutation": lambda s: s.permutation(11),
    "choice": lambda s: s.choice(5, size=9, p=[0.1, 0.2, 0.3, 0.25, 0.15]),
}


@pytest.mark.parametrize("kind", sorted(DRAWS))
def test_lazy_stream_draws_what_an_eager_one_draws(kind):
    lazy = RngStream(17, ("train", "sbp")).split("step-3").split("d-0")
    assert lazy._gen is None  # splitting builds no generator
    eager = RngStream(17, ("train", "sbp", "step-3", "d-0"))
    eager._generator()  # built up front, before any draw
    for _ in range(2):  # the first draw builds the lazy generator, the second reuses it
        assert np.array_equal(DRAWS[kind](lazy), DRAWS[kind](eager))


def test_stream_bits_are_pinned():
    """Two draws from each of four streams, as streams built eagerly drew them."""
    s = RngStream(17, ("train", "sbp")).split("step-3").split("d-0")
    digest = hashlib.sha256()
    for label, kind in (("z", "uniform"), ("n", "normal"), ("p", "permutation"),
                        ("c", "choice")):
        child = s.split(label)
        for _ in range(2):
            digest.update(np.ascontiguousarray(DRAWS[kind](child)).tobytes())
    assert digest.hexdigest() == "a3cdd4bc1fa5c045bf813664d886401d248f7e4dcf0cc3d18da5dc9ba7f3258d"


def test_split_is_independent_of_draws_on_the_parent():
    fresh = RngStream(5).split("a").uniform(size=4)
    parent = RngStream(5)
    parent.normal(size=10)
    assert np.array_equal(parent.split("a").uniform(size=4), fresh)
