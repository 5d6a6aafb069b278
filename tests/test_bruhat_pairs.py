"""Every Bruhat pair of a small type, pinned by one digest.

For each w of the Weyl group, ``check_type`` takes the reduced word
``peel_left(c, w.inv_rho)`` and runs it, checked, against every v with
l(v) <= l(w).  The pairs with v not below w exit with
:class:`NotLessOrEqual`; every other pair gives a seed with
l(w) - l(v) vertices, the dimension of the open Richardson variety,
and an extended exchange matrix B~ of full column rank (mutation keeps
the rank of B~, and the initial seed's has full rank).
One sha256 runs over the ``compute`` JSON of those seeds, in the order
of ``all_elements`` for w and then for v.

A3 and A4 run here; D4 (9 817 pairs, about 10 s) runs in CI as

    PYTHONPATH=src:tests python -c 'from test_bruhat_pairs import check_type; check_type("D4")'
"""

import hashlib

import pytest
from oracles import extended_exchange_matrix, rational_rank

from richseed.cli import seed_json
from richseed.errors import NotLessOrEqual
from richseed.mutalg import run
from richseed.rootsys import parse_type, peel_left
from richseed.words import Word, all_elements

# type -> (pairs that give a seed, sha256 over their documents), recorded
# before the test-only names left the package; the seed counts of A3 and
# A4 are the numbers of Bruhat intervals of S4 and S5
PAIR_DIGESTS = {
    "A3": (213, "a942cbbafbd33b0b3ae15ebfd786814691f8e2d31269bbb98ee235791c877066"),
    "A4": (3781, "5fdeaba8c6da554967ddf3069452fa186827654b9b2a0bd88992e1455c64afaa"),
    "D4": (9817, "55bc8404145b96427938928cc3c4fce4e46bbcaf5293b254b9bf670fecd165cd"),
}


def check_type(name: str) -> None:
    c = parse_type(name)
    elements = all_elements(c)
    digest, count = hashlib.sha256(), 0
    for w in elements:
        word = Word(c, peel_left(c, w.inv_rho))
        for v in elements:
            lv = v.length
            if lv > len(word):
                break  # all_elements lists the elements by length
            try:
                seed = run(c, word, v)
            except NotLessOrEqual:
                continue
            assert len(seed.quiver.vertices) == len(word) - lv, (word.letters, v)
            b = extended_exchange_matrix(seed)
            assert rational_rank(b) == (len(b[0]) if b else 0), (word.letters, v)
            digest.update(seed_json(seed).encode())
            count += 1
    assert (count, digest.hexdigest()) == PAIR_DIGESTS[name]


@pytest.mark.parametrize("name", ["A3", "A4"])
def test_every_bruhat_pair_is_pinned(name):
    check_type(name)
