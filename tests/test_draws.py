"""``random_equiv_stores`` draws the same store pairs, by the same calls
in the same order, as the reference loop below.

The reference is the plain loop the pairs were first drawn with: one
``randint`` for a word's length, then one ``choice`` per letter.  After
each pair the generator's state must match the reference's too, so a
version that draws ahead, or draws letters by another call, fails here.

No pytest is needed: run ``python tests/test_draws.py`` under any
supported interpreter to check that a seed gives the same pairs there.
"""

import hashlib
import random
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tierlang import Alphabet, Store, Tier, parse  # noqa: E402
from tierlang.lang import DEFAULT_ALPHABET  # noqa: E402
from tierlang.scheduling import random_equiv_stores  # noqa: E402

HEADER = "alphabet a;\nvars { c : 1; }\nthread t { skip }\n"  # declares a, T and F

ALPHABETS = (
    Alphabet(frozenset("1")),
    Alphabet(frozenset("TF")),
    parse(HEADER).alphabet(),
    DEFAULT_ALPHABET,
    Alphabet(frozenset("x1F0T")),
)
MAX_LENS = (0, 1, 6, 12, 24)
# Listed out of order and with a repeat: the pairs take the names in order.
VARIABLES = ("c", "a", "b", "a")
GAMMAS = (
    {"a": Tier.ONE, "b": Tier.ONE, "c": Tier.ONE},
    {"a": Tier.ZERO, "b": Tier.ZERO, "c": Tier.ZERO},
    {"a": Tier.ONE, "b": Tier.ZERO, "c": Tier.ONE},
)
SEEDS = range(4)
PAIRS = 8  # per seed, alphabet, length bound and gamma
# The SHA-256 of every pair drawn, the same on each supported Python.
DIGEST = "cd96b83fcfeb269b480c0c97222daf408d746473e620832aee98491b97f819fb"


def reference_word(rng, alphabet, max_len):
    letters = tuple(sorted(alphabet.letters))
    length = rng.randint(0, max_len)
    return "".join(rng.choice(letters) for _ in range(length))


def reference_pair(gamma, variables, rng, alphabet, max_len):
    left, right = {}, {}
    for var in sorted(set(variables)):
        if gamma[var] == Tier.ONE:
            value = reference_word(rng, alphabet, max_len)
            left[var] = value
            right[var] = value
        else:
            left[var] = reference_word(rng, alphabet, max_len)
            right[var] = reference_word(rng, alphabet, max_len)
    return Store(left), Store(right)


def compare_draws() -> tuple[int, str]:
    """Draw every case's pairs both ways and compare them: the count of
    pairs compared, and a digest of them all."""
    compared, digest = 0, hashlib.sha256()
    for seed in SEEDS:
        for alphabet in ALPHABETS:
            for max_len in MAX_LENS:
                for gamma in GAMMAS:
                    rng, want_rng = random.Random(seed), random.Random(seed)
                    for index in range(PAIRS):
                        case = (seed, sorted(alphabet.letters), max_len, gamma, index)
                        got = random_equiv_stores(gamma, VARIABLES, rng, alphabet, max_len)
                        want = reference_pair(gamma, VARIABLES, want_rng, alphabet, max_len)
                        # ``Store`` equality compares the bindings, so a pair
                        # that kept an empty word would differ here too.
                        assert got == want, case
                        assert rng.getstate() == want_rng.getstate(), case
                        compared += 1
                        digest.update(repr([s.items() for s in got]).encode())
    return compared, digest.hexdigest()


def test_store_pairs_match_the_reference_draws():
    assert sorted(len(a.letters) for a in ALPHABETS) == [1, 2, 3, 4, 5]
    cases = len(SEEDS) * len(ALPHABETS) * len(MAX_LENS) * len(GAMMAS)
    assert compare_draws() == (cases * PAIRS, DIGEST)


def test_a_longer_bound_draws_longer_words():
    # The pin above holds whatever the words are; this shows the words
    # use the whole bound, so the comparison is not of empty stores alone.
    rng = random.Random(0)
    gamma = {"a": Tier.ZERO}
    lengths = {len(side.lookup("a"))
               for _ in range(200) for side in random_equiv_stores(gamma, ["a"], rng, max_len=3)}
    assert lengths == {0, 1, 2, 3}


if __name__ == "__main__":
    test_a_longer_bound_draws_longer_words()
    count, digest = compare_draws()
    assert digest == DIGEST, digest
    print(f"Python {sys.version.split()[0]}: {count} store pairs match the reference draws "
          f"and the pinned digest")
