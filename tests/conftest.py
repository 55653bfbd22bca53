import pytest
from hypothesis import settings

import reglang as rl
from corpus import build_corpus

# Property tests draw the same examples on every run, so a tier-1 result
# never depends on the seed.
settings.register_profile("reglang", derandomize=True)
settings.load_profile("reglang")


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def by_name(corpus):
    return {lang.name: lang for lang in corpus}


@pytest.fixture(scope="session")
def entropy_of(corpus):
    """name -> entropy in bits, computed once."""
    return {
        lang.name: rl.language_entropy(lang.dfa).entropy_bits for lang in corpus
    }


@pytest.fixture(scope="session")
def infinite_names(corpus):
    return [
        lang.name
        for lang in corpus
        if not rl.essential(rl.trim(lang.dfa)).is_empty
    ]


def _pairwise(corpus, fn):
    table = {}
    for i, left in enumerate(corpus):
        for right in corpus[i + 1 :]:
            table[(left.name, right.name)] = fn(left.dfa, right.dfa)
    return table


@pytest.fixture(scope="session")
def entropy_distance_matrix(corpus):
    """(name_i, name_j) -> H value for i < j in corpus order."""
    return _pairwise(corpus, lambda a, b: rl.entropy_distance(a, b).value)


@pytest.fixture(scope="session")
def entropy_sum_matrix(corpus):
    """(name_i, name_j) -> H_S value for i < j in corpus order."""
    return _pairwise(corpus, lambda a, b: rl.entropy_sum(a, b).value)


@pytest.fixture(scope="session")
def one_sided_entropies(corpus):
    """(name_i, name_j) -> h(L_i minus L_j), all ordered pairs."""
    table = {}
    for left in corpus:
        for right in corpus:
            if left.name == right.name:
                continue
            a, b = rl.harmonize(left.dfa, right.dfa)
            table[(left.name, right.name)] = rl.language_entropy(
                rl.combine(a, b, "minus")
            ).entropy_bits
    return table
