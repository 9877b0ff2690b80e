import random
from itertools import groupby

import pytest

from oracles import format_partition, format_shape, is_horizontal_strip
from soctab.partitions import (
    beta_triple_counts,
    InvalidShape,
    NotContained,
    Shape,
    contains,
    parse_partition,
    parse_shape,
    partition,
    partitions_of,
    shape,
    shape_triples,
    skew_boxes,
    subdiagrams,
    transpose,
    weight,
)


def random_partition(rng, max_part=12, max_len=6):
    parts = sorted((rng.randint(1, max_part) for _ in range(rng.randint(0, max_len))), reverse=True)
    return tuple(parts)


def test_partition_normalization():
    assert partition([3, 2, 0, 0]) == (3, 2)
    assert partition([]) == ()
    with pytest.raises(ValueError):
        partition([2, 3])
    with pytest.raises(ValueError):
        partition([2, -1])


def test_transpose_examples():
    assert transpose((5, 3, 2)) == (3, 3, 2, 1, 1)
    assert transpose(()) == ()
    assert transpose((4, 2)) == (2, 2, 1, 1)


def _transpose_by_recount(p):
    """The defining formula, recounted per row: result[r-1] = #{c : p[c-1] >= r}."""
    return tuple(sum(1 for x in p if x >= r) for r in range(1, (p[0] if p else 0) + 1))


def test_transpose_walk_equals_recount():
    for n in range(15):
        for p in partitions_of(n):
            want = _transpose_by_recount(p)
            assert transpose(p) == want
            # trailing zeros add no box and stay accepted
            assert transpose(p + (0,)) == want
            assert transpose(p + (0, 0, 0)) == want


@pytest.mark.parametrize("bad", [(2, 0, 1), (1, 2), (3, 3, 4), (2, -1), (-1,)])
def test_transpose_rejects_non_partitions(bad):
    # and again on a second call: an error is never cached as a result
    for _ in range(2):
        with pytest.raises(ValueError):
            transpose(bad)


def test_transpose_cache_is_bounded_and_takes_tuples():
    assert transpose.cache_info().maxsize == 1024
    # callers pass tuples; a list is unhashable and is refused
    with pytest.raises(TypeError):
        transpose([2, 1])


def test_transpose_involution():
    rng = random.Random(1)
    for _ in range(1000):
        p = random_partition(rng)
        assert transpose(transpose(p)) == p


def test_contains_examples():
    assert contains((5, 3, 2), (3, 1))
    assert contains((5, 3, 2), (5, 3, 2))
    assert not contains((3, 1), (5, 3, 2))


def test_contains_partial_order():
    rng = random.Random(2)
    pool = [random_partition(rng, 6, 4) for _ in range(60)]
    for p in pool:
        assert contains(p, p)
    for a in pool[:20]:
        for b in pool[:20]:
            if contains(a, b) and contains(b, a):
                assert a == b
            for c in pool[:20]:
                if contains(a, b) and contains(b, c):
                    assert contains(a, c)


def brute_skew_boxes(beta, gamma):
    """Independent oracle: direct membership predicate on (row, col)."""
    out = []
    rows = beta[0] if beta else 0
    for r in range(1, rows + 1):
        for c in range(1, len(beta) + 1):
            in_beta = r <= beta[c - 1]
            in_gamma = c <= len(gamma) and r <= gamma[c - 1]
            if in_beta and not in_gamma:
                out.append((r, c))
    return out


def test_skew_boxes_oracle():
    assert skew_boxes((5, 3, 2), (3, 1)) == brute_skew_boxes((5, 3, 2), (3, 1))
    assert set(skew_boxes((5, 3, 2), (3, 1))) == {
        (1, 3), (2, 2), (2, 3), (3, 2), (4, 1), (5, 1),
    }
    assert skew_boxes((4, 2), (4, 2)) == []
    assert skew_boxes((5,), (1,)) == [(2, 1), (3, 1), (4, 1), (5, 1)]


def test_skew_boxes_row_major_and_count():
    rng = random.Random(3)
    for _ in range(100):
        beta = random_partition(rng, 7, 5)
        gammas = list(subdiagrams(beta))
        gamma = gammas[rng.randrange(len(gammas))]
        boxes = skew_boxes(beta, gamma)
        assert boxes == brute_skew_boxes(beta, gamma)
        assert len(boxes) == weight(beta) - weight(gamma)
        assert boxes == sorted(boxes)


def test_skew_boxes_not_contained():
    with pytest.raises(NotContained):
        skew_boxes((3, 1), (5,))


def test_horizontal_strip():
    assert is_horizontal_strip((5, 3, 2), (4, 3, 1))
    assert is_horizontal_strip((4, 2), (4, 2))
    assert not is_horizontal_strip((5, 3, 2), (3, 3, 2))
    with pytest.raises(NotContained):
        is_horizontal_strip((3,), (4,))


def test_shape_validation():
    s = shape((4, 2), (5, 3, 2), (3, 1))
    assert s.alpha == (4, 2)
    with pytest.raises(InvalidShape):
        shape((4, 2), (5, 3, 2), (3, 2))  # weight mismatch
    with pytest.raises(InvalidShape):
        shape((1,), (3, 1), (4,))  # containment failure


def test_parse_and_format():
    assert parse_partition("5,3,2") == (5, 3, 2)
    assert parse_partition("532") == (5, 3, 2)
    assert parse_partition("") == ()
    assert parse_partition("10,4") == (10, 4)
    assert format_partition((5, 3, 2)) == "5,3,2"
    s = parse_shape("42/532/31")
    assert s == ((4, 2), (5, 3, 2), (3, 1))
    assert format_shape(s) == "4,2/5,3,2/3,1"
    with pytest.raises(ValueError):
        parse_partition("a,b")
    with pytest.raises(ValueError):
        parse_partition("10")  # ambiguous in digit shorthand
    with pytest.raises(ValueError):
        parse_shape("42/532")


def test_partitions_of_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, count in enumerate(expected):
        assert len(list(partitions_of(n))) == count


def test_subdiagrams():
    subs = list(subdiagrams((2, 1)))
    assert sorted(subs) == [(), (1,), (1, 1), (2,), (2, 1)]
    assert len(subs) == len(set(subs))
    for beta in partitions_of(5):
        for g in subdiagrams(beta):
            assert contains(beta, g)


def test_shape_triples():
    triples = list(shape_triples(4))
    assert triples[:3] == [((), (), ()), ((1,), (1,), ()), ((), (1,), (1,))]
    assert len(triples) == len(set(triples))
    for alpha, beta, gamma in triples:
        assert shape(alpha, beta, gamma) == (alpha, beta, gamma)
    # every valid triple of weight <= 4 appears, grouped by |beta| then sorted
    assert sum(1 for t in triples if weight(t.beta) == 4) == sum(
        len(list(partitions_of(4 - weight(g))))
        for b in partitions_of(4)
        for g in subdiagrams(b)
    )
    keys = [(weight(t.beta), t.beta, t.gamma, t.alpha) for t in triples]
    assert keys == sorted(keys)


def test_shape_triples_sorts_once_per_weight_with_the_same_order():
    def nested(bound):
        # the generator that re-sorted the partitions of |beta| - |gamma| for each gamma
        for wgt in range(0, bound + 1):
            for beta in sorted(partitions_of(wgt)):
                for gamma in sorted(subdiagrams(beta)):
                    for alpha in sorted(partitions_of(wgt - weight(gamma))):
                        yield Shape(alpha, beta, gamma)

    for bound in range(-1, 13):
        assert list(shape_triples(bound)) == list(nested(bound)), bound


def test_beta_triple_counts_are_the_group_sizes_of_shape_triples():
    for bound in range(-1, 11):
        want = [(beta, len(list(group))) for beta, group in groupby(shape_triples(bound), key=lambda s: s.beta)]
        assert list(beta_triple_counts(bound)) == want, bound
