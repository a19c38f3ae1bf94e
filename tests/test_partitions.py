import pytest

from forestlie import compositions, partitions
from forestlie.partitions import SetPartition

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


def test_bell_numbers():
    assert [partitions.bell(k) for k in range(10)] == BELL


def test_normal_ordering():
    part = SetPartition([[6], [1], [7, 2, 4], [5, 3]])
    assert part.blocks == ((1,), (3, 5), (6,), (2, 4, 7))
    assert part.text() == "1|35|6|247"
    assert SetPartition.parse("1|35|6|247") == part


def test_text_large_elements():
    part = SetPartition([[10, 1], [2, 3, 4, 5, 6, 7, 8, 9]])
    assert part.text() == "2,3,4,5,6,7,8,9|1,10"
    assert SetPartition.parse(part.text()) == part
    for text in ("1,2,3,4,5,6,7,8,9|10", "1,2,3,4,5,6,7,8,9,10|11", "1|2|3|4|5|6|7|8|9|10"):
        assert SetPartition.parse(text).text() == text


def test_constructor_rejects_bad_blocks():
    with pytest.raises(ValueError, match="two blocks"):
        SetPartition([[1, 2], [2, 3]])
    with pytest.raises(ValueError, match="cover"):
        SetPartition([[1], [3]])
    with pytest.raises(ValueError, match="nonempty"):
        SetPartition([[1], []])


def test_enumerate_counts_and_normal_order():
    for k in range(8):
        parts = list(partitions.enumerate_partitions(k))
        assert len(parts) == len(set(parts)) == BELL[k]
        for part in parts:
            assert all(max(b1) < max(b2) for b1, b2 in zip(part.blocks, part.blocks[1:]))


def test_shape():
    assert SetPartition.parse("1|35|6|247").shape() == (1, 2, 1, 3)
    assert SetPartition(()).shape() == ()
    assert SetPartition.parse("234|15|6").shape() == (3, 2, 1)


def test_shrink_examples():
    assert SetPartition.parse("1|35|6|247").shrink() == SetPartition.parse("24|5|136")
    assert SetPartition.parse("345|26|17").shrink() == SetPartition.parse("234|15|6")
    assert SetPartition([[1]]).shrink() == SetPartition(())
    with pytest.raises(ValueError):
        SetPartition(()).shrink()


def test_shrink_edges_lie_in_graph():
    for k in range(1, 9):
        for part in partitions.enumerate_partitions(k):
            assert part.shape() in compositions.successors(part.shrink().shape())


def test_partition_to_path_worked_chain():
    chain = partitions.partition_to_path(SetPartition.parse("1|35|6|247"))
    assert chain == [(), (1,), (1, 1), (1, 1, 1), (1, 1, 2), (2, 1, 2), (2, 1, 3), (1, 2, 1, 3)]
    assert partitions.partition_to_path(SetPartition(())) == [()]
    assert partitions.partition_to_path(SetPartition([[1], [2]])) == [(), (1,), (1, 1)]


def test_path_to_partition_examples():
    assert partitions.path_to_partition([(), (1,)]) == SetPartition([[1]])
    assert partitions.path_to_partition([(), (1,), (2,)]) == SetPartition([[1, 2]])
    chain = [(), (1,), (1, 1), (1, 1, 1), (1, 1, 2), (2, 1, 2), (2, 1, 3), (1, 2, 1, 3)]
    assert partitions.path_to_partition(chain) == SetPartition.parse("1|35|6|247")


def test_path_to_partition_rejects_bad_paths():
    with pytest.raises(ValueError, match="start"):
        partitions.path_to_partition([(1,)])
    with pytest.raises(ValueError, match="step 2"):
        partitions.path_to_partition([(), (1,), (3,)])
    with pytest.raises(ValueError, match="step 1"):
        partitions.path_to_partition([(), (2,)])


def test_bijection_roundtrip():
    for k in range(7):
        for part in partitions.enumerate_partitions(k):
            assert partitions.path_to_partition(partitions.partition_to_path(part)) == part
    for k in range(6):
        for path in compositions.enumerate_paths(k):
            assert partitions.partition_to_path(partitions.path_to_partition(path)) == path


def test_count_by_shape():
    assert partitions.count_by_shape((1, 2)) == 2
    assert partitions.count_by_shape((2, 2)) == 3
    assert partitions.count_by_shape(()) == 1
    for k in range(7):
        census = partitions.shape_census(k)
        assert sum(census.values()) == BELL[k]
        for lam in compositions.enumerate_compositions(k):
            assert census.get(lam, 0) == compositions.coeff_clambda(lam)


def test_shape_walk_matches_partition_objects():
    for k in range(10):
        census: dict[tuple[int, ...], int] = {}
        for part in partitions.enumerate_partitions(k):
            census[part.shape()] = census.get(part.shape(), 0) + 1
        assert partitions.shape_census(k) == census
        if k <= 8:
            for lam in compositions.enumerate_compositions(k):
                assert partitions.count_by_shape(lam) == census[lam]


def test_count_by_shape_rejects_non_compositions():
    for lam in [(0, 1), (2, -1, 1)]:
        with pytest.raises(ValueError, match="not a composition"):
            partitions.count_by_shape(lam)
    with pytest.raises(ValueError, match="k must be >= 0"):
        partitions.shape_census(-1)


def test_growth_strings_match_partition_objects():
    # same partitions in the same order, with their block counts and texts
    for n in range(10):
        strings = partitions._growth_strings(n)
        parts = list(partitions.enumerate_partitions(n))
        assert len(strings) == len(parts) == partitions.bell(n)
        for (a, m), part in zip(strings, parts):
            assert m == len(part.blocks)
            assert partitions._growth_text(a) == part.text()
