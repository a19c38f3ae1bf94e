import tracemalloc
from collections import Counter

import pytest

from forestlie import checks, compositions, partitions
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


def test_enumerate_order_grows_largest_last():
    # each partition of [3] in turn: 4 joins each block, which moves last, then opens its own
    assert [p.text() for p in partitions.enumerate_partitions(4)] == [
        "1234", "123|4", "3|124", "12|34", "12|3|4", "13|24", "2|134", "2|13|4",
        "23|14", "1|234", "1|23|4", "2|3|14", "1|3|24", "1|2|34", "1|2|3|4"]


def test_enumerate_partitions_streams():
    # a list of the 115,975 partitions of [10] would take tens of MB
    tracemalloc.start()
    try:
        assert checks._count(partitions.enumerate_partitions(10)) == partitions.bell(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


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
    assert partitions.path_to_partition([()]) == SetPartition(())
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


def shrink_over_objects(part):
    """The reference shrink through the validating constructor."""
    return SetPartition([s for s in ([e - 1 for e in b if e > 1] for b in part.blocks) if s])


def partition_to_path_over_objects(part):
    """The reference path: the shapes along the chain of validated shrinks."""
    shapes = [part.shape()]
    while part.size > 0:
        part = shrink_over_objects(part)
        shapes.append(part.shape())
    return shapes[::-1]


def path_to_partition_over_objects(path):
    """The reference inverse: shift every element up by one, then add 1."""
    blocks = []
    for prev, cur in zip(path, path[1:]):
        blocks = [[e + 1 for e in b] for b in blocks]
        if cur == (1,) + prev:
            blocks.insert(0, [1])
        else:
            (j,) = [j for j in range(len(prev)) if cur[j] != prev[j]]
            blocks[j].insert(0, 1)
    return SetPartition(blocks)


def test_unchecked_builders_match_validated_references():
    # the blocks built without validation equal those the constructor normalizes
    for k in range(9):
        for part in partitions.enumerate_partitions(k):
            assert part.blocks == SetPartition(part.blocks).blocks
            assert partitions.partition_to_path(part) == partition_to_path_over_objects(part)
            if k:
                assert part.shrink().blocks == shrink_over_objects(part).blocks
    for k in range(8):
        for path in compositions.enumerate_paths(k):
            assert partitions.path_to_partition(path).blocks == path_to_partition_over_objects(path).blocks


def partition_to_path_by_generators(part):
    """partition_to_path before the zero lengths were dropped by filter, kept as its reference."""
    lengths = list(part.shape())
    block_of = [0] * (part.size + 1)
    for j, b in enumerate(part.blocks):
        for e in b:
            block_of[e] = j
    shapes = [tuple(lengths)]
    for m in range(1, part.size + 1):
        lengths[block_of[m]] -= 1
        shapes.append(tuple(n for n in lengths if n))
    shapes.reverse()
    return shapes


def path_to_partition_by_index_lists(path):
    """path_to_partition before the changed part was found through
    map(ne, ...), kept as its reference."""
    steps = [tuple(lam) for lam in path]
    if not steps or steps[0] != ():
        raise ValueError("not a valid path: must start with the empty composition")
    k = len(steps) - 1
    blocks: list[list[int]] = []
    for i in range(1, len(steps)):
        prev, cur = steps[i - 1], steps[i]
        if cur == (1,) + prev:
            blocks.insert(0, [k - i + 1])
        elif len(cur) == len(prev):
            diffs = [j for j in range(len(prev)) if cur[j] != prev[j]]
            if len(diffs) != 1 or cur[diffs[0]] != prev[diffs[0]] + 1:
                raise ValueError(f"not a valid path: step {i} ({prev} -> {cur})")
            blocks[diffs[0]].append(k - i + 1)
        else:
            raise ValueError(f"not a valid path: step {i} ({prev} -> {cur})")
    return SetPartition._normal(tuple(tuple(reversed(b)) for b in blocks))


def path_outcome(path):
    """The blocks path_to_partition and its reference build, or the texts of their ValueErrors."""
    out = []
    for decode in (partitions.path_to_partition, path_to_partition_by_index_lists):
        try:
            out.append(decode(path).blocks)
        except ValueError as exc:
            out.append(str(exc))
    return out


def test_bijection_kernels_match_references():
    # the ranges of the partition_bijection check of verify: partitions k <= 8, paths k <= 7
    for k in range(9):
        for part in partitions.enumerate_partitions(k):
            path = partitions.partition_to_path(part)
            assert path == partition_to_path_by_generators(part)
            new, old = path_outcome(path)
            assert new == old == part.blocks
    for k in range(8):
        for path in compositions.enumerate_paths(k):
            new, old = path_outcome(path)
            assert new == old
            part = SetPartition._normal(new)
            assert partitions.partition_to_path(part) == partition_to_path_by_generators(part) == path


def test_invalid_paths_raise_as_the_reference_does():
    # an empty step after a nonempty one, and every step of every path to k <= 5
    # replaced by each composition of i - 1, i or i + 1 (i the step's number)
    assert path_outcome([(), (1,), ()]) == ["not a valid path: step 2 ((1,) -> ())"] * 2
    assert path_outcome([(1,)]) == path_outcome([]) == ["not a valid path: must start with the empty composition"] * 2
    errors = total = 0
    for k in range(1, 6):
        for path in compositions.enumerate_paths(k):
            for i in range(1, k + 1):
                for n in (i - 1, i, i + 1):
                    for lam in compositions.enumerate_compositions(n):
                        bad = path[:i] + [lam] + path[i + 1:]
                        new, old = path_outcome(bad)
                        assert new == old, bad
                        errors += isinstance(new, str)
                        total += 1
    assert 0 < errors < total, (errors, total)


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


def shapes_by_tuple_walk(k):
    """The reference: the shape of every partition of [k], one per partition,
    by a depth-first walk over tuples of block lengths kept in normal order."""
    stack = [()]
    while stack:
        shape = stack.pop()
        if sum(shape) == k:
            yield shape
        else:
            stack += [shape[:i] + shape[i + 1:] + (shape[i] + 1,) for i in range(len(shape))]
            stack.append(shape + (1,))


def test_shape_census_matches_tuple_walk():
    for k in range(11):
        assert partitions.shape_census(k) == Counter(shapes_by_tuple_walk(k)), k
    for k in range(9):
        shapes = list(shapes_by_tuple_walk(k))
        for lam in compositions.enumerate_compositions(k):
            assert partitions.count_by_shape(lam) == shapes.count(lam)


def test_shape_census_k11_in_flat_memory():
    tracemalloc.start()
    try:
        census = partitions.shape_census(11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lams = list(compositions.enumerate_compositions(11))
    assert len(lams) == len(census) == 1024
    assert all(census[lam] == compositions.coeff_clambda(lam) for lam in lams)
    assert sum(census.values()) == partitions.bell(11) == 678570
    assert peak < 5_000_000, peak


def test_count_by_shape_rejects_non_compositions():
    for lam in [(0, 1), (2, -1, 1)]:
        with pytest.raises(ValueError, match="not a composition"):
            partitions.count_by_shape(lam)
    with pytest.raises(ValueError, match="k must be >= 0"):
        partitions.shape_census(-1)
