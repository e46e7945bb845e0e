"""Property-based tests for the version-vector algebra (hypothesis).

These check the DESIGN.md invariants: merge is commutative, associative,
and idempotent; dominance is a partial order consistent with set
containment; and the prefix+extras representation never loses or invents
versions regardless of arrival order.

The last section drives every writing operation in arbitrary interleaving
and holds the two pieces of per-sync bookkeeping to their definitions:
the running wire size to a real encoding, and the copy-on-write
``dominates`` to the entry-by-entry one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replication.codec import (
    encode_knowledge,
    knowledge_wire_size,
    wire_size,
)
from repro.replication.ids import ReplicaId, Version
from repro.replication.versions import VersionVector, _Entry

replica_names = st.sampled_from(["a", "b", "c", "d"])
versions = st.builds(
    Version,
    replica=st.builds(ReplicaId, name=replica_names),
    counter=st.integers(min_value=1, max_value=40),
)
version_lists = st.lists(versions, max_size=60)


def vector_of(version_list) -> VersionVector:
    return VersionVector.from_versions(version_list)


@given(version_lists)
def test_add_then_contains(version_list):
    vector = vector_of(version_list)
    for version in version_list:
        assert vector.contains(version)


@given(version_lists)
def test_insertion_order_is_irrelevant(version_list):
    forward = vector_of(version_list)
    backward = vector_of(list(reversed(version_list)))
    assert forward == backward
    assert sorted(forward.versions()) == sorted(backward.versions())


@given(version_lists)
def test_versions_roundtrip_exactly(version_list):
    vector = vector_of(version_list)
    assert sorted(set(version_list)) == sorted(vector.versions())


@given(version_lists, version_lists)
def test_merge_commutative(left_list, right_list):
    ab = vector_of(left_list).merged(vector_of(right_list))
    ba = vector_of(right_list).merged(vector_of(left_list))
    assert ab == ba


@given(version_lists, version_lists, version_lists)
@settings(max_examples=50)
def test_merge_associative(a_list, b_list, c_list):
    a, b, c = vector_of(a_list), vector_of(b_list), vector_of(c_list)
    left = a.merged(b).merged(c)
    right = a.merged(b.merged(c))
    assert left == right


@given(version_lists)
def test_merge_idempotent(version_list):
    vector = vector_of(version_list)
    assert vector.merged(vector) == vector


@given(version_lists, version_lists)
def test_merge_result_dominates_both(left_list, right_list):
    left, right = vector_of(left_list), vector_of(right_list)
    merged = left.merged(right)
    assert merged.dominates(left)
    assert merged.dominates(right)


@given(version_lists, version_lists)
def test_dominates_matches_set_containment(left_list, right_list):
    left, right = vector_of(left_list), vector_of(right_list)
    containment = set(right.versions()) <= set(left.versions())
    assert left.dominates(right) == containment


@given(version_lists, version_lists)
def test_mutual_dominance_is_equality(left_list, right_list):
    left, right = vector_of(left_list), vector_of(right_list)
    if left.dominates(right) and right.dominates(left):
        assert left == right


@given(version_lists)
def test_extras_never_exceed_stored_versions(version_list):
    vector = vector_of(version_list)
    assert vector.size_in_extras() <= len(set(version_list))


@given(version_lists)
def test_contiguous_versions_fully_compact(version_list):
    """Feeding 1..n per replica (any order) leaves no extras at all."""
    by_replica = {}
    for version in version_list:
        by_replica.setdefault(version.replica, set()).add(version.counter)
    contiguous = [
        Version(replica, counter)
        for replica, counters in by_replica.items()
        for counter in range(1, len(counters) + 1)
    ]
    vector = vector_of(contiguous)
    assert vector.size_in_extras() == 0


# -- bookkeeping under interleaved writes -------------------------------------

#: Names whose JSON encoding is longer than the name: escapes and
#: non-ASCII (the codec writes ASCII-only JSON, so each becomes \uXXXX).
awkward_replicas = [
    ReplicaId(name)
    for name in ("a", 'quo"te', "back\\slash", "tab\there", "ünï", "日本", "\U0001f68c")
]
#: Small counters leave gaps that later close and compact; the large ones
#: cross digit-count boundaries.
counters = st.integers(min_value=1, max_value=12) | st.sampled_from(
    [99, 100, 101, 999, 1000]
)
slots = st.integers(min_value=0, max_value=1_000)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), slots, st.sampled_from(awkward_replicas), counters),
        st.tuples(st.just("merge"), slots, slots),
        st.tuples(st.just("merged"), slots, slots),
        st.tuples(
            st.just("clamped"), slots, st.sampled_from(awkward_replicas),
            st.integers(min_value=0, max_value=12),
        ),
        st.tuples(st.just("copy"), slots),
        st.tuples(st.just("empty-entry"), st.sampled_from(awkward_replicas)),
    ),
    max_size=40,
)


def reference_dominates(left: VersionVector, right: VersionVector) -> bool:
    """``dominates`` as first written: every entry, counter by counter."""
    for replica, theirs in right._entries.items():
        mine = left._entries.get(replica)
        if mine is None:
            if not theirs.is_empty:
                return False
            continue
        if not all(
            mine.contains(counter)
            for counter in range(mine.prefix + 1, theirs.prefix + 1)
        ):
            return False
        if not all(mine.contains(counter) for counter in theirs.extras):
            return False
    return True


@given(operations)
@settings(max_examples=300)
def test_bookkeeping_matches_its_definition_under_any_interleaving(ops):
    live = [VersionVector.empty()]
    for op, *operands in ops:
        if op == "add":
            slot, replica, counter = operands
            live[slot % len(live)].add(Version(replica, counter))
        elif op == "merge":
            into, other = operands
            live[into % len(live)].merge(live[other % len(live)])
        elif op == "merged":
            left, right = operands
            live.append(
                live[left % len(live)].merged(live[right % len(live)])
            )
        elif op == "clamped":
            slot, replica, maximum = operands
            live.append(live[slot % len(live)].clamped(replica, maximum))
        elif op == "copy":
            (slot,) = operands
            live.append(live[slot % len(live)].copy())
        else:
            (replica,) = operands
            live.append(VersionVector({replica: _Entry()}))
        for vector in live:
            assert knowledge_wire_size(vector) == wire_size(
                encode_knowledge(vector)
            )
    for left in live:
        for right in live:
            assert left.dominates(right) == reference_dominates(left, right)
