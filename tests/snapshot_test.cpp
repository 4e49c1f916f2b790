// Tests for the copy-on-write snapshot arena and the rumor table
// (util/snapshot.h). This
// binary counts every global allocation, so a test can assert that a
// stretch of code allocates nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/bitset.h"
#include "util/snapshot.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (align <= alignof(std::max_align_t)) align = 1;
  // aligned_alloc wants a non-zero multiple of the alignment.
  const std::size_t bytes = (std::max<std::size_t>(size, 1) + align - 1) /
                            align * align;
  void* p = align == 1 ? std::malloc(bytes) : std::aligned_alloc(align, bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The array and nothrow forms forward to these two.
void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace latgossip {
namespace {

Bitset bits_with(std::size_t size, std::initializer_list<std::size_t> set) {
  Bitset b(size);
  for (std::size_t i : set) b.set(i);
  return b;
}

TEST(SnapshotArena, CaptureCopiesContentsAndCachesCount) {
  SnapshotArena arena(100);
  const Bitset src = bits_with(100, {0, 17, 63, 64, 99});
  const SnapshotRef ref = arena.capture(src);
  ASSERT_TRUE(ref);
  EXPECT_TRUE(ref.bits() == src);
  EXPECT_EQ(ref.count(), 5u);
  EXPECT_EQ(arena.allocated_blocks(), 1u);
  EXPECT_EQ(arena.captures(), 1u);
}

TEST(SnapshotArena, CaptureWithKnownCountSkipsRecount) {
  SnapshotArena arena(64);
  const Bitset src = bits_with(64, {1, 2, 3});
  const SnapshotRef ref = arena.capture(src, 3);
  EXPECT_TRUE(ref.bits() == src);
  EXPECT_EQ(ref.count(), 3u);
}

TEST(SnapshotArena, SnapshotIsImmutableAfterSourceMutates) {
  SnapshotArena arena(32);
  Bitset src = bits_with(32, {4});
  const SnapshotRef ref = arena.capture(src);
  src.set(5);
  EXPECT_FALSE(ref.bits().test(5));
  EXPECT_EQ(ref.count(), 1u);
}

TEST(SnapshotArena, RefCopyBumpsSharingAndMoveSteals) {
  SnapshotArena arena(16);
  SnapshotRef a = arena.capture(bits_with(16, {7}));
  const SnapshotRef b = a;  // copy: same block
  EXPECT_EQ(a.id(), b.id());
  const SnapshotRef c = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): asserting the move
  EXPECT_EQ(c.id(), b.id());
  EXPECT_EQ(arena.allocated_blocks(), 1u);
}

TEST(SnapshotArena, LastRefRecyclesBlockThroughPool) {
  SnapshotArena arena(16);
  const void* first_id = nullptr;
  {
    const SnapshotRef ref = arena.capture(bits_with(16, {1}));
    first_id = ref.id();
    EXPECT_EQ(arena.pooled_blocks(), 0u);
  }
  EXPECT_EQ(arena.pooled_blocks(), 1u);
  // The next capture reuses the recycled block: no new allocation.
  const SnapshotRef again = arena.capture(bits_with(16, {2, 3}));
  EXPECT_EQ(again.id(), first_id);
  EXPECT_EQ(again.count(), 2u);
  EXPECT_EQ(arena.allocated_blocks(), 1u);
  EXPECT_EQ(arena.pooled_blocks(), 0u);
}

TEST(SnapshotArena, AllocationStopsOncePoolCoversInflightPeak) {
  SnapshotArena arena(64);
  const Bitset src = bits_with(64, {0});
  // Hold at most 3 refs at a time, over many capture generations.
  for (int round = 0; round < 50; ++round) {
    std::vector<SnapshotRef> held;
    for (int i = 0; i < 3; ++i) held.push_back(arena.capture(src));
  }
  EXPECT_EQ(arena.allocated_blocks(), 3u);
  EXPECT_EQ(arena.captures(), 150u);
}

// SnapshotRef::release() is noexcept and returns the block to the
// arena's pool; a pool that grew there could throw std::bad_alloc
// through it and terminate the process.
TEST(SnapshotArena, ReleasingRefsNeverAllocates) {
  SnapshotArena arena(64);
  const Bitset src = bits_with(64, {3});
  std::vector<SnapshotRef> held;
  held.reserve(200);
  for (int i = 0; i < 200; ++i) held.push_back(arena.capture(src));
  ASSERT_EQ(arena.allocated_blocks(), 200u);
  const std::size_t before = g_allocations.load();
  held.clear();
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(arena.pooled_blocks(), 200u);
}

// The SnapshotCache tests pin RumorTable's per-node snapshot slots:
// capture() shares a block until the set changes, and capture_copy()
// always deep-copies.
TEST(SnapshotCache, SharedReturnsSameBlockUntilInvalidated) {
  RumorTable table(4);
  const SnapshotRef a = table.capture(0);
  const SnapshotRef b = table.capture(0);
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(table.arena().captures(), 1u);
  // A merge that adds nothing is no change.
  EXPECT_FALSE(table.merge(0, bits_with(4, {0})));
  EXPECT_EQ(table.capture(0).id(), a.id());

  EXPECT_TRUE(table.merge(0, bits_with(4, {2})));
  const SnapshotRef c = table.capture(0);
  EXPECT_NE(c.id(), a.id());
  EXPECT_EQ(c.count(), 2u);
  EXPECT_TRUE(c.bits().test(2));
  // The old snapshot is untouched by the re-capture.
  EXPECT_FALSE(a.bits().test(2));
}

TEST(SnapshotCache, SlotsAreIndependentPerNode) {
  RumorTable table(2);
  const SnapshotRef a = table.capture(0);
  const SnapshotRef b = table.capture(1);
  EXPECT_NE(a.id(), b.id());
  table.add(0, 1);
  const SnapshotRef b2 = table.capture(1);
  EXPECT_EQ(b2.id(), b.id());  // node 1's slot survived node 0's change
}

TEST(SnapshotCache, FreshAlwaysDeepCopies) {
  RumorTable table(16);
  table.add(0, 9);
  const SnapshotRef shared1 = table.capture(0);
  const SnapshotRef f1 = table.capture_copy(0);
  const SnapshotRef f2 = table.capture_copy(0);
  EXPECT_NE(f1.id(), shared1.id());
  EXPECT_NE(f2.id(), f1.id());
  EXPECT_TRUE(f1.bits() == table[0]);
  // capture_copy() counts its copy; it never takes the table's count.
  EXPECT_EQ(f1.count(), 2u);
  EXPECT_EQ(f2.count(), 2u);
  // capture_copy() never touches the cached slot.
  const SnapshotRef shared2 = table.capture(0);
  EXPECT_EQ(shared2.id(), shared1.id());
}

TEST(SnapshotCache, InvalidateWithSoleReferenceRefillsInPlace) {
  // When the slot holds the only reference, a change keeps the block and
  // the next capture() overwrites it in place — a quiet node reuses one
  // stable block forever instead of cycling the pool. Every kind of
  // change takes this path.
  RumorTable source(16);
  source.add(3, 9);
  RumorTable table(16);
  const void* const id = table.capture(3).id();
  auto expect_refilled = [&](std::size_t count) {
    EXPECT_EQ(table.arena().pooled_blocks(), 0u);  // block kept
    const SnapshotRef refreshed = table.capture(3);
    EXPECT_EQ(refreshed.id(), id);  // same block, new contents
    EXPECT_TRUE(refreshed.bits() == table[3]);
    EXPECT_EQ(refreshed.count(), count);
  };
  table.merge(3, bits_with(16, {5}));
  expect_refilled(2);
  table.add(3, 7);
  expect_refilled(3);
  table.reset_to(3, 3);
  expect_refilled(1);
  table.copy_from(3, source);
  expect_refilled(2);
  EXPECT_TRUE(table[3].test(9));
  // Each refill performed a real copy: it counts as a capture.
  EXPECT_EQ(table.arena().captures(), 5u);
  EXPECT_EQ(table.arena().allocated_blocks(), 1u);
}

TEST(SnapshotCache, InvalidateWithInflightReferenceDropsTheBlock) {
  // When payload refs are still in flight, a change must drop the slot
  // instead: the in-flight view is immutable, so the next capture()
  // copies into a different block.
  RumorTable table(16);
  SnapshotRef inflight = table.capture(0);
  table.add(0, 5);

  const SnapshotRef refreshed = table.capture(0);
  EXPECT_NE(refreshed.id(), inflight.id());
  EXPECT_FALSE(inflight.bits().test(5));  // old view untouched
  EXPECT_TRUE(refreshed.bits().test(5));

  inflight.reset();  // last external ref dies -> block recycles
  EXPECT_EQ(table.arena().pooled_blocks(), 1u);
}

// A table holds n sets of n bits; anything else is rejected with the
// owner's prefix, as each protocol's constructor reports it.
TEST(RumorTable, RejectsMisshapenSets) {
  auto message = [](std::size_t n, std::vector<Bitset> sets) {
    try {
      RumorTable table("owner", n, std::move(sets));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message(3, own_id_rumors(2)),
            "owner: rumor vector size mismatch");
  std::vector<Bitset> short_row = own_id_rumors(3);
  short_row[1] = Bitset(2);
  EXPECT_EQ(message(3, std::move(short_row)),
            "owner: rumor bitset size mismatch");
  EXPECT_EQ(message(3, own_id_rumors(3)), "accepted");
  EXPECT_EQ(message(0, {}), "accepted");
}

}  // namespace
}  // namespace latgossip
