#pragma once
// Copy-on-write payload snapshots for rumor-set protocols.
//
// Rumor sets are union-monotone, and the engine's payload semantics say
// capture_payload(u, r) must reflect u's state at round r (see
// sim/engine.h and DESIGN.md §5g). Because a snapshot is immutable once
// taken, a node whose rumor set has NOT changed since its last capture
// can hand out the *same* snapshot again — sharing is observationally
// indistinguishable from copy-at-capture. That turns the all-to-all hot
// path's two full n-bit Bitset heap copies per exchange into two
// reference-count bumps in steady state.
//
// Three pieces:
//  * SnapshotArena — owns ref-counted immutable Bitset blocks; blocks
//    whose last reference dies are recycled through a free pool, so
//    once the pool covers the in-flight peak, captures allocate
//    nothing, and releasing a reference never allocates. Every block
//    caches its cardinality at fill time, so payload_bits() accounting
//    never re-scans the contents.
//  * SnapshotRef — a cheap handle (copy = refcount bump, move =
//    pointer steal) protocols use as their Payload type. The referenced
//    set is immutable for the life of the handle.
//  * RumorTable — the rumor sets themselves: n sets of n bits, their
//    incremental counts and one "current snapshot" slot per node (an
//    empty slot IS the dirty bit). Every change updates all three, so
//    capture() re-copies only after a change and takes the incremental
//    count; capture_copy() always deep-copies and recounts in the same
//    pass (the reference oracle's naive path, see sim/oracle.h), so a
//    table whose count drifts diverges from the oracle. PushPullGossip,
//    RRBroadcast and DtgLocalBroadcast keep their rumor sets only here.
//
// Lifetime: every snapshot ref must die before its arena. A table gets
// this for free by declaring its arena before its slots, protocols by
// declaring their tables before any member holding refs, and because
// run_gossip()'s delivery queue (which holds
// payload refs) is destroyed before the caller-owned protocol. The
// arena is single-threaded by design — one protocol instance, one
// trial, one thread (matching run_trials' isolation contract) — so the
// refcounts are plain integers.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bitset.h"

namespace latgossip {

class SnapshotArena;
class RumorTable;

namespace snapshot_detail {

/// Cache-line aligned, metadata first: for rumor sets that fit Bitset's
/// inline words (≤512 bits) the whole block — refcount, cached count,
/// and words — spans exactly two 64-byte lines, so a delivery's
/// union-and-release touches two lines instead of a scattered three or
/// four. Blocks come out of contiguous slabs (below) for the same
/// reason.
struct alignas(64) Block {
  std::size_t count = 0;  ///< cardinality of bits, cached at fill time
  std::uint32_t refs = 0;
  /// Set when a table's set changed while its slot held the only
  /// reference: the block's contents are out of date but nobody can
  /// observe them, so the next capture refills this block in place
  /// instead of cycling a fresh one through the pool (RumorTable).
  bool stale = false;
  SnapshotArena* arena = nullptr;
  Bitset bits;
};

}  // namespace snapshot_detail

/// Shared handle to one immutable snapshot block. Default-constructed
/// refs are empty (used as the "dirty"/absent state); dereferencing an
/// empty ref is undefined.
class SnapshotRef {
 public:
  SnapshotRef() = default;
  SnapshotRef(const SnapshotRef& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) ++block_->refs;
  }
  SnapshotRef(SnapshotRef&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }
  SnapshotRef& operator=(const SnapshotRef& other) noexcept {
    if (this != &other) {
      release();
      block_ = other.block_;
      if (block_ != nullptr) ++block_->refs;
    }
    return *this;
  }
  SnapshotRef& operator=(SnapshotRef&& other) noexcept {
    if (this != &other) {
      release();
      block_ = other.block_;
      other.block_ = nullptr;
    }
    return *this;
  }
  ~SnapshotRef() { release(); }

  explicit operator bool() const noexcept { return block_ != nullptr; }

  /// The snapshot's contents. Immutable; valid while this ref lives.
  const Bitset& bits() const noexcept { return block_->bits; }

  /// Cached cardinality of bits() — O(1), never re-scans the contents.
  std::size_t count() const noexcept { return block_->count; }

  /// Identity of the underlying block (tests use this to assert that
  /// unchanged nodes hand out the same snapshot, not a copy).
  const void* id() const noexcept { return block_; }

  /// Warm the block's cache lines (header + inline words). The engine's
  /// delivery loop calls this on the *next* delivery's payload while the
  /// current union runs, hiding the pointer-chase miss on blocks that
  /// went cold while queued (sim/engine.h).
  void prefetch() const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    if (block_ != nullptr) {
      __builtin_prefetch(block_, /*rw=*/0, /*locality=*/1);
      __builtin_prefetch(reinterpret_cast<const char*>(block_) + 64, 0, 1);
    }
#endif
  }

  void reset() noexcept { release(); }

 private:
  friend class SnapshotArena;
  friend class RumorTable;
  explicit SnapshotRef(snapshot_detail::Block* block) noexcept
      : block_(block) {
    ++block_->refs;
  }
  /// Defined after SnapshotArena, whose recycle() it calls.
  void release() noexcept;

  snapshot_detail::Block* block_ = nullptr;
};

/// Pool of fixed-width snapshot blocks. Non-movable: live refs hold
/// back-pointers into it.
class SnapshotArena {
 public:
  /// Every snapshot from this arena holds `bits` bits.
  explicit SnapshotArena(std::size_t bits) : bits_(bits) {}
  SnapshotArena(const SnapshotArena&) = delete;
  SnapshotArena& operator=(const SnapshotArena&) = delete;

  /// Snapshot `contents` into a pooled block (cardinality computed in
  /// the same pass as the copy) and return a ref to it.
  SnapshotRef capture(const Bitset& contents) {
    snapshot_detail::Block* block = acquire();
    block->count = block->bits.assign_and_count(contents);
    return SnapshotRef(block);
  }

  /// Same, with the cardinality already known (protocols that track
  /// rumor counts incrementally skip the fused re-count).
  SnapshotRef capture(const Bitset& contents, std::size_t known_count) {
    snapshot_detail::Block* block = acquire();
    block->bits = contents;
    block->count = known_count;
    return SnapshotRef(block);
  }

  /// Blocks ever allocated (the steady-state ceiling: once the pool
  /// covers the in-flight peak this stops growing).
  std::size_t allocated_blocks() const noexcept { return allocated_; }
  /// Blocks currently sitting in the free pool.
  std::size_t pooled_blocks() const noexcept { return pool_.size(); }
  /// Total capture() calls (copies actually performed).
  std::uint64_t captures() const noexcept { return captures_; }

 private:
  friend class SnapshotRef;
  friend class RumorTable;

  snapshot_detail::Block* acquire() {
    ++captures_;
    if (!pool_.empty()) {
      snapshot_detail::Block* block = pool_.back();
      pool_.pop_back();
      block->stale = false;
      return block;
    }
    if (next_in_slab_ == kSlabBlocks) {
      // Make room in the pool for every block the new slab adds, so
      // recycle() never allocates; doubling keeps the pool's copies
      // amortized O(1) per block.
      const std::size_t blocks = (slabs_.size() + 1) * kSlabBlocks;
      if (pool_.capacity() < blocks)
        pool_.reserve(std::max(blocks, 2 * pool_.capacity()));
      slabs_.push_back(
          std::make_unique<snapshot_detail::Block[]>(kSlabBlocks));
      next_in_slab_ = 0;
    }
    snapshot_detail::Block* block = &slabs_.back()[next_in_slab_++];
    ++allocated_;
    block->bits = Bitset(bits_);
    block->arena = this;
    return block;
  }

  /// Overwrite a stale block's contents in place. Only legal while the
  /// caller holds the block's single reference (nobody else can observe
  /// the contents changing). Counted as a capture: it performs the same
  /// copy a fresh block would.
  void refill(snapshot_detail::Block* block, const Bitset& contents,
              std::size_t known_count) {
    ++captures_;
    block->bits = contents;
    block->count = known_count;
    block->stale = false;
  }

  /// Reached from the noexcept SnapshotRef::release(): acquire() keeps
  /// pool_.capacity() >= allocated_, so this push never allocates.
  void recycle(snapshot_detail::Block* block) noexcept {
    pool_.push_back(block);
  }

  /// Blocks live in contiguous fixed-size slabs (stable addresses, like
  /// a deque, but with slab-sized runs of adjacent cache lines).
  static constexpr std::size_t kSlabBlocks = 64;

  std::size_t bits_;
  std::vector<std::unique_ptr<snapshot_detail::Block[]>> slabs_;
  std::size_t next_in_slab_ = kSlabBlocks;
  std::size_t allocated_ = 0;
  std::vector<snapshot_detail::Block*> pool_;
  std::uint64_t captures_ = 0;
};

inline void SnapshotRef::release() noexcept {
  if (block_ != nullptr && --block_->refs == 0) block_->arena->recycle(block_);
  block_ = nullptr;
}

/// n rumor sets of n bits, their incremental cardinalities and one
/// current-snapshot slot per node, over a private arena. Every change
/// (merge, add, reset_to, copy_from) updates the set, its count and its
/// slot together, so no protocol hand-maintains either. The dirty bit
/// is the slot itself: a change empties it (or marks its block stale),
/// and capture() re-copies only then.
class RumorTable {
 public:
  /// Takes `sets` as the rows. Throws std::invalid_argument, prefixed
  /// with `owner` (the protocol's name), unless there are `n` sets of
  /// `n` bits each.
  RumorTable(const char* owner, std::size_t n, std::vector<Bitset> sets)
      : arena_(n), sets_(std::move(sets)), counts_(n, 0), slots_(n) {
    if (sets_.size() != n)
      throw std::invalid_argument(std::string(owner) +
                                  ": rumor vector size mismatch");
    for (std::size_t u = 0; u < n; ++u) {
      if (sets_[u].size() != n)
        throw std::invalid_argument(std::string(owner) +
                                    ": rumor bitset size mismatch");
      counts_[u] = sets_[u].count();
    }
  }

  /// n own-id rows: node u's set is {u}.
  explicit RumorTable(std::size_t n)
      : RumorTable("rumor table", n, own_id_rumors(n)) {}

  const Bitset& operator[](std::size_t u) const { return sets_[u]; }
  /// Does u's set hold every id? Reads the incremental count.
  bool full(std::size_t u) const { return counts_[u] == sets_.size(); }
  const std::vector<Bitset>& sets() const noexcept { return sets_; }
  /// Move the sets out; the table is spent afterwards.
  std::vector<Bitset> take() noexcept { return std::move(sets_); }

  /// u's set |= other; false if that added nothing.
  bool merge(std::size_t u, const Bitset& other) {
    const Bitset::OrDelta delta = sets_[u].or_assign_changed(other);
    if (!delta.changed) return false;
    counts_[u] += delta.added;
    invalidate(u);
    return true;
  }

  /// Add id `v` to u's set.
  void add(std::size_t u, std::size_t v) {
    if (sets_[u].test(v)) return;
    sets_[u].set(v);
    ++counts_[u];
    invalidate(u);
  }

  /// u's set becomes {v}.
  void reset_to(std::size_t u, std::size_t v) {
    sets_[u].clear();
    sets_[u].set(v);
    counts_[u] = 1;
    invalidate(u);
  }

  /// u's set becomes a copy of u's set in `other`.
  void copy_from(std::size_t u, const RumorTable& other) {
    sets_[u] = other.sets_[u];
    counts_[u] = other.counts_[u];
    invalidate(u);
  }

  /// The engine's capture: u's current snapshot, re-copied from the set
  /// only if it changed since the last capture. Copy-on-write fast
  /// path: an unchanged node's snapshot is returned by refcount bump
  /// alone. A changed node whose previous snapshot is no longer
  /// referenced elsewhere refills the same block in place, so a quiet
  /// node keeps one stable block instead of churning the pool. The
  /// snapshot takes the incremental count instead of recounting.
  SnapshotRef capture(std::size_t u) {
    // The slot, set and count go to shared() as arguments: GCC 12 keeps
    // this call inline in run_gossip_impl only then, and an out-of-line
    // capture costs the all-to-all path two calls per exchange.
    return shared(slots_[u], sets_[u], counts_[u]);
  }

  /// The reference oracle's capture (sim/oracle.h): an always-fresh
  /// private deep copy, never shared or cached, so engine-vs-oracle
  /// runs prove snapshot sharing ≡ copy-at-capture. It recounts the
  /// copy instead of taking the incremental count, so the same runs
  /// also check the counts.
  SnapshotRef capture_copy(std::size_t u) { return arena_.capture(sets_[u]); }

  /// Warm u's count and the first two lines of its set ahead of a
  /// merge (PushPullGossip::prefetch_deliver).
  void prefetch(std::size_t u) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&counts_[u], 0, 1);
    const auto w = sets_[u].words();
    __builtin_prefetch(w.data(), /*rw=*/1, /*locality=*/1);
    __builtin_prefetch(reinterpret_cast<const char*>(w.data()) + 64, 1, 1);
#endif
  }

  const SnapshotArena& arena() const noexcept { return arena_; }

 private:
  SnapshotRef shared(SnapshotRef& slot, const Bitset& set,
                     std::size_t count) {
    if (!slot)
      slot = arena_.capture(set, count);
    else if (slot.block_->stale)
      arena_.refill(slot.block_, set, count);
    return slot;
  }

  /// Mark u's set changed: the next capture() re-copies. If the slot
  /// holds the only reference to u's snapshot, the block is kept and
  /// merely marked stale (refilled in place on the next capture()); if
  /// payload refs are still in flight, the slot lets go of the block so
  /// their immutable view survives.
  void invalidate(std::size_t u) noexcept {
    SnapshotRef& slot = slots_[u];
    if (slot.block_ != nullptr) {
      if (slot.block_->refs == 1)
        slot.block_->stale = true;
      else
        slot.reset();
    }
  }

  SnapshotArena arena_;  ///< declared first: outlives the refs
  std::vector<Bitset> sets_;
  std::vector<std::size_t> counts_;
  std::vector<SnapshotRef> slots_;
};

}  // namespace latgossip
