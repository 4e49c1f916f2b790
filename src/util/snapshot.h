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
// Three pieces, each templated over the rumor-set representation R
// (util/rumor_set.h) — Bitset for the dense fast path, SparseRumorSet
// for the million-node regime — with the historical
// Bitset-instantiation names kept as aliases:
//  * BasicSnapshotArena<R> — owns ref-counted immutable R blocks;
//    blocks whose last reference dies are recycled through a free pool,
//    so once the pool covers the in-flight peak, captures allocate
//    nothing. Every block caches its cardinality at fill time, so
//    payload_bits() accounting never re-scans the contents.
//  * BasicSnapshotRef<R> — a cheap handle (copy = refcount bump, move =
//    pointer steal) protocols use as their Payload type. The referenced
//    set is immutable for the life of the handle.
//  * BasicSnapshotCache<R> — per-node "current snapshot" slots with a
//    dirty bit (an empty slot IS the dirty bit): shared() re-captures
//    only after invalidate(), fresh() always deep-copies (the reference
//    oracle's naive path, see sim/oracle.h).
//
// Lifetime: every snapshot ref must die before its arena. Protocols get
// this for free by declaring the cache/arena member before any member
// holding refs, and because run_gossip()'s delivery queue (which holds
// payload refs) is destroyed before the caller-owned protocol. The
// arena is single-threaded by design — one protocol instance, one
// trial, one thread (matching run_trials' isolation contract) — so the
// refcounts are plain integers.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/bitset.h"

namespace latgossip {

template <typename R>
class BasicSnapshotArena;
template <typename R>
class BasicSnapshotCache;

namespace snapshot_detail {

/// Cache-line aligned, metadata first: for rumor sets that fit Bitset's
/// inline words (≤512 bits) the whole block — refcount, cached count,
/// and words — spans exactly two 64-byte lines, so a delivery's
/// union-and-release touches two lines instead of a scattered three or
/// four. Blocks come out of contiguous slabs (below) for the same
/// reason.
template <typename R>
struct alignas(64) Block {
  std::size_t count = 0;  ///< cardinality of bits, cached at fill time
  std::uint32_t refs = 0;
  /// Set when the cache's node state changed while the cache held the
  /// only reference: the block's contents are out of date but nobody
  /// can observe them, so the next shared() refills this block in place
  /// instead of cycling a fresh one through the pool
  /// (BasicSnapshotCache).
  bool stale = false;
  BasicSnapshotArena<R>* arena = nullptr;
  R bits;
};

}  // namespace snapshot_detail

/// Shared handle to one immutable snapshot block. Default-constructed
/// refs are empty (used as the "dirty"/absent state); dereferencing an
/// empty ref is undefined.
template <typename R>
class BasicSnapshotRef {
 public:
  BasicSnapshotRef() = default;
  BasicSnapshotRef(const BasicSnapshotRef& other) noexcept
      : block_(other.block_) {
    if (block_ != nullptr) ++block_->refs;
  }
  BasicSnapshotRef(BasicSnapshotRef&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }
  BasicSnapshotRef& operator=(const BasicSnapshotRef& other) noexcept {
    if (this != &other) {
      release();
      block_ = other.block_;
      if (block_ != nullptr) ++block_->refs;
    }
    return *this;
  }
  BasicSnapshotRef& operator=(BasicSnapshotRef&& other) noexcept {
    if (this != &other) {
      release();
      block_ = other.block_;
      other.block_ = nullptr;
    }
    return *this;
  }
  ~BasicSnapshotRef() { release(); }

  explicit operator bool() const noexcept { return block_ != nullptr; }

  /// The snapshot's contents. Immutable; valid while this ref lives.
  const R& bits() const noexcept { return block_->bits; }

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
  friend class BasicSnapshotArena<R>;
  friend class BasicSnapshotCache<R>;
  explicit BasicSnapshotRef(snapshot_detail::Block<R>* block) noexcept
      : block_(block) {
    ++block_->refs;
  }
  void release() noexcept {
    if (block_ != nullptr && --block_->refs == 0)
      block_->arena->recycle(block_);
    block_ = nullptr;
  }

  snapshot_detail::Block<R>* block_ = nullptr;
};

/// Pool of fixed-width snapshot blocks. Non-movable: live refs hold
/// back-pointers into it.
template <typename R>
class BasicSnapshotArena {
 public:
  /// Every snapshot from this arena holds `bits` bits.
  explicit BasicSnapshotArena(std::size_t bits) : bits_(bits) {}
  BasicSnapshotArena(const BasicSnapshotArena&) = delete;
  BasicSnapshotArena& operator=(const BasicSnapshotArena&) = delete;

  /// Snapshot `contents` into a pooled block (cardinality computed in
  /// the same pass as the copy) and return a ref to it.
  BasicSnapshotRef<R> capture(const R& contents) {
    snapshot_detail::Block<R>* block = acquire();
    block->count = block->bits.assign_and_count(contents);
    return BasicSnapshotRef<R>(block);
  }

  /// Same, with the cardinality already known (protocols that track
  /// rumor counts incrementally skip the fused re-count).
  BasicSnapshotRef<R> capture(const R& contents, std::size_t known_count) {
    snapshot_detail::Block<R>* block = acquire();
    block->bits = contents;
    block->count = known_count;
    return BasicSnapshotRef<R>(block);
  }

  /// Reset for a new trial. Precondition: every ref into this arena has
  /// died (all blocks recycled into the pool) — guaranteed at trial
  /// boundaries because the engine releases pending deliveries before
  /// run_gossip returns and BasicSnapshotCache::reset drops its slots
  /// first. Same width: keeps slabs and pool, so the next run's captures
  /// reuse every block already allocated (steady-state reuse allocates
  /// nothing; stale block contents are overwritten at capture). New
  /// width: drops everything and starts fresh.
  void reset(std::size_t bits) {
    if (bits == bits_) {
      assert(pool_.size() == allocated_ && "SnapshotArena::reset with refs");
      return;
    }
    slabs_.clear();
    pool_.clear();
    next_in_slab_ = kSlabBlocks;
    allocated_ = 0;
    bits_ = bits;
  }

  /// Blocks ever allocated (the steady-state ceiling: once the pool
  /// covers the in-flight peak this stops growing).
  std::size_t allocated_blocks() const noexcept { return allocated_; }
  /// Blocks currently sitting in the free pool.
  std::size_t pooled_blocks() const noexcept { return pool_.size(); }
  /// Total capture() calls (copies actually performed).
  std::uint64_t captures() const noexcept { return captures_; }

 private:
  friend class BasicSnapshotRef<R>;
  friend class BasicSnapshotCache<R>;

  snapshot_detail::Block<R>* acquire() {
    ++captures_;
    if (!pool_.empty()) {
      snapshot_detail::Block<R>* block = pool_.back();
      pool_.pop_back();
      block->stale = false;
      return block;
    }
    if (next_in_slab_ == kSlabBlocks) {
      slabs_.push_back(
          std::make_unique<snapshot_detail::Block<R>[]>(kSlabBlocks));
      next_in_slab_ = 0;
    }
    snapshot_detail::Block<R>* block = &slabs_.back()[next_in_slab_++];
    ++allocated_;
    block->bits = R(bits_);
    block->arena = this;
    return block;
  }

  /// Overwrite a stale block's contents in place. Only legal while the
  /// caller holds the block's single reference (nobody else can observe
  /// the contents changing). Counted as a capture: it performs the same
  /// copy a fresh block would.
  void refill(snapshot_detail::Block<R>* block, const R& contents,
              std::size_t known_count) {
    ++captures_;
    block->bits = contents;
    block->count = known_count;
    block->stale = false;
  }
  void refill(snapshot_detail::Block<R>* block, const R& contents) {
    ++captures_;
    block->count = block->bits.assign_and_count(contents);
    block->stale = false;
  }

  void recycle(snapshot_detail::Block<R>* block) { pool_.push_back(block); }

  /// Blocks live in contiguous fixed-size slabs (stable addresses, like
  /// a deque, but with slab-sized runs of adjacent cache lines).
  static constexpr std::size_t kSlabBlocks = 64;

  std::size_t bits_;
  std::vector<std::unique_ptr<snapshot_detail::Block<R>[]>> slabs_;
  std::size_t next_in_slab_ = kSlabBlocks;
  std::size_t allocated_ = 0;
  std::vector<snapshot_detail::Block<R>*> pool_;
  std::uint64_t captures_ = 0;
};

/// Per-node current-snapshot slots over a private arena. The dirty bit
/// is the slot itself: invalidate() empties it, shared() re-captures
/// only into an empty slot.
template <typename R>
class BasicSnapshotCache {
 public:
  /// `nodes` slots; every snapshot holds `bits` bits.
  BasicSnapshotCache(std::size_t nodes, std::size_t bits)
      : arena_(bits), cached_(nodes) {}

  /// The node's current snapshot, re-copied from `contents` iff the
  /// node's state changed since the last capture (invalidate()).
  /// Copy-on-write fast path: an unchanged node's snapshot is returned
  /// by refcount bump alone. A changed node whose previous snapshot is
  /// no longer referenced elsewhere refills the same block in place —
  /// one stable block per quiet node, instead of churning the pool.
  BasicSnapshotRef<R> shared(std::size_t node, const R& contents) {
    BasicSnapshotRef<R>& slot = cached_[node];
    if (!slot)
      slot = arena_.capture(contents);
    else if (slot.block_->stale)
      arena_.refill(slot.block_, contents);
    return slot;
  }
  BasicSnapshotRef<R> shared(std::size_t node, const R& contents,
                             std::size_t known_count) {
    BasicSnapshotRef<R>& slot = cached_[node];
    if (!slot)
      slot = arena_.capture(contents, known_count);
    else if (slot.block_->stale)
      arena_.refill(slot.block_, contents, known_count);
    return slot;
  }

  /// An always-fresh private deep copy — the reference oracle's naive
  /// capture path (never shared, never cached), so engine-vs-oracle
  /// differential runs prove snapshot sharing ≡ copy-at-capture.
  BasicSnapshotRef<R> fresh(const R& contents) {
    return arena_.capture(contents);
  }
  BasicSnapshotRef<R> fresh(const R& contents, std::size_t known_count) {
    return arena_.capture(contents, known_count);
  }

  /// Mark the node's state changed: the next shared() re-copies. If the
  /// cache holds the only reference to the node's snapshot, the block is
  /// kept and merely marked stale (refilled in place on the next
  /// shared()); if payload refs are still in flight, the block is
  /// dropped so their immutable view survives.
  void invalidate(std::size_t node) noexcept {
    BasicSnapshotRef<R>& slot = cached_[node];
    if (slot.block_ != nullptr) {
      if (slot.block_->refs == 1)
        slot.block_->stale = true;
      else
        slot.reset();
    }
  }

  /// Reset for a new trial: releases every cached slot (recycling the
  /// blocks), resizes to `nodes` slots, and resets the arena. With
  /// unchanged sizes the slot vector and the arena's slabs are reused
  /// as-is — the workspace-reuse steady state allocates nothing here.
  void reset(std::size_t nodes, std::size_t bits) {
    for (BasicSnapshotRef<R>& slot : cached_) slot.reset();
    cached_.resize(nodes);
    arena_.reset(bits);
  }

  const BasicSnapshotArena<R>& arena() const noexcept { return arena_; }

 private:
  BasicSnapshotArena<R> arena_;  ///< declared first: outlives the refs
  std::vector<BasicSnapshotRef<R>> cached_;
};

/// Historical names: the dense Bitset instantiation every pre-existing
/// protocol, test, and bench compiles against unchanged.
using SnapshotRef = BasicSnapshotRef<Bitset>;
using SnapshotArena = BasicSnapshotArena<Bitset>;
using SnapshotCache = BasicSnapshotCache<Bitset>;

}  // namespace latgossip
