#pragma once
// Interchangeable rumor-set representations.
//
// Rumor-set protocols (core/) carry one subset of [0, n) per node and
// spend their time on three operations: union a delivered payload into
// the local set (or_assign_changed), snapshot the local set into an
// immutable payload block (assign_and_count / copy-assign), and test
// membership. A dense Bitset is ideal while n is small — every set is
// n/8 bytes regardless of content — but an n-node all-pairs layout
// costs n²/8 bytes, which walls the simulator at ~65k nodes (ROADMAP
// item 2).
//
// This header factors the representation into a compile-time concept,
// RumorSetRep, modeled by two interchangeable types:
//
//  * Bitset           (util/bitset.h) — the unchanged dense fast path.
//  * SparseRumorSet   — sorted u32 vector for broadcast-style workloads
//                       where |set| ≪ n (k rumors spreading through a
//                       large graph); promotes itself to dense past the
//                       break-even point so adversarial growth degrades
//                       to Bitset behavior instead of O(k) inserts.
//
// Both are observationally identical: the engine-vs-oracle
// differential harness (check/differential.cpp) runs every rumor-set
// case under both representations and requires bit-identical
// SimResults and event fingerprints. Protocols are templated over the representation
// (core/push_pull.h BasicPushPullGossip<R> etc.) with Bitset-typedefs
// preserving the historical names, so the dense instantiation inlines
// exactly as before.

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/bitset.h"

namespace latgossip {

/// Compile-time contract every rumor-set representation satisfies.
/// Bitset models it natively; SparseRumorSet mirrors the subset of Bitset's API the protocols and the snapshot arena use.
template <typename R>
concept RumorSetRep =
    std::copyable<R> && requires(R r, const R& cr, std::size_t i) {
      R(i);                              // all-zero set over [0, i)
      r.reinit(i);                       // re-zero, possibly resizing
      r.clear();                         // re-zero in place
      r.set(i);                          // insert one element
      { cr.test(i) } -> std::convertible_to<bool>;
      { cr.size() } -> std::convertible_to<std::size_t>;
      { cr.count() } -> std::convertible_to<std::size_t>;
      { r.or_assign_changed(cr) } -> std::same_as<typename R::OrDelta>;
      { r.assign_and_count(cr) } -> std::convertible_to<std::size_t>;
      { cr == cr } -> std::convertible_to<bool>;
    };

/// The dense representation is the Bitset itself — zero adaptation, so
/// the historical protocol aliases instantiate to exactly the code that
/// shipped before this layer existed.
using DenseRumorSet = Bitset;

/// Sorted-vector sparse set over [0, size). Memory is 4 bytes per
/// element versus the dense 1 bit per node, so sparse wins while
/// |set| < size/32; once an instance grows past kPromoteNumerator *
/// size / kPromoteDenominator elements it promotes itself to a dense
/// Bitset and stays dense until the next reinit()/clear(). Promotion is
/// per-instance: in a k-source broadcast every set stays sparse
/// forever, while a worst-case all-to-all degrades to Bitset costs
/// instead of O(|set|) insertion churn.
class SparseRumorSet {
 public:
  using OrDelta = Bitset::OrDelta;

  SparseRumorSet() = default;
  explicit SparseRumorSet(std::size_t size) : size_(size) {}

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Elements held before a sparse set of `size` promotes to dense
  /// (the 4-bytes-per-element vs size/8-bytes break-even, floored so
  /// tiny sets never bother promoting).
  static std::size_t promote_threshold(std::size_t size) noexcept {
    return std::max<std::size_t>(64, size / 32);
  }

  bool test(std::size_t i) const {
    check(i);
    if (dense_) return bits_.test(i);
    return std::binary_search(elems_.begin(), elems_.end(),
                              static_cast<std::uint32_t>(i));
  }

  void set(std::size_t i) {
    check(i);
    if (dense_) {
      if (!bits_.test(i)) {
        bits_.set(i);
        ++count_;
      }
      return;
    }
    const auto v = static_cast<std::uint32_t>(i);
    const auto it = std::lower_bound(elems_.begin(), elems_.end(), v);
    if (it != elems_.end() && *it == v) return;
    elems_.insert(it, v);
    maybe_promote();
  }

  void clear() noexcept {
    elems_.clear();
    dense_ = false;
    count_ = 0;
    bits_ = Bitset();
  }

  /// Re-zero under a (possibly different) universe size; drops back to
  /// sparse mode. Element storage capacity is kept (workspace reuse).
  void reinit(std::size_t size) {
    clear();
    size_ = size;
  }

  std::size_t count() const noexcept {
    return dense_ ? count_ : elems_.size();
  }

  bool all() const noexcept { return count() == size_; }

  /// In-place union with exact change accounting — the observational
  /// contract matched against Bitset::or_assign_changed by the
  /// cross-representation differential sweep. Precondition: same size.
  OrDelta or_assign_changed(const SparseRumorSet& other) {
    check_same(other);
    if (other.count() == 0) return OrDelta{};
    if (dense_) {
      if (other.dense_) {
        const OrDelta delta = bits_.or_assign_changed(other.bits_);
        count_ += delta.added;
        return delta;
      }
      std::size_t added = 0;
      for (const std::uint32_t v : other.elems_) {
        if (!bits_.test(v)) {
          bits_.set(v);
          ++added;
        }
      }
      count_ += added;
      return OrDelta{added > 0, added};
    }
    if (other.dense_) {
      promote();
      return or_assign_changed(other);
    }
    // Sparse ∪ sparse: merge the sorted element lists.
    const std::size_t before = elems_.size();
    std::vector<std::uint32_t> merged;
    merged.reserve(before + other.elems_.size());
    std::set_union(elems_.begin(), elems_.end(), other.elems_.begin(),
                   other.elems_.end(), std::back_inserter(merged));
    const std::size_t added = merged.size() - before;
    if (added == 0) return OrDelta{};
    elems_ = std::move(merged);
    maybe_promote();
    return OrDelta{true, added};
  }

  /// Overwrite this with `other` and return `other`'s cardinality (the
  /// snapshot arena's fused copy+count, see util/snapshot.h).
  std::size_t assign_and_count(const SparseRumorSet& other) {
    *this = other;
    return count();
  }

  bool operator==(const SparseRumorSet& other) const {
    if (size_ != other.size_) return false;
    if (count() != other.count()) return false;
    if (dense_ && other.dense_) return bits_ == other.bits_;
    // Mixed-mode compare: membership, not layout, defines equality.
    const SparseRumorSet& sparse = dense_ ? other : *this;
    const SparseRumorSet& any = dense_ ? *this : other;
    for (const std::uint32_t v : sparse.elems_)
      if (!any.test(v)) return false;
    return true;
  }

  /// Indices of all elements, ascending (tests / debugging).
  std::vector<std::size_t> to_indices() const {
    if (dense_) return bits_.to_indices();
    return {elems_.begin(), elems_.end()};
  }

  /// True while the instance is still in sorted-vector mode.
  bool is_sparse() const noexcept { return !dense_; }

 private:
  void check(std::size_t i) const {
    if (i >= size_)
      throw std::out_of_range("SparseRumorSet index out of range");
  }
  void check_same(const SparseRumorSet& other) const {
    if (size_ != other.size_)
      throw std::invalid_argument("SparseRumorSet size mismatch");
  }

  void maybe_promote() {
    if (elems_.size() > promote_threshold(size_)) promote();
  }

  void promote() {
    bits_.reinit(size_);
    for (const std::uint32_t v : elems_) bits_.set(v);
    count_ = elems_.size();
    elems_.clear();
    dense_ = true;
  }

  std::size_t size_ = 0;
  bool dense_ = false;
  std::vector<std::uint32_t> elems_;  ///< sorted; valid when !dense_
  Bitset bits_;                       ///< valid when dense_
  std::size_t count_ = 0;             ///< popcount mirror when dense_
};

static_assert(RumorSetRep<Bitset>);
static_assert(RumorSetRep<SparseRumorSet>);

/// Starting rumor sets where each node knows exactly its own id — the
/// representation-generic twin of the protocols' own_id_rumors().
template <RumorSetRep R>
std::vector<R> own_id_rumor_sets(std::size_t n) {
  std::vector<R> r(n, R(n));
  for (std::size_t u = 0; u < n; ++u) r[u].set(u);
  return r;
}

/// Warm the representation's payload storage ahead of a union into it
/// (the engine's one-delivery-ahead prefetch). Representations without
/// a flat word array (sparse mode) skip the hint.
template <typename R>
inline void prefetch_rumor_set(const R& r) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  if constexpr (requires { r.words(); }) {
    const auto w = r.words();
    __builtin_prefetch(w.data(), /*rw=*/1, /*locality=*/1);
    __builtin_prefetch(reinterpret_cast<const char*>(w.data()) + 64, 1, 1);
  } else {
    (void)r;
  }
#else
  (void)r;
#endif
}

// ---------------------------------------------------------------------------
// Runtime representation selection.

/// Which rumor-set representation a run should instantiate. kAuto picks
/// dense below kDenseNodeThreshold nodes and sparse at or above it.
enum class RumorRep : std::uint8_t { kDense, kSparse, kAuto };

/// Auto-selection crossover. Below this node count a dense rumor set is
/// at most 8 KiB (n/8 bytes) and word-parallel unions beat any sparse
/// structure; above it an all-dense layout costs more than n²/8 ≈ 512
/// MiB across nodes and sparse wins whenever |set| ≪ n (the million-
/// node broadcast regime). See DESIGN.md §5i.
inline constexpr std::size_t kDenseNodeThreshold = 65536;

constexpr std::string_view rumor_rep_name(RumorRep rep) noexcept {
  switch (rep) {
    case RumorRep::kDense: return "dense";
    case RumorRep::kSparse: return "sparse";
    case RumorRep::kAuto: return "auto";
  }
  return "?";
}

/// Parse a --rumor-rep flag value; throws on unknown names.
inline RumorRep parse_rumor_rep(std::string_view name) {
  if (name == "dense") return RumorRep::kDense;
  if (name == "sparse") return RumorRep::kSparse;
  if (name == "auto") return RumorRep::kAuto;
  throw std::invalid_argument("unknown rumor representation: " +
                              std::string(name));
}

/// Resolve kAuto against a concrete node count; concrete choices pass
/// through unchanged.
constexpr RumorRep resolve_rumor_rep(RumorRep rep, std::size_t num_nodes) {
  if (rep != RumorRep::kAuto) return rep;
  return num_nodes < kDenseNodeThreshold ? RumorRep::kDense
                                         : RumorRep::kSparse;
}

/// Invoke `fn` with the representation type selected by `rep` (kAuto
/// resolved against `num_nodes`): fn.template operator()<R>() — the
/// runtime-flag-to-compile-time-type bridge used by the CLI and the
/// cross-representation differential harness.
template <typename Fn>
decltype(auto) with_rumor_rep(RumorRep rep, std::size_t num_nodes, Fn&& fn) {
  switch (resolve_rumor_rep(rep, num_nodes)) {
    case RumorRep::kSparse:
      return fn.template operator()<SparseRumorSet>();
    case RumorRep::kDense:
    case RumorRep::kAuto:
      break;
  }
  return fn.template operator()<Bitset>();
}

}  // namespace latgossip
