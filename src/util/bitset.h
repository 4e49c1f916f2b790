#pragma once
// Dynamic bitset used for rumor sets.
//
// Information-dissemination protocols carry "rumor sets" (subsets of node
// IDs). A packed 64-bit-word bitset makes the dominant operations —
// union, subset test, popcount — O(n/64) and cache-friendly.
//
// Storage is small-buffer optimized: sets of up to kInlineWords * 64 bits
// (512) live inline in the object, with no heap allocation and no pointer
// chase. This keeps the simulator's hot structures flat — a
// std::vector<Bitset> of 512-node rumor sets is one contiguous buffer,
// and a snapshot block (util/snapshot.h) holds its words in the same
// cache lines as its header — which is where the all-to-all gossip
// benchmarks spend their time. Larger sets fall back to a heap array.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace latgossip {

class Bitset {
 public:
  /// Sets of at most this many 64-bit words are stored inline.
  static constexpr std::size_t kInlineWords = 8;

  Bitset() noexcept : size_(0), num_words_(0) {}

  /// All-zero bitset with `size` bits.
  explicit Bitset(std::size_t size)
      : size_(size), num_words_((size + 63) / 64) {
    // Zero the member just chosen, not data(): GCC 12 warns
    // -Wmaybe-uninitialized about the inactive one otherwise.
    if (num_words_ > kInlineWords)
      heap_ = new std::uint64_t[num_words_]();
    else
      std::fill_n(inline_, num_words_, 0);
  }

  Bitset(const Bitset& other)
      : size_(other.size_), num_words_(other.num_words_) {
    if (num_words_ > kInlineWords) heap_ = new std::uint64_t[num_words_];
    std::copy_n(other.data(), num_words_, data());
  }

  Bitset(Bitset&& other) noexcept
      : size_(other.size_), num_words_(other.num_words_) {
    if (num_words_ > kInlineWords) {
      heap_ = other.heap_;
      other.size_ = 0;
      other.num_words_ = 0;
    } else {
      std::copy_n(other.inline_, num_words_, inline_);
    }
  }

  Bitset& operator=(const Bitset& other) {
    if (this == &other) return *this;
    if (num_words_ != other.num_words_) {
      if (num_words_ > kInlineWords) delete[] heap_;
      if (other.num_words_ > kInlineWords)
        heap_ = new std::uint64_t[other.num_words_];
    }
    size_ = other.size_;
    num_words_ = other.num_words_;
    std::copy_n(other.data(), num_words_, data());
    return *this;
  }

  Bitset& operator=(Bitset&& other) noexcept {
    if (this == &other) return *this;
    if (num_words_ > kInlineWords) delete[] heap_;
    size_ = other.size_;
    num_words_ = other.num_words_;
    if (num_words_ > kInlineWords) {
      heap_ = other.heap_;
      other.size_ = 0;
      other.num_words_ = 0;
    } else {
      std::copy_n(other.inline_, num_words_, inline_);
    }
    return *this;
  }

  ~Bitset() {
    if (num_words_ > kInlineWords) delete[] heap_;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  bool test(std::size_t i) const {
    check(i);
    return (data()[i >> 6] >> (i & 63)) & 1;
  }

  void set(std::size_t i) {
    check(i);
    data()[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  void reset(std::size_t i) {
    check(i);
    data()[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  void clear() noexcept { std::fill_n(data(), num_words_, 0); }

  /// Re-zero under a (possibly different) bit count. When the word
  /// count is unchanged this reuses the existing storage — the
  /// workspace-reuse steady state (DESIGN.md §5h) re-arms every
  /// rumor/informed set without touching the heap. (`reset(i)` above
  /// clears one bit; this re-initializes the whole set.)
  void reinit(std::size_t size) {
    const std::size_t words = (size + 63) / 64;
    if (words == num_words_) {
      size_ = size;
      clear();
      return;
    }
    *this = Bitset(size);
  }

  void set_all() noexcept {
    std::fill_n(data(), num_words_, ~std::uint64_t{0});
    trim();
  }

  /// Number of set bits.
  std::size_t count() const noexcept {
    const std::uint64_t* w = data();
    std::size_t c = 0;
    for (std::size_t i = 0; i < num_words_; ++i)
      c += static_cast<std::size_t>(std::popcount(w[i]));
    return c;
  }

  bool all() const noexcept { return count() == size_; }

  /// Word-level "every bit set" test: compares whole 64-bit words
  /// against all-ones and exits at the first miss, so the common
  /// not-yet-done case costs a single load + compare. This is the fast
  /// path behind PushPullBroadcast::done().
  bool all_set() const noexcept {
    if (size_ == 0) return true;
    const std::uint64_t* w = data();
    const std::size_t full_words = size_ >> 6;
    for (std::size_t i = 0; i < full_words; ++i)
      if (w[i] != ~std::uint64_t{0}) return false;
    const std::size_t tail = size_ & 63;
    if (tail != 0)
      return w[num_words_ - 1] == (std::uint64_t{1} << tail) - 1;
    return true;
  }
  bool none() const noexcept {
    const std::uint64_t* w = data();
    for (std::size_t i = 0; i < num_words_; ++i)
      if (w[i] != 0) return false;
    return true;
  }

  /// In-place union. Precondition: same size.
  Bitset& operator|=(const Bitset& other) {
    check_same(other);
    std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    for (std::size_t i = 0; i < num_words_; ++i) w[i] |= o[i];
    return *this;
  }

  /// Result of or_assign_changed(): whether the union added any bit,
  /// and how many. `changed == (added > 0)` always holds; protocols use
  /// `changed` to skip snapshot invalidation / satisfaction refresh and
  /// `added` to keep per-node rumor counts incremental (no per-delivery
  /// count() re-scan).
  struct OrDelta {
    bool changed = false;
    std::size_t added = 0;
  };

  /// In-place union with change detection: one word-level pass that
  /// ORs `other` in and popcounts the newly set bits as it goes.
  /// Precondition: same size.
  OrDelta or_assign_changed(const Bitset& other) {
    check_same(other);
    std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    std::size_t added = 0;
    // Branchless on purpose: a per-word `if (incoming != 0)` guard is
    // data-dependent and mispredicts badly on half-full rumor sets,
    // costing more than the unconditional popcount+OR it would skip.
    for (std::size_t i = 0; i < num_words_; ++i) {
      const std::uint64_t incoming = o[i] & ~w[i];
      added += static_cast<std::size_t>(std::popcount(incoming));
      w[i] |= o[i];
    }
    return OrDelta{added > 0, added};
  }

  /// Overwrite this with `other`'s contents and return `other`'s
  /// popcount, fused into the copy pass (the snapshot arena fills
  /// blocks with this so the cached count costs no second scan).
  /// Precondition: same size.
  std::size_t assign_and_count(const Bitset& other) {
    check_same(other);
    std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    std::size_t count = 0;
    for (std::size_t i = 0; i < num_words_; ++i) {
      const std::uint64_t x = o[i];
      w[i] = x;
      count += static_cast<std::size_t>(std::popcount(x));
    }
    return count;
  }

  /// In-place intersection. Precondition: same size.
  Bitset& operator&=(const Bitset& other) {
    check_same(other);
    std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    for (std::size_t i = 0; i < num_words_; ++i) w[i] &= o[i];
    return *this;
  }

  /// In-place difference (this \ other). Precondition: same size.
  Bitset& operator-=(const Bitset& other) {
    check_same(other);
    std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    for (std::size_t i = 0; i < num_words_; ++i) w[i] &= ~o[i];
    return *this;
  }

  friend Bitset operator|(Bitset a, const Bitset& b) { return a |= b; }
  friend Bitset operator&(Bitset a, const Bitset& b) { return a &= b; }

  bool operator==(const Bitset& other) const noexcept {
    return size_ == other.size_ &&
           std::equal(data(), data() + num_words_, other.data());
  }

  /// True iff every bit of this is also set in `other`.
  bool is_subset_of(const Bitset& other) const {
    check_same(other);
    const std::uint64_t* w = data();
    const std::uint64_t* o = other.data();
    for (std::size_t i = 0; i < num_words_; ++i)
      if ((w[i] & ~o[i]) != 0) return false;
    return true;
  }

  /// Index of the first set bit at or after `from`, or size() if none.
  std::size_t find_next(std::size_t from) const noexcept {
    if (from >= size_) return size_;
    const std::uint64_t* words = data();
    std::size_t word_index = from >> 6;
    std::uint64_t w = words[word_index] & (~std::uint64_t{0} << (from & 63));
    while (true) {
      if (w != 0) {
        std::size_t bit =
            (word_index << 6) + static_cast<std::size_t>(std::countr_zero(w));
        return bit < size_ ? bit : size_;
      }
      if (++word_index >= num_words_) return size_;
      w = words[word_index];
    }
  }

  std::size_t find_first() const noexcept { return find_next(0); }

  /// FNV-1a hash of the contents (used by the termination check to
  /// compare rumor sets by fingerprint instead of shipping whole sets).
  std::uint64_t hash() const noexcept {
    const std::uint64_t* w = data();
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < num_words_; ++i) {
      h ^= w[i];
      h *= 0x100000001b3ULL;
    }
    return h ^ size_;
  }

  /// Read-only view of the packed 64-bit words (bit i of the set lives
  /// at word i/64, bit i%64; bits past size() are zero). Lets callers —
  /// graph volume, conductance cut sweeps — iterate set words instead
  /// of individual bits.
  std::span<const std::uint64_t> words() const noexcept {
    return {data(), num_words_};
  }

  /// Indices of all set bits, ascending.
  std::vector<std::size_t> to_indices() const {
    std::vector<std::size_t> out;
    out.reserve(count());
    for (std::size_t i = find_first(); i < size_; i = find_next(i + 1))
      out.push_back(i);
    return out;
  }

 private:
  std::uint64_t* data() noexcept {
    return num_words_ > kInlineWords ? heap_ : inline_;
  }
  const std::uint64_t* data() const noexcept {
    return num_words_ > kInlineWords ? heap_ : inline_;
  }

  void check(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("Bitset index out of range");
  }
  void check_same(const Bitset& other) const {
    if (size_ != other.size_)
      throw std::invalid_argument("Bitset size mismatch");
  }
  /// Zero bits beyond size_ in the last word.
  void trim() noexcept {
    const std::size_t tail = size_ & 63;
    if (tail != 0 && num_words_ != 0)
      data()[num_words_ - 1] &= (std::uint64_t{1} << tail) - 1;
  }

  std::size_t size_ = 0;
  std::size_t num_words_ = 0;
  union {
    std::uint64_t inline_[kInlineWords];
    std::uint64_t* heap_;
  };
};

/// Starting rumor sets in which each of `n` nodes knows only its own id.
inline std::vector<Bitset> own_id_rumors(std::size_t n) {
  std::vector<Bitset> r(n, Bitset(n));
  for (std::size_t u = 0; u < n; ++u) r[u].set(u);
  return r;
}

}  // namespace latgossip
