#pragma once
// Low-overhead structured event recorder for simulation runs.
//
// The engine reports every observable event through a raw pointer in
// SimOptions: activations, deliveries, drops (link loss or
// crash-induced), and protocol phase boundaries. A recorder-free run
// still takes the compile-time NoHooks fast path; installing a recorder
// (or a scenario plan) is what moves a run onto the hooked path.
//
// A recorder folds each event into the state its queries return: the
// per-kind counts, max_round, the monotone flag, the fingerprint, the
// delivery-latency histogram and the per-round in-flight deltas. That
// state costs O(rounds run), not O(events): by default events land in
// one fixed block of kBlock packed events, which the fold empties each
// time it fills. The fold is a tight pass that accumulates in locals,
// so independent per-event hash chains pipeline; each event is folded
// once however appends and queries interleave.
//
// A recorder built with EventLog::kKeep also keeps every event, for the
// consumers that read the stream itself: the trace exports
// (obs/export.h), the checker's invariants and relabel harness, and the
// Lemma 3 reduction's replay. Its log grows with a large floor and a 4x
// factor (geometric 2x-from-tiny reallocation re-copies and re-faults
// the log). events() on a folding recorder throws.
//
// Multi-phase protocols (EID, T(k)) restart rounds at 0 per phase; the
// recorder detects the non-monotone stream and drops the in-flight
// deltas (counts and the fingerprint are unaffected).
//
// Thread safety: none. Use one recorder per trial; run_trials callbacks
// must not share a recorder across trials.

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "obs/fingerprint.h"

namespace latgossip {

enum class EventKind : std::uint8_t {
  kActivation = 0,  ///< a initiated an exchange with b over edge
  kDelivery = 1,    ///< a received b's payload (initiated at start)
  kDrop = 2,        ///< delivery to a from b lost to link failure
  kCrashDrop = 3,   ///< delivery to a from b lost to a crashed endpoint
  kPhaseBegin = 4,  ///< protocol phase opened (a = phase id)
  kPhaseEnd = 5,    ///< protocol phase closed (a = phase id)
};
inline constexpr std::size_t kNumEventKinds = 6;

/// One recorded event; 20 bytes packed, trivially copyable. Recording
/// cost is dominated by raw memory traffic (the hot path is a bare
/// append of this struct), so the layout is deliberately narrow:
/// rounds are stored as u32 (saturating at 2^32-1 — far past any
/// simulated run in this repo) and the kind shares a word with the
/// edge id (edges above 2^29-2 saturate to the invalid sentinel; a
/// graph that large would not fit in memory anyway). Use the accessors;
/// the raw fields are an implementation detail of the packing.
struct Event {
  static constexpr std::uint32_t kEdgeMask = (std::uint32_t{1} << 29) - 1;

  static std::uint32_t sat_round(Round r) noexcept {
    return r >= static_cast<Round>(UINT32_MAX)
               ? UINT32_MAX
               : static_cast<std::uint32_t>(r < 0 ? 0 : r);
  }

  static Event make(Round round, Round start, NodeId a, NodeId b, EdgeId edge,
                    EventKind kind) noexcept {
    const std::uint32_t packed_edge =
        edge >= kEdgeMask ? kEdgeMask : static_cast<std::uint32_t>(edge);
    return Event{sat_round(round), sat_round(start), a, b,
                 (static_cast<std::uint32_t>(kind) << 29) | packed_edge};
  }

  Round round() const noexcept { return static_cast<Round>(round_); }
  Round start() const noexcept { return static_cast<Round>(start_); }
  NodeId a() const noexcept { return a_; }
  NodeId b() const noexcept { return b_; }
  EdgeId edge() const noexcept {
    const std::uint32_t e = edge_kind_ & kEdgeMask;
    return e == kEdgeMask ? kInvalidEdge : e;
  }
  EventKind kind() const noexcept {
    return static_cast<EventKind>(edge_kind_ >> 29);
  }

  /// The event's contribution to the run fingerprint. The packing is
  /// part of every pinned digest: the round shares a word with the kind,
  /// the two endpoints share one, and the edge shares one with the
  /// initiation round. Phase events hash their interned name id.
  std::uint64_t hash() const noexcept {
    return fp_hash3((static_cast<std::uint64_t>(round()) << 3) |
                        static_cast<std::uint64_t>(kind()),
                    (static_cast<std::uint64_t>(a()) << 32) | b(),
                    (static_cast<std::uint64_t>(edge()) << 32) | start_);
  }

  bool operator==(const Event&) const = default;

  std::uint32_t round_ = 0;  ///< round the event happened (delivery:
                             ///< completion), saturated to u32
  std::uint32_t start_ = 0;  ///< initiation round (deliveries/drops)
  NodeId a_ = kInvalidNode;  ///< initiator / receiver / phase id
  NodeId b_ = kInvalidNode;  ///< responder / sender
  std::uint32_t edge_kind_ = 0;  ///< kind in bits 31..29, edge below
};
static_assert(sizeof(Event) == 20);

/// Log2-bucket histogram for nonnegative integer samples. Bucket 0
/// counts exact zeros; bucket b >= 1 counts values in [2^(b-1), 2^b).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void observe(std::uint64_t v) noexcept {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
  }

  /// Add every sample of `other`, as if each had been observed here.
  void merge(const Histogram& other) noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
  }

  static std::size_t bucket_of(std::uint64_t v) noexcept {
    return v == 0 ? 0 : static_cast<std::size_t>(64 - std::countl_zero(v));
  }
  /// Inclusive lower bound of bucket b.
  static std::uint64_t bucket_lo(std::size_t b) noexcept {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  std::uint64_t bucket(std::size_t b) const noexcept { return buckets_[b]; }
  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t sum() const noexcept { return sum_; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// What a recorder keeps besides its folded state.
enum class EventLog : std::uint8_t {
  kFold,  ///< nothing: events are folded a block at a time
  kKeep,  ///< every event, in record order, for events()
};

class EventRecorder {
 public:
  /// Events a folding recorder holds before it folds them: 80 KiB, small
  /// enough to stay in cache and to fill (and so be reused) within one
  /// short trial.
  static constexpr std::size_t kBlock = std::size_t{1} << 12;

  explicit EventRecorder(EventLog log = EventLog::kFold) noexcept
      : keep_log_(log == EventLog::kKeep) {}

  // --- recording (called from the engine's hooked event loop) ---------

  void record_activation(NodeId u, NodeId v, EdgeId e, Round r) {
    append(Event::make(r, r, u, v, e, EventKind::kActivation));
  }
  void record_delivery(NodeId to, NodeId from, EdgeId e, Round start,
                       Round now) {
    append(Event::make(now, start, to, from, e, EventKind::kDelivery));
  }
  void record_drop(NodeId to, NodeId from, EdgeId e, Round start, Round now,
                   bool crash) {
    append(Event::make(now, start, to, from, e,
                       crash ? EventKind::kCrashDrop : EventKind::kDrop));
  }

  /// Intern `name` and open a phase at virtual time `clock` (phases use
  /// the MetricsRegistry's cumulative clock, not per-run rounds; see
  /// obs/metrics.h PhaseScope).
  void record_phase_begin(std::string_view name, Round clock) {
    append(Event::make(clock, clock, intern_phase(name), kInvalidNode,
                       kInvalidEdge, EventKind::kPhaseBegin));
  }
  void record_phase_end(std::string_view name, Round clock) {
    append(Event::make(clock, clock, intern_phase(name), kInvalidNode,
                       kInvalidEdge, EventKind::kPhaseEnd));
  }

  // --- queries --------------------------------------------------------

  /// Every event since construction or clear(), in record order. Only an
  /// EventLog::kKeep recorder has them; a folding one throws
  /// std::logic_error.
  const std::vector<Event>& events() const {
    if (!keep_log_)
      throw std::logic_error(
          "EventRecorder::events(): this recorder folds its events; "
          "construct it with EventLog::kKeep to read them");
    return events_;
  }
  /// Events recorded, folded ones included.
  std::size_t size() const noexcept { return folded_ + events_.size(); }
  bool empty() const noexcept { return size() == 0; }

  std::size_t count(EventKind kind) const {
    refresh();
    return kind_counts_[static_cast<std::size_t>(kind)];
  }
  std::size_t activations() const { return count(EventKind::kActivation); }
  std::size_t deliveries() const { return count(EventKind::kDelivery); }
  /// Drops of both flavors (link loss + crash loss) — matches
  /// SimResult::messages_dropped.
  std::size_t drops() const {
    return count(EventKind::kDrop) + count(EventKind::kCrashDrop);
  }

  /// Phase names in interning order; Event::a for phase events indexes
  /// into this list.
  const std::vector<std::string>& phase_names() const { return phase_names_; }
  std::string_view phase_name(NodeId id) const {
    return id < phase_names_.size() ? std::string_view(phase_names_[id])
                                    : std::string_view("?");
  }

  /// True while events have appended in nondecreasing round order (one
  /// run_gossip execution).
  bool round_monotone() const {
    refresh();
    return monotone_;
  }

  /// Largest round seen across all events (0 when empty).
  Round max_round() const {
    refresh();
    return max_round_;
  }

  /// Delivery latencies (completion - initiation), one sample per
  /// delivery.
  const Histogram& delivery_latency() const {
    refresh();
    return latency_;
  }

  /// In-flight exchange depth, one sample per round in [0, max_round()]:
  /// deliveries and drops each count from their initiation round up to,
  /// not including, their completion round. Empty when the stream is not
  /// round-monotone or holds no delivery or drop.
  std::optional<Histogram> inflight_depth() const {
    refresh();
    if (!monotone_ || count(EventKind::kDelivery) + drops() == 0)
      return std::nullopt;
    Histogram depth;
    std::int64_t inflight = 0;
    for (std::size_t r = 0; r <= static_cast<std::size_t>(max_round_); ++r) {
      if (r < inflight_delta_.size()) inflight += inflight_delta_[r];
      depth.observe(static_cast<std::uint64_t>(inflight));
    }
    return depth;
  }

  /// Bytes held for events (the block or the log) and in-flight deltas:
  /// capacity, not use.
  std::size_t reserved_bytes() const noexcept {
    return events_.capacity() * sizeof(Event) +
           inflight_delta_.capacity() * sizeof(std::int64_t);
  }

  // --- fingerprint ----------------------------------------------------

  /// Order-insensitive digest over every event recorded so far (see
  /// obs/fingerprint.h). Phase events hash their interned name id, so
  /// two streams differing only in phase labels differ in digest.
  std::uint64_t fingerprint() const {
    refresh();
    return fingerprint_.digest();
  }
  const Fingerprint& fingerprint_state() const {
    refresh();
    return fingerprint_;
  }

  /// Forget every event. The event block (or log) keeps its storage, so
  /// a recorder reused across trials allocates nothing. In-flight deltas
  /// beyond kDeltasKept rounds are released, as the engine's workspace
  /// gives up a ring far larger than it needs: a pool worker must not
  /// hold one very long run's deltas (a serve query with a large
  /// latency) for its lifetime, and the next run's length is unknown.
  void clear() {
    events_.clear();
    folded_ = 0;
    cursor_ = 0;
    kind_counts_.fill(0);
    phase_names_.clear();
    fingerprint_.reset();
    latency_ = Histogram{};
    if (inflight_delta_.capacity() > kDeltasKept)
      inflight_delta_ = std::vector<std::int64_t>();
    else
      inflight_delta_.clear();
    monotone_ = true;
    max_round_ = 0;
    last_round_ = 0;
  }

 private:
  /// A logging recorder's first reservation; afterwards it grows 4x.
  static constexpr std::size_t kReserveFloor = std::size_t{1} << 16;
  /// In-flight delta rounds that clear() keeps (the engine ring's 2^16).
  static constexpr std::size_t kDeltasKept = std::size_t{1} << 16;

  void append(const Event& e) {
    if (events_.size() == events_.capacity()) make_room();
    events_.push_back(e);
  }

  /// A full log grows; a full block is folded and emptied.
  void make_room() {
    if (keep_log_) {
      events_.reserve(events_.capacity() < kReserveFloor
                          ? kReserveFloor
                          : events_.capacity() * 4);
    } else if (events_.capacity() == 0) {
      events_.reserve(kBlock);
    } else {
      refresh();
      folded_ += events_.size();
      events_.clear();
      cursor_ = 0;
    }
  }

  /// Fold the events not yet folded, a block at a time, so the in-flight
  /// pass re-reads events still in cache. Logically const: every folded
  /// member is mutable.
  void refresh() const {
    const std::size_t n = events_.size();
    for (; cursor_ < n; cursor_ = std::min(n, cursor_ + kBlock))
      fold(events_.data() + cursor_,
           events_.data() + std::min(n, cursor_ + kBlock));
  }

  void fold(const Event* first, const Event* last) const {
    // Accumulate in locals: folding straight into the mutable members
    // would chain every iteration through the same memory slots and
    // serialize the loop on store-to-load forwarding. The pass over
    // every event is branch-free, so independent hash chains pipeline.
    std::array<std::size_t, kNumEventKinds> counts{};
    Fingerprint fp;
    bool mono = monotone_;
    Round maxr = max_round_;
    Round prev = last_round_;
    for (const Event* e = first; e != last; ++e) {
      const Round r = e->round();
      ++counts[static_cast<std::size_t>(e->kind())];
      mono = mono && r >= prev;
      prev = r;
      maxr = r > maxr ? r : maxr;
      fp.add(e->hash());
    }
    for (std::size_t k = 0; k < kNumEventKinds; ++k)
      kind_counts_[k] += counts[k];
    fingerprint_.merge(fp);
    monotone_ = mono;
    max_round_ = maxr;
    last_round_ = prev;

    // Deliveries and drops: the latency of each delivery and, while the
    // stream is monotone, per-round deltas (+1 at initiation, -1 at
    // completion; every completion round is then at most maxr).
    if (!mono)
      inflight_delta_.clear();
    else if (inflight_delta_.size() <= static_cast<std::size_t>(maxr))
      inflight_delta_.resize(static_cast<std::size_t>(maxr) + 1, 0);
    Histogram latency;
    for (const Event* e = first; e != last; ++e) {
      const EventKind kind = e->kind();
      if (kind == EventKind::kActivation || kind > EventKind::kCrashDrop)
        continue;
      if (kind == EventKind::kDelivery)
        latency.observe(static_cast<std::uint64_t>(e->round() - e->start()));
      if (!mono) continue;
      const auto start = static_cast<std::size_t>(e->start());
      if (start >= inflight_delta_.size()) [[unlikely]]
        inflight_delta_.resize(start + 1, 0);
      ++inflight_delta_[start];
      --inflight_delta_[static_cast<std::size_t>(e->round())];
    }
    latency_.merge(latency);
  }

  NodeId intern_phase(std::string_view name) {
    for (std::size_t i = 0; i < phase_names_.size(); ++i)
      if (phase_names_[i] == name) return static_cast<NodeId>(i);
    phase_names_.emplace_back(name);
    return static_cast<NodeId>(phase_names_.size() - 1);
  }

  bool keep_log_;
  /// The log (kKeep), or the current block (kFold); events_[cursor_, end)
  /// are not folded yet.
  std::vector<Event> events_;
  std::size_t folded_ = 0;  ///< events folded and dropped from events_
  std::vector<std::string> phase_names_;
  // Folded state, caught up by refresh() (see above).
  mutable std::size_t cursor_ = 0;
  mutable std::array<std::size_t, kNumEventKinds> kind_counts_{};
  mutable Fingerprint fingerprint_;
  mutable Histogram latency_;
  /// Index r: initiations minus completions in round r (monotone only).
  mutable std::vector<std::int64_t> inflight_delta_;
  mutable bool monotone_ = true;
  mutable Round max_round_ = 0;
  mutable Round last_round_ = 0;
};

}  // namespace latgossip
