#pragma once
// Low-overhead structured event recorder for simulation runs.
//
// A flat append-only binary event log covering every observable engine
// event: activations, deliveries, drops (link loss or crash-induced),
// and protocol phase boundaries. The engine writes events directly
// through a raw pointer in SimOptions, and a recorder-free run still
// takes the compile-time NoHooks fast path — installing a recorder (or
// a scenario plan) is what moves a run onto the hooked path.
//
// The record path is a bare push_back: per-kind counts, max_round, the
// monotone flag, and the fingerprint are derived lazily by a tight
// catch-up pass over the not-yet-scanned suffix the first time a query
// needs them, and the (round, offset) boundary index by a second
// on-demand pass (amortized one scan each, however queries and appends
// interleave). Appends grow capacity with a large floor and a 4x
// factor — geometric 2x-from-tiny reallocation is what dominated the
// hot path otherwise (each doubling re-copies and re-faults the log).
//
// Queries are indexed: events append in nondecreasing round order
// within one run_gossip() execution, and the recorder maintains a
// (round, offset) boundary list, so activations_in_round() is a binary
// search plus a scan of that round's events and per_edge_counts() is
// one linear pass. Multi-phase protocols (EID, T(k)) restart rounds at
// 0 per phase; the recorder detects the non-monotone round and falls
// back to full scans for round-indexed queries (counts and the
// fingerprint are unaffected).
//
// Thread safety: none. Use one recorder per trial; run_trials callbacks
// must not share a recorder across trials.

#include <array>
#include <cstddef>
#include <cstdint>
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

  bool operator==(const Event&) const = default;

  std::uint32_t round_ = 0;  ///< round the event happened (delivery:
                             ///< completion), saturated to u32
  std::uint32_t start_ = 0;  ///< initiation round (deliveries/drops)
  NodeId a_ = kInvalidNode;  ///< initiator / receiver / phase id
  NodeId b_ = kInvalidNode;  ///< responder / sender
  std::uint32_t edge_kind_ = 0;  ///< kind in bits 31..29, edge below
};
static_assert(sizeof(Event) == 20);

class EventRecorder {
 public:
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

  const std::vector<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  std::size_t count(EventKind kind) const {
    refresh_stats();
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

  /// Number of activations in round r: O(log R + events in round r)
  /// while the event stream is round-monotone, full scan otherwise.
  std::size_t activations_in_round(Round r) const {
    refresh_stats();
    std::size_t c = 0;
    if (monotone_) {
      refresh_index();
      const auto [lo, hi] = round_range(r);
      for (std::size_t i = lo; i < hi; ++i)
        if (events_[i].kind() == EventKind::kActivation) ++c;
    } else {
      for (const Event& e : events_)
        if (e.kind() == EventKind::kActivation && e.round() == r) ++c;
    }
    return c;
  }

  /// Activation counts per edge, indexable by EdgeId. One linear pass.
  std::vector<std::size_t> per_edge_counts(std::size_t num_edges) const {
    std::vector<std::size_t> counts(num_edges, 0);
    for (const Event& e : events_)
      if (e.kind() == EventKind::kActivation && e.edge() < num_edges)
        ++counts[e.edge()];
    return counts;
  }

  /// True while events have appended in nondecreasing round order (one
  /// run_gossip execution); round-indexed queries are then indexed.
  bool round_monotone() const {
    refresh_stats();
    return monotone_;
  }

  /// Largest round seen across all events (0 when empty).
  Round max_round() const {
    refresh_stats();
    return max_round_;
  }

  // --- fingerprint ----------------------------------------------------

  /// Order-insensitive digest over every event recorded so far (see
  /// obs/fingerprint.h). Phase events hash their interned name id, so
  /// two streams differing only in phase labels differ in digest.
  std::uint64_t fingerprint() const {
    refresh_stats();
    return fingerprint_.digest();
  }
  const Fingerprint& fingerprint_state() const {
    refresh_stats();
    return fingerprint_;
  }

  void clear() {
    events_.clear();
    round_starts_.clear();
    kind_counts_.fill(0);
    phase_names_.clear();
    fingerprint_.reset();
    monotone_ = true;
    max_round_ = 0;
    last_round_ = 0;
    stats_cursor_ = 0;
    index_cursor_ = 0;
  }

 private:
  /// First reservation covers most runs outright; afterwards grow 4x.
  static constexpr std::size_t kReserveFloor = std::size_t{1} << 16;

  void append(const Event& e) {
    if (events_.size() == events_.capacity())
      events_.reserve(events_.capacity() < kReserveFloor
                          ? kReserveFloor
                          : events_.capacity() * 4);
    events_.push_back(e);
  }

  /// Catch counts, max_round, the monotone flag, and the fingerprint up
  /// to the end of the log. Deliberately branch-light so independent
  /// per-event hash chains pipeline; each event is processed once no
  /// matter how appends and queries interleave. Logically const — every
  /// derived member is mutable.
  void refresh_stats() const {
    const std::size_t n = events_.size();
    if (stats_cursor_ >= n) return;
    // Accumulate in locals: folding straight into the mutable members
    // would chain every iteration through the same memory slots and
    // serialize the loop on store-to-load forwarding.
    std::array<std::size_t, kNumEventKinds> counts{};
    Fingerprint fp;
    bool mono = monotone_;
    Round maxr = max_round_;
    Round last = last_round_;
    for (std::size_t i = stats_cursor_; i < n; ++i) {
      const Event& e = events_[i];
      const Round r = e.round();
      ++counts[static_cast<std::size_t>(e.kind())];
      mono = mono && r >= last;
      last = r;
      maxr = r > maxr ? r : maxr;
      fp.add(fp_hash3(
          (static_cast<std::uint64_t>(r) << 3) |
              static_cast<std::uint64_t>(e.kind()),
          (static_cast<std::uint64_t>(e.a()) << 32) | e.b(),
          (static_cast<std::uint64_t>(e.edge()) << 32) |
              static_cast<std::uint64_t>(
                  static_cast<std::uint32_t>(e.start()))));
    }
    for (std::size_t k = 0; k < kNumEventKinds; ++k)
      kind_counts_[k] += counts[k];
    fingerprint_.merge(fp);
    monotone_ = mono;
    max_round_ = maxr;
    last_round_ = last;
    stats_cursor_ = n;
  }

  /// Catch the (round, offset) boundary index up. Only meaningful while
  /// the stream is monotone; requires refresh_stats() to have run.
  void refresh_index() const {
    if (!monotone_) return;
    for (; index_cursor_ < events_.size(); ++index_cursor_) {
      const Round r = events_[index_cursor_].round();
      if (round_starts_.empty() || round_starts_.back().round != r)
        round_starts_.push_back({r, index_cursor_});
    }
  }

  /// [first, last) event offsets for round r (monotone streams only).
  std::pair<std::size_t, std::size_t> round_range(Round r) const {
    // Binary search the boundary list for the first entry with round >= r.
    std::size_t lo = 0, hi = round_starts_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (round_starts_[mid].round < r)
        lo = mid + 1;
      else
        hi = mid;
    }
    if (lo == round_starts_.size() || round_starts_[lo].round != r)
      return {0, 0};
    const std::size_t first = round_starts_[lo].offset;
    const std::size_t last = lo + 1 < round_starts_.size()
                                 ? round_starts_[lo + 1].offset
                                 : events_.size();
    return {first, last};
  }

  NodeId intern_phase(std::string_view name) {
    for (std::size_t i = 0; i < phase_names_.size(); ++i)
      if (phase_names_[i] == name) return static_cast<NodeId>(i);
    phase_names_.emplace_back(name);
    return static_cast<NodeId>(phase_names_.size() - 1);
  }

  struct RoundStart {
    Round round;
    std::size_t offset;
  };

  std::vector<Event> events_;
  std::vector<std::string> phase_names_;
  // Derived state, maintained lazily by refresh() (see above).
  mutable std::vector<RoundStart> round_starts_;
  mutable std::array<std::size_t, kNumEventKinds> kind_counts_{};
  mutable Fingerprint fingerprint_;
  mutable bool monotone_ = true;
  mutable Round max_round_ = 0;
  mutable Round last_round_ = 0;
  mutable std::size_t stats_cursor_ = 0;
  mutable std::size_t index_cursor_ = 0;
};

}  // namespace latgossip
