#pragma once
// Low-overhead structured event recorder for simulation runs.
//
// The engine reports every observable event through a raw pointer in
// SimOptions: activations, deliveries, drops (link loss or
// crash-induced), and protocol phase boundaries. A recorder-free run
// still takes the compile-time NoHooks fast path; installing a recorder
// (or a scenario plan) is what moves a run onto the hooked path.
//
// Every recording call folds its events on arrival into the state the
// queries return: the per-kind counts, max_round, the monotone flag,
// the fingerprint, the delivery-latency histogram and the per-round
// in-flight deltas. That state costs O(rounds run), not O(events).
// Events arrive two ways:
//  * one per call (record_activation, record_delivery, record_drop and
//    the phase calls): the oracle, PhaseScope and tests;
//  * one call per drained calendar bucket (record_drained): the
//    engine. A folding recorder hashes each exchange record's
//    activation and both legs in one tight loop over records the engine
//    already holds, so no event is ever written out; the activations of
//    exchanges still in flight when a run ends arrive through
//    record_unfinished, and an initiation the in-degree cap rejects
//    arrives on its own.
//
// A recorder built with EventLog::kKeep also keeps every event, for the
// consumers that read the stream itself: the trace exports
// (obs/export.h), the checker's invariants and relabel harness, and the
// Lemma 3 reduction's replay. The engine sends it each activation at
// selection and the legs of each drained bucket, so its log holds the
// events in the order they happened. Its log grows with a large floor
// and a 4x factor (geometric 2x-from-tiny reallocation re-copies and
// re-faults the log). events() on a folding recorder throws.
//
// Multi-phase protocols (EID, T(k)) restart rounds at 0 per phase; the
// recorder detects the non-monotone stream and drops the in-flight
// deltas (counts and the fingerprint are unaffected). The engine
// brackets each run with begin_run()/end_run(): within one run the
// stream is monotone by construction, so a run keeps the stream
// monotone iff none of its events precedes the round the stream had
// reached before it, whatever order its buckets fold in.
//
// Thread safety: none. Use one recorder per trial; run_trials callbacks
// must not share a recorder across trials.

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
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

/// How one leg of an exchange ended, as the engine marks it in the
/// exchange's record. Zero is a delivery, so a record nothing marked
/// holds two delivered legs and scheduling writes a zero.
enum class LegOutcome : std::uint8_t {
  kDelivered = 0,  ///< EventKind::kDelivery
  kDropped = 1,    ///< EventKind::kDrop
  kCrashed = 2,    ///< EventKind::kCrashDrop
};

/// The event a leg's outcome records.
constexpr EventKind leg_event_kind(LegOutcome o) noexcept {
  static_assert(static_cast<int>(EventKind::kDrop) ==
                    static_cast<int>(EventKind::kDelivery) + 1 &&
                static_cast<int>(EventKind::kCrashDrop) ==
                    static_cast<int>(EventKind::kDelivery) + 2);
  return static_cast<EventKind>(static_cast<int>(EventKind::kDelivery) +
                                static_cast<int>(o));
}

/// One recorded event; 20 bytes packed, trivially copyable. A
/// log-keeping recorder stores one per event, so the layout is
/// deliberately narrow: rounds are stored as u32 (saturating at
/// 2^32-1 — far past any simulated run in this repo) and the kind
/// shares a word with the edge id (edges above 2^29-2 saturate to the
/// invalid sentinel; a graph that large would not fit in memory
/// anyway). Use the accessors; the raw fields are an implementation
/// detail of the packing.
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
  /// Observe `v` `times` times (none when `times` is 0), without a
  /// branch on either.
  void observe(std::uint64_t v, std::uint64_t times) noexcept {
    buckets_[bucket_of(v)] += times;
    count_ += times;
    sum_ += v * times;
    max_ = times != 0 && v > max_ ? v : max_;
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
  kFold,  ///< nothing: every event is folded as it arrives
  kKeep,  ///< every event, in the order it happened, for events()
};

class EventRecorder {
 public:
  explicit EventRecorder(EventLog log = EventLog::kFold) noexcept
      : keep_log_(log == EventLog::kKeep) {}

  /// True for an EventLog::kKeep recorder.
  bool keeps_log() const noexcept { return keep_log_; }

  // --- recording, one event per call ----------------------------------

  void record_activation(NodeId u, NodeId v, EdgeId e, Round r) {
    add(Event::make(r, r, u, v, e, EventKind::kActivation));
  }
  void record_delivery(NodeId to, NodeId from, EdgeId e, Round start,
                       Round now) {
    add(Event::make(now, start, to, from, e, EventKind::kDelivery));
  }
  void record_drop(NodeId to, NodeId from, EdgeId e, Round start, Round now,
                   bool crash) {
    add(Event::make(now, start, to, from, e,
                    crash ? EventKind::kCrashDrop : EventKind::kDrop));
  }

  /// Intern `name` and open a phase at virtual time `clock` (phases use
  /// the composite context's cumulative clock, not per-run rounds; see
  /// obs/metrics.h PhaseScope).
  void record_phase_begin(std::string_view name, Round clock) {
    add(Event::make(clock, clock, intern_phase(name), kInvalidNode,
                    kInvalidEdge, EventKind::kPhaseBegin));
  }
  void record_phase_end(std::string_view name, Round clock) {
    add(Event::make(clock, clock, intern_phase(name), kInvalidNode,
                    kInvalidEdge, EventKind::kPhaseEnd));
  }

  // --- recording, one call per drained bucket (the engine) ------------
  //
  // `Exchange` is the engine's calendar record: u (the initiator), peer
  // (the responder), edge, start (the initiation round), and
  // push_outcome and pull_outcome, how each leg ended.

  /// A run starts. Until end_run(), events belong to one engine run,
  /// whose stream is round-monotone by construction.
  void begin_run() noexcept {
    in_run_ = true;
    run_last_ = -1;
  }
  /// The run has ended, on any exit path: the stream has reached the
  /// latest round the run recorded.
  void end_run() noexcept {
    in_run_ = false;
    if (run_last_ >= 0) last_round_ = run_last_;
  }

  /// Round `now`'s bucket has drained: each record landed as its push
  /// leg (to peer) and then its response leg (to u). A log-keeping
  /// recorder appends both legs, having taken the activation at
  /// selection; a folding one folds each record's activation and both
  /// legs in one pass, accumulating in locals so independent hash
  /// chains pipeline. Called between begin_run() and end_run().
  template <typename Exchange>
  void record_drained(std::span<const Exchange> drained, Round now) {
    if (drained.empty()) return;
    if (keep_log_) {
      for (const Exchange& x : drained) {
        add(Event::make(now, x.start, x.peer, x.u, x.edge,
                        leg_event_kind(x.push_outcome)));
        add(Event::make(now, x.start, x.u, x.peer, x.edge,
                        leg_event_kind(x.pull_outcome)));
      }
      return;
    }
    const auto last = static_cast<Round>(Event::sat_round(now));
    // Size the deltas first, so a failed allocation folds nothing.
    const bool deltas = monotone_;
    if (deltas) reserve_deltas(last);
    std::int64_t* const delta = inflight_delta_.data();
    Fingerprint fp;
    Histogram latency;
    std::size_t delivered = 0;
    std::size_t dropped = 0;
    Round first = last;
    for (const Exchange& x : drained) {
      const Event act = activation_of(x);
      fp.add(act.hash());
      fp.add(Event::make(now, x.start, x.peer, x.u, x.edge,
                         leg_event_kind(x.push_outcome))
                 .hash());
      fp.add(Event::make(now, x.start, x.u, x.peer, x.edge,
                         leg_event_kind(x.pull_outcome))
                 .hash());
      const Round start = act.round();
      first = start < first ? start : first;
      const std::size_t landed =
          static_cast<std::size_t>(x.push_outcome == LegOutcome::kDelivered) +
          static_cast<std::size_t>(x.pull_outcome == LegOutcome::kDelivered);
      delivered += landed;
      dropped +=
          static_cast<std::size_t>(x.push_outcome == LegOutcome::kDropped) +
          static_cast<std::size_t>(x.pull_outcome == LegOutcome::kDropped);
      latency.observe(static_cast<std::uint64_t>(last - start), landed);
      if (deltas) delta[static_cast<std::size_t>(start)] += 2;
    }
    const std::size_t legs = 2 * drained.size();
    kind_counts_[kind_index(EventKind::kActivation)] += drained.size();
    kind_counts_[kind_index(EventKind::kDelivery)] += delivered;
    kind_counts_[kind_index(EventKind::kDrop)] += dropped;
    kind_counts_[kind_index(EventKind::kCrashDrop)] +=
        legs - delivered - dropped;
    fingerprint_.merge(fp);
    latency_.merge(latency);
    if (deltas)
      delta[static_cast<std::size_t>(last)] -= static_cast<std::int64_t>(legs);
    note_rounds(first, last);
  }

  /// Exchanges still in flight as a run ends never land. A folding
  /// recorder folds their activations; a log-keeping one took them at
  /// selection. Allocates nothing, so the engine calls it while
  /// unwinding too.
  template <typename Exchange>
  void record_unfinished(std::span<const Exchange> pending) noexcept {
    if (keep_log_ || pending.empty()) return;
    Fingerprint fp;
    Round first = activation_of(pending.front()).round();
    Round last = first;
    for (const Exchange& x : pending) {
      const Event act = activation_of(x);
      fp.add(act.hash());
      first = act.round() < first ? act.round() : first;
      last = act.round() > last ? act.round() : last;
    }
    kind_counts_[kind_index(EventKind::kActivation)] += pending.size();
    fingerprint_.merge(fp);
    note_rounds(first, last);
  }

  // --- queries --------------------------------------------------------

  /// Every event since construction or clear(), in the order it
  /// happened. Only an EventLog::kKeep recorder has them; a folding one
  /// throws std::logic_error.
  const std::vector<Event>& events() const {
    if (!keep_log_)
      throw std::logic_error(
          "EventRecorder::events(): this recorder folds its events; "
          "construct it with EventLog::kKeep to read them");
    return events_;
  }
  /// Events recorded.
  std::size_t size() const noexcept {
    std::size_t total = 0;
    for (const std::size_t c : kind_counts_) total += c;
    return total;
  }
  bool empty() const noexcept { return size() == 0; }

  std::size_t count(EventKind kind) const noexcept {
    return kind_counts_[kind_index(kind)];
  }
  std::size_t activations() const noexcept {
    return count(EventKind::kActivation);
  }
  std::size_t deliveries() const noexcept {
    return count(EventKind::kDelivery);
  }
  /// Drops of both flavors (link loss + crash loss) — matches
  /// SimResult::messages_dropped.
  std::size_t drops() const noexcept {
    return count(EventKind::kDrop) + count(EventKind::kCrashDrop);
  }

  /// Phase names in interning order; Event::a for phase events indexes
  /// into this list.
  const std::vector<std::string>& phase_names() const { return phase_names_; }
  std::string_view phase_name(NodeId id) const {
    return id < phase_names_.size() ? std::string_view(phase_names_[id])
                                    : std::string_view("?");
  }

  /// True while the events, in the order they happened, have rounds in
  /// nondecreasing order (one run_gossip execution).
  bool round_monotone() const noexcept { return monotone_; }

  /// Largest round seen across all events (0 when empty).
  Round max_round() const noexcept { return max_round_; }

  /// Delivery latencies (completion - initiation), one sample per
  /// delivery.
  const Histogram& delivery_latency() const noexcept { return latency_; }

  /// In-flight exchange depth, one sample per round in [0, max_round()]:
  /// deliveries and drops each count from their initiation round up to,
  /// not including, their completion round. Empty when the stream is not
  /// round-monotone or holds no delivery or drop.
  std::optional<Histogram> inflight_depth() const {
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

  /// Bytes held for the log and the in-flight deltas: capacity, not use.
  std::size_t reserved_bytes() const noexcept {
    return events_.capacity() * sizeof(Event) +
           inflight_delta_.capacity() * sizeof(std::int64_t);
  }

  // --- fingerprint ----------------------------------------------------

  /// Order-insensitive digest over every event recorded so far (see
  /// obs/fingerprint.h). Phase events hash their interned name id, so
  /// two streams differing only in phase labels differ in digest.
  std::uint64_t fingerprint() const noexcept { return fingerprint_.digest(); }
  const Fingerprint& fingerprint_state() const noexcept { return fingerprint_; }

  /// Forget every event. The log keeps its storage, so a recorder reused
  /// across trials allocates nothing. In-flight deltas beyond
  /// kDeltasKept rounds are released, as the engine's workspace gives up
  /// a ring far larger than it needs: a pool worker must not hold one
  /// very long run's deltas (a serve query with a large latency) for its
  /// lifetime, and the next run's length is unknown.
  void clear() {
    events_.clear();
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
    in_run_ = false;
    run_last_ = -1;
  }

 private:
  /// A logging recorder's first reservation; afterwards it grows 4x.
  static constexpr std::size_t kReserveFloor = std::size_t{1} << 16;
  /// In-flight delta rounds that clear() keeps (the engine ring's 2^16).
  static constexpr std::size_t kDeltasKept = std::size_t{1} << 16;

  static constexpr std::size_t kind_index(EventKind kind) noexcept {
    return static_cast<std::size_t>(kind);
  }

  template <typename Exchange>
  static Event activation_of(const Exchange& x) noexcept {
    return Event::make(x.start, x.start, x.u, x.peer, x.edge,
                       EventKind::kActivation);
  }

  /// Fold one event (and keep it, for a log-keeping recorder).
  void add(const Event& e) {
    if (keep_log_) {
      if (events_.size() == events_.capacity())
        events_.reserve(events_.capacity() < kReserveFloor
                            ? kReserveFloor
                            : events_.capacity() * 4);
      events_.push_back(e);
    }
    const EventKind kind = e.kind();
    const Round r = e.round();
    ++kind_counts_[kind_index(kind)];
    fingerprint_.add(e.hash());
    note_rounds(r, r);
    // Deliveries and drops: the latency of each delivery and, while the
    // stream is monotone, per-round deltas (+1 at initiation, -1 at
    // completion).
    if (kind == EventKind::kActivation || kind > EventKind::kCrashDrop)
      return;
    if (kind == EventKind::kDelivery)
      latency_.observe(static_cast<std::uint64_t>(r - e.start()));
    if (!monotone_) return;
    reserve_deltas(std::max(r, e.start()));
    ++inflight_delta_[static_cast<std::size_t>(e.start())];
    --inflight_delta_[static_cast<std::size_t>(r)];
  }

  /// Events with rounds in [first, last] arrived. They keep the stream
  /// monotone iff none precedes the round it had reached (before the
  /// current run, inside one); the stream then reaches `last`.
  void note_rounds(Round first, Round last) noexcept {
    if (last > max_round_) max_round_ = last;
    if (monotone_ && first < last_round_) {
      monotone_ = false;
      inflight_delta_.clear();
    }
    if (!in_run_)
      last_round_ = last;
    else if (last > run_last_)
      run_last_ = last;
  }

  /// A delta slot for every round up to `r`.
  void reserve_deltas(Round r) {
    if (inflight_delta_.size() <= static_cast<std::size_t>(r))
      inflight_delta_.resize(static_cast<std::size_t>(r) + 1, 0);
  }

  NodeId intern_phase(std::string_view name) {
    for (std::size_t i = 0; i < phase_names_.size(); ++i)
      if (phase_names_[i] == name) return static_cast<NodeId>(i);
    phase_names_.emplace_back(name);
    return static_cast<NodeId>(phase_names_.size() - 1);
  }

  bool keep_log_;
  std::vector<Event> events_;  ///< the log (kKeep only)
  std::vector<std::string> phase_names_;
  // Folded state.
  std::array<std::size_t, kNumEventKinds> kind_counts_{};
  Fingerprint fingerprint_;
  Histogram latency_;
  /// Index r: initiations minus completions in round r (monotone only).
  std::vector<std::int64_t> inflight_delta_;
  bool monotone_ = true;
  Round max_round_ = 0;
  /// The round the stream has reached: of the last event outside a run,
  /// and the stream's round before it inside one.
  Round last_round_ = 0;
  bool in_run_ = false;
  Round run_last_ = -1;  ///< latest round of the current run; -1: none
};

}  // namespace latgossip
