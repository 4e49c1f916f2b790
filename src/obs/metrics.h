#pragma once
// Named metrics registry, protocol phase attribution, and the one
// context every composite algorithm takes.
//
// A MetricsRegistry holds named monotonic counters and log2-bucket
// histograms (Histogram, in obs/recorder.h, whose recorder folds two of
// them), plus per-phase simulation accounting. Protocols tag their
// phases with a PhaseScope RAII guard, and run each internal
// simulation through run_in_context() (sim/dispatch.h):
//
//   PhaseScope phase(ctx, "eid/local_broadcast");
//   const SimResult sim = run_in_context(g, proto, ctx, bound);
//
// A run's cost goes to the innermost open phase, and its rounds to the
// context's clock. Multi-phase protocols restart engine rounds at 0 in
// every run, so the clock — the sum of every run's rounds — is the
// virtual timeline phase boundaries are stamped with (and what the
// Chrome trace export uses as timestamps).
//
// CompositeContext bundles what a composite's internal runs share: the
// event recorder, the metrics registry, the per-thread workspace, the
// round budget and the clock. Every member is optional; a null
// CompositeContext* runs each phase bare (no recording, no budget).
// Like the recorder, a context and a registry are not thread-safe: use
// one per trial.
//
// Phase accounting answers the paper's per-phase questions directly:
// Theorem 19/20's O(D log^3 n) EID cost splits into discovery /
// spanner / broadcast phases, and per-phase payload_bits mirrors the
// small-message budgets of Dufoulon et al. (see PAPERS.md).

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "obs/recorder.h"
#include "sim/freshness.h"
#include "sim/metrics.h"

namespace latgossip {

/// Monotonic named counter.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Simulation cost attributed to one named protocol phase.
struct PhaseStats {
  Round rounds = 0;
  std::size_t activations = 0;
  std::size_t messages_delivered = 0;
  std::size_t messages_dropped = 0;
  std::size_t exchanges_rejected = 0;
  std::size_t payload_bits = 0;
  std::size_t entries = 0;  ///< times a PhaseScope opened this phase

  void add(const SimResult& sim) noexcept {
    rounds += sim.rounds;
    activations += sim.activations;
    messages_delivered += sim.messages_delivered;
    messages_dropped += sim.messages_dropped;
    exchanges_rejected += sim.exchanges_rejected;
    payload_bits += sim.payload_bits;
  }
};

class MetricsRegistry {
 public:
  /// Find-or-create; references stay valid for the registry's lifetime
  /// (std::map nodes are stable).
  Counter& counter(std::string_view name) {
    return counters_[std::string(name)];
  }
  Histogram& histogram(std::string_view name) {
    return histograms_[std::string(name)];
  }
  PhaseStats& phase(std::string_view name) {
    return phases_[std::string(name)];
  }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, PhaseStats>& phases() const { return phases_; }

  void clear() {
    counters_.clear();
    histograms_.clear();
    phases_.clear();
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, PhaseStats> phases_;
};

class TrialWorkspace;  // sim/workspace.h

/// A budget no run reaches: what a context holds unless its caller sets
/// one.
inline constexpr Round kUnlimitedRounds = std::numeric_limits<Round>::max();

/// What a composite algorithm's internal runs share. Entry points take
/// `CompositeContext* ctx = nullptr`; a null recorder keeps every run on
/// run_gossip()'s compile-time NoHooks fast path.
class CompositeContext {
 public:
  CompositeContext() = default;
  explicit CompositeContext(EventRecorder* rec, MetricsRegistry* reg = nullptr)
      : recorder(rec), metrics(reg) {}

  EventRecorder* recorder = nullptr;   ///< wired into every internal run
  MetricsRegistry* metrics = nullptr;  ///< phase rows, when set
  /// Per-thread scratch (sim/workspace.h) every internal run reuses.
  TrialWorkspace* workspace = nullptr;
  /// Rounds the internal runs may still take, summed over runs: each
  /// run is capped at what is left and takes its rounds off.
  Round rounds_left = kUnlimitedRounds;

  /// Every charged run's rounds, summed: the virtual timeline phase
  /// boundaries are stamped with.
  Round clock() const noexcept { return clock_; }

  /// Attribute one finished run: its counters to the innermost open
  /// phase, its rounds to the clock and off the budget.
  void charge(const SimResult& sim) noexcept {
    if (phase_ != nullptr) phase_->add(sim);
    clock_ += sim.rounds;
    rounds_left -= sim.rounds;
  }

 private:
  friend class PhaseScope;
  Round clock_ = 0;
  PhaseStats* phase_ = nullptr;  ///< innermost open phase's row
};

/// RAII phase guard. Opens the phase on construction (stamping the
/// context's clock into the recorder) as the innermost one, which every
/// run charged until it closes is attributed to, and closes it on
/// destruction. Null-safe: a null or empty context makes it a no-op.
class PhaseScope {
 public:
  PhaseScope(CompositeContext* ctx, std::string_view name)
      : ctx_(ctx), name_(name) {
    if (ctx_ == nullptr) return;
    outer_ = ctx_->phase_;
    if (ctx_->metrics) {
      PhaseStats& row = ctx_->metrics->phase(name_);
      ++row.entries;
      ctx_->phase_ = &row;
    }
    if (ctx_->recorder) ctx_->recorder->record_phase_begin(name_, ctx_->clock_);
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  ~PhaseScope() {
    if (ctx_ == nullptr) return;
    if (ctx_->recorder) ctx_->recorder->record_phase_end(name_, ctx_->clock_);
    ctx_->phase_ = outer_;
  }

 private:
  CompositeContext* ctx_;
  PhaseStats* outer_ = nullptr;
  std::string name_;
};

/// Fold a finished run's aggregate counters into the registry (one call
/// per run; counters are cumulative across calls).
inline void record_sim_result(MetricsRegistry& metrics, const SimResult& r) {
  metrics.counter("rounds").inc(static_cast<std::uint64_t>(r.rounds));
  metrics.counter("activations").inc(r.activations);
  metrics.counter("messages_delivered").inc(r.messages_delivered);
  metrics.counter("messages_dropped").inc(r.messages_dropped);
  metrics.counter("exchanges_rejected").inc(r.exchanges_rejected);
  metrics.counter("payload_bits").inc(r.payload_bits);
  metrics.histogram("max_inflight").observe(r.max_inflight);
}

/// Fold a run's freshness stats (sim/freshness.h) into the registry as
/// counters, so they ride into manifests and metric snapshots through
/// the existing export plumbing with no schema change. The mean is
/// stored in milli-rounds (counters are integers). No-op for protocols
/// without the last_gain_round hook (stats.valid == false).
inline void record_freshness(MetricsRegistry& metrics,
                             const FreshnessStats& stats) {
  if (!stats.valid) return;
  metrics.counter("node_age_nodes").inc(stats.informed_nodes);
  metrics.counter("node_age_max").inc(static_cast<std::uint64_t>(stats.max_age));
  metrics.counter("node_age_mean_milli")
      .inc(static_cast<std::uint64_t>(stats.mean_age * 1000.0));
}

/// Copy a recorder's event-level histograms into the registry: the
/// per-delivery latency (completion - initiation) and, when the stream
/// is round-monotone, the in-flight exchange depth sampled each round a
/// delivery interval covers (EventRecorder::inflight_depth).
inline void record_event_histograms(MetricsRegistry& metrics,
                                    const EventRecorder& rec) {
  metrics.histogram("delivery_latency").merge(rec.delivery_latency());
  if (const std::optional<Histogram> depth = rec.inflight_depth())
    metrics.histogram("inflight_depth").merge(*depth);
}

}  // namespace latgossip
