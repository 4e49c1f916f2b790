#pragma once
// Named metrics registry + protocol phase attribution.
//
// A MetricsRegistry holds named monotonic counters and log2-bucket
// histograms (Histogram, in obs/recorder.h, whose recorder folds two of
// them), plus per-phase simulation accounting. Protocols tag their
// phases with a PhaseScope RAII guard:
//
//   PhaseScope phase(obs, "eid/local_broadcast");
//   const SimResult sim = run_gossip(g, proto, opts);
//   phase.add(sim);   // rounds/messages/bits attributed to this phase
//
// Multi-phase protocols restart engine rounds at 0 in every phase, so
// the registry keeps a cumulative *virtual clock* — the sum of all
// rounds added through scopes — which is what phase boundaries are
// stamped with (and what the Chrome trace export uses as timestamps).
//
// ObsContext bundles the two observability sinks (event recorder +
// metrics registry) so protocol entry points take a single optional
// pointer. Both members are optional; a null ObsContext* is a no-op
// everywhere. Like the recorder, a registry is not thread-safe: use one
// per trial.
//
// Phase accounting answers the paper's per-phase questions directly:
// Theorem 19/20's O(D log^3 n) EID cost splits into discovery /
// spanner / broadcast phases, and per-phase payload_bits mirrors the
// small-message budgets of Dufoulon et al. (see PAPERS.md).

#include <cstddef>
#include <cstdint>
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

  /// Cumulative simulated rounds across every PhaseScope::add(); the
  /// virtual timeline phase boundaries and trace exports live on.
  Round clock() const noexcept { return clock_; }
  void advance_clock(Round delta) noexcept { clock_ += delta; }

  void clear() {
    counters_.clear();
    histograms_.clear();
    phases_.clear();
    clock_ = 0;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, PhaseStats> phases_;
  Round clock_ = 0;
};

/// The two observability sinks, both optional. Protocol entry points
/// accept `ObsContext* obs = nullptr`; a null pointer (or null members)
/// disables that sink with no per-event cost — in particular, a null
/// recorder keeps run_gossip() on the compile-time NoHooks fast path.
struct ObsContext {
  EventRecorder* recorder = nullptr;
  MetricsRegistry* metrics = nullptr;
};

/// RAII phase guard. Opens the phase on construction (stamping the
/// registry's virtual clock into the recorder), attributes SimResults
/// via add(), and closes the phase on destruction. Null-safe: a null or
/// empty ObsContext makes every operation a no-op.
class PhaseScope {
 public:
  PhaseScope(ObsContext* obs, std::string_view name)
      : recorder_(obs ? obs->recorder : nullptr),
        metrics_(obs ? obs->metrics : nullptr),
        name_(name) {
    if (metrics_) ++metrics_->phase(name_).entries;
    if (recorder_) record_boundary(/*begin=*/true);
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  ~PhaseScope() {
    if (recorder_) record_boundary(/*begin=*/false);
  }

  /// Attribute one simulation run to this phase and advance the
  /// registry's virtual clock by its rounds.
  void add(const SimResult& sim) {
    if (!metrics_) return;
    metrics_->phase(name_).add(sim);
    metrics_->advance_clock(sim.rounds);
  }

 private:
  void record_boundary(bool begin) {
    const Round clock = metrics_ ? metrics_->clock() : 0;
    if (begin)
      recorder_->record_phase_begin(name_, clock);
    else
      recorder_->record_phase_end(name_, clock);
  }

  EventRecorder* recorder_;
  MetricsRegistry* metrics_;
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
