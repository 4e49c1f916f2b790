// Declarative description of a run's scenario: node crashes, link loss
// and latency jitter (the paper's conclusion: "push-pull is relatively
// robust to failures, while our other approaches are not"; footnote 1:
// latencies fluctuate with network quality), plus per-round edge-latency
// drift, node churn (leave/rejoin), and an adversarial latency schedule
// that slows the current frontier cut.
//
// A DynamicSpec is pure data — it fully determines every schedule below,
// so the engine-side DynamicPlan (sim/dynamics.h) and the oracle-side
// brute-force interpreters (sim/oracle.cpp) can be coded independently
// and still agree bit-for-bit. The derivation contracts are therefore
// part of this header's documented interface:
//
// Crashes (active when crash_at is non-empty or crash_count > 0):
//   Every node starts with crash round "never". The explicit crash_at
//   entries are applied in order (a later entry for the same node
//   overwrites an earlier one). Then, if crash_count > 0, the fault
//   stream Rng(fault_seed) draws v = uniform(n) repeatedly, skipping
//   v == crash_spare and any v that already has a crash round, until
//   crash_count further nodes crash at crash_round. Node u is crashed
//   in round r iff its crash round is <= r. A crashed node initiates
//   nothing, and any delivery to or from it is dropped ("crash drop").
//
// Link loss (active when drop_prob > 0):
//   The loss stream is the fault stream continued after the crash draw
//   (Rng(fault_seed) itself when crash_count == 0). Each delivery leg
//   whose endpoints are both up — neither crashed nor absent to churn —
//   draws bernoulli(drop_prob), in delivery order; true loses the leg
//   ("link drop"). Legs with a down endpoint draw nothing.
//
// Jitter (active when jitter_spread > 0):
//   One stream Rng(jitter_seed) draws d = uniform_int(-spread, spread)
//   once per accepted exchange (after the bounded in-degree rejection),
//   in selection order; the exchange's latency becomes
//   max(1, lat + d).
//
// Drift (active when drift_step > 0):
//   Each edge e performs a bounded multiplicative walk on a fixed-point
//   factor f(e, r), scaled by 1024. f(e, 0) = 1024. For each round
//   t = 1..r:
//     h   = seed ^ (0x9e3779b97f4a7c15ULL * (e + 1))
//             ^ (uint64_t(t) * 0xbf58476d1ce4e5b9ULL)
//     bit = splitmix64(h) & 1        // h passed as a local lvalue
//     f  *= (bit ? 1024 + drift_step : 1024 - drift_step) / 1024
//   after each step f is clamped to
//     [1024 * 1024 / drift_bound, drift_bound].
//   The effective latency of a contact over e at round r is
//   max(1, lat * f(e, r) / 1024), applied AFTER jitter.
//
// Churn (active when churn_prob > 0):
//   Each node u != churn_spare derives its schedule from
//   Rng(seed ^ (0xc2b2ae3d27d4eb4fULL * (u + 1))), drawing in order:
//     leaves  = bernoulli(churn_prob)
//     leave   = 1 + uniform(churn_window)
//     absence = 1 + uniform(churn_absence)
//     reset   = churn_mode == 1 || (churn_mode == 2 && bernoulli(0.5))
//   (all four draws happen even when !leaves, so schedules are
//   insensitive to draw short-circuiting). A leaving node is absent for
//   rounds r in [leave, leave + absence). Absent nodes initiate no
//   contacts, and any delivery to or from an absent endpoint is dropped
//   exactly like a delivery touching a crashed node. If reset, the
//   node's protocol state is re-initialised at round leave + absence —
//   at the top of the round, BEFORE deliveries, in ascending node id.
//
// Adversary (active when adv_slow > 1024):
//   The adversary tracks the "touched" set T, initially {adv_source},
//   adding the receiver of every successful delivery. When a contact is
//   selected at round r and exactly one endpoint is in T (the edge
//   crosses the current frontier cut), its latency is multiplied by
//   adv_slow / 1024 (after jitter and drift). This targets the paper's
//   guessing-game lower bound: the frontier edges that would spread the
//   rumor are exactly the slowed ones.
//
// Composition order per contact: base latency -> jitter (clamped to
// >= 1) -> drift (clamped to >= 1 by itself, as above) -> adversary
// (adv_slow >= 1024 never takes a latency below 1) -> final engine
// clamp to >= 1.
//
// Every stream restarts with each run: a plan replays the same scenario
// on every run it drives.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace latgossip {

struct DynamicSpec {
  /// One explicit crash: `node` is down from round `round` on.
  struct Crash {
    NodeId node = 0;
    Round round = 0;
  };

  // --- node crashes ---
  std::vector<Crash> crash_at;  // explicit (node, round) crashes
  std::size_t crash_count = 0;  // seeded draw of this many more nodes
  Round crash_round = 0;        // round the drawn nodes crash at
  NodeId crash_spare = 0;       // never drawn (conventionally the source)

  // --- link loss ---
  double drop_prob = 0.0;  // per-leg loss probability (0 = off)
  std::uint64_t fault_seed = 0;  // crash draw, then the loss stream

  // --- latency jitter ---
  Latency jitter_spread = 0;  // uniform in [-spread, spread] (0 = off)
  std::uint64_t jitter_seed = 0;

  // --- edge-latency drift ---
  std::uint32_t drift_step = 0;      // per-round step, x1024 (0 = off); < 1024
  std::uint32_t drift_bound = 2048;  // factor clamp, x1024; in [1024, 1024*1024]

  // --- node churn ---
  double churn_prob = 0.0;     // per-node leave probability (0 = off)
  Round churn_window = 0;      // latest leave round; >= 1 when active
  Round churn_absence = 1;     // max absence duration; >= 1
  std::uint8_t churn_mode = 0; // 0 = retain state, 1 = reset, 2 = per-node mix
  NodeId churn_spare = 0;      // never churned (conventionally the source)

  // --- adversarial frontier slowdown ---
  std::uint32_t adv_slow = 1024;  // x1024 multiplier (1024 = off); <= 1024*1024
  NodeId adv_source = 0;          // initial member of the touched set

  std::uint64_t seed = 1;  // master seed for drift and churn

  bool crash_active() const noexcept {
    return !crash_at.empty() || crash_count > 0;
  }
  bool drop_active() const noexcept { return drop_prob > 0.0; }
  bool jitter_active() const noexcept { return jitter_spread > 0; }
  bool drift_active() const noexcept { return drift_step > 0; }
  bool churn_active() const noexcept { return churn_prob > 0.0; }
  bool adv_active() const noexcept { return adv_slow > 1024; }
  /// Crashes or link loss (the failure half of the scenario).
  bool faults_active() const noexcept {
    return crash_active() || drop_active();
  }
  bool any() const noexcept {
    return faults_active() || jitter_active() || drift_active() ||
           churn_active() || adv_active();
  }
  // True when the scenario perturbs delivery latencies (jitter, drift or
  // adversary); faults and churn leave every delivered contact's
  // latency conformant to the latency model.
  bool affects_latency() const noexcept {
    return jitter_active() || drift_active() || adv_active();
  }
};

}  // namespace latgossip
