#pragma once
// Latency discovery (Section 4.2): in the unknown-latency model, each
// node probes its incident edges sequentially (one exchange per round,
// Δ rounds of initiations) and waits up to a budget of rounds for the
// replies. Every probe that completes within the window reveals the
// exact latency of its edge (completion round minus initiation round);
// edges that do not answer are known to be slower than the budget —
// which is fine, since an algorithm with diameter estimate k never wants
// edges of latency > k.
//
// With the budget set to (an estimate of) D this takes Δ + D rounds,
// after which the known-latency machinery (EID) applies — giving the
// Õ(D + Δ) branch of Theorem 20.

#include <optional>
#include <vector>

#include "core/termination.h"
#include "graph/graph.h"
#include "sim/engine.h"
#include "sim/metrics.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace latgossip {

class CompositeContext;  // obs/metrics.h

class ProbeProtocol {
 public:
  using Payload = bool;  // probes carry no information

  ProbeProtocol(const NetworkView& view, Latency wait_budget);

  std::optional<HalfEdge> select_contact(NodeId u, Round r);
  Payload capture_payload(NodeId, Round) const { return true; }
  void deliver(NodeId u, NodeId peer, Payload payload, EdgeId e, Round start,
               Round now, Leg leg);
  bool done(Round r) const;

  /// Discovered latency of edge e, if it replied within the window.
  const std::vector<std::optional<Latency>>& edge_latencies() const {
    return discovered_;
  }

 private:
  NetworkView view_;
  Latency wait_budget_;
  Round deadline_;
  std::vector<std::optional<Latency>> discovered_;
};

struct DiscoveryOutcome {
  SimResult sim;
  std::vector<std::optional<Latency>> edge_latencies;
  std::size_t edges_discovered = 0;
};

/// Run the probe phase with the given wait budget, through `ctx`
/// (optional, obs/metrics.h) as phase "eid/latency_discovery".
DiscoveryOutcome discover_latencies(const WeightedGraph& g,
                                    Latency wait_budget,
                                    CompositeContext* ctx = nullptr);

/// The (D+Δ)-branch of Theorem 20: guess-and-double k; per attempt, probe
/// with budget k (Δ + k rounds), then EID(k) — valid because the probes
/// revealed every latency <= k and EID(k) touches no slower edge — then
/// the Termination Check. `sim` covers probes, EID attempts and checks;
/// `ctx` (optional) takes them all, tagged as General EID's phases plus
/// the probes'.
DoublingOutcome run_unknown_latency_eid(const WeightedGraph& g,
                                        std::size_t n_hat, Rng& rng,
                                        CompositeContext* ctx = nullptr);

}  // namespace latgossip
