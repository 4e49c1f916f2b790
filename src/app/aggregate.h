#pragma once
// Gossip aggregation: computing a global aggregate of per-node values by
// exchanging partial aggregates (the "sensor network data aggregation"
// motivation). Min/max/sum-of-known-set aggregates are idempotent under
// our bidirectional exchanges, so any dissemination protocol computes
// them; this protocol piggybacks the aggregate on push-pull.
//
// MinAggregation doubles as leader election: the minimum node id wins.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/engine.h"
#include "util/rng.h"

namespace latgossip {

class MinAggregation {
 public:
  using Payload = std::int64_t;

  /// Each node starts with values[u]; converges when every node knows
  /// the global minimum.
  MinAggregation(const NetworkView& view, std::vector<std::int64_t> values,
                 Rng rng);

  static std::size_t payload_bits(const Payload&) { return 64; }

  std::optional<HalfEdge> select_contact(NodeId u, Round r);
  Payload capture_payload(NodeId u, Round r) const;
  void deliver(NodeId u, NodeId peer, Payload payload, EdgeId e, Round start,
               Round now, Leg leg);
  bool done(Round r) const;

  std::int64_t current(NodeId u) const { return current_[u]; }
  std::int64_t global_min() const { return global_min_; }

 private:
  NetworkView view_;
  Rng rng_;
  std::vector<std::int64_t> current_;
  std::int64_t global_min_ = 0;
  std::size_t converged_count_ = 0;
};

/// Convenience: elect the minimum node id over the graph with push-pull;
/// returns the rounds taken (every node ends up knowing the leader).
struct LeaderElectionResult {
  NodeId leader = kInvalidNode;
  Round rounds = 0;
  bool completed = false;
};
LeaderElectionResult elect_min_leader(const WeightedGraph& g, Rng rng,
                                      Round max_rounds = 1'000'000);

}  // namespace latgossip
