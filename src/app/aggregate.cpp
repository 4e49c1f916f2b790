#include "app/aggregate.h"

#include "sim/dispatch.h"

#include <stdexcept>

namespace latgossip {

MinAggregation::MinAggregation(const NetworkView& view,
                               std::vector<std::int64_t> values, Rng rng)
    : view_(view), rng_(rng), current_(std::move(values)) {
  if (current_.size() != view.num_nodes())
    throw std::invalid_argument("aggregation: value count mismatch");
  if (current_.empty())
    throw std::invalid_argument("aggregation: need at least one node");
  global_min_ = *std::min_element(current_.begin(), current_.end());
  for (std::int64_t v : current_)
    if (v == global_min_) ++converged_count_;
}

std::optional<HalfEdge> MinAggregation::select_contact(NodeId u, Round) {
  const auto neigh = view_.neighbors(u);
  if (neigh.empty()) return std::nullopt;
  return neigh[rng_.uniform(neigh.size())];
}

MinAggregation::Payload MinAggregation::capture_payload(NodeId u,
                                                        Round) const {
  return current_[u];
}

void MinAggregation::deliver(NodeId u, NodeId, Payload payload, EdgeId,
                             Round, Round, Leg) {
  if (payload < current_[u]) {
    const bool was_min = (current_[u] == global_min_);
    current_[u] = payload;
    if (!was_min && payload == global_min_) ++converged_count_;
  }
}

bool MinAggregation::done(Round) const {
  return converged_count_ == current_.size();
}

LeaderElectionResult elect_min_leader(const WeightedGraph& g, Rng rng,
                                      Round max_rounds) {
  LeaderElectionResult result;
  if (g.num_nodes() == 0) return result;
  std::vector<std::int64_t> ids(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    ids[v] = static_cast<std::int64_t>(v);
  NetworkView view(g, /*latencies_known=*/false);
  MinAggregation proto(view, std::move(ids), rng);
  SimOptions opts;
  opts.max_rounds = max_rounds;
  const SimResult sim = dispatch_gossip(g, proto, opts);
  result.leader = static_cast<NodeId>(proto.global_min());
  result.rounds = sim.rounds;
  result.completed = sim.completed;
  return result;
}

}  // namespace latgossip
