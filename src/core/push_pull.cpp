#include "core/push_pull.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace latgossip {

// PushPullGossip is defined in core/push_pull.h: its per-event methods
// must inline into run_gossip_impl's event loop in every caller TU, and
// without LTO a call into this file would block that. This file holds
// PushPullBroadcast's construction and its latency-biased draw.

PushPullBroadcast::PushPullBroadcast(const NetworkView& view, NodeId source,
                                     Rng rng, LegRule legs)
    : view_(view),
      rng_(rng),
      legs_(legs),
      informed_(view.num_nodes()),
      inform_round_(view.num_nodes(), -1) {
  if (source >= view.num_nodes())
    throw std::invalid_argument("push-pull: bad source");
  informed_.set(source);
  inform_round_[source] = 0;
}

void PushPullBroadcast::reset(const NetworkView& view, NodeId source, Rng rng) {
  if (source >= view.num_nodes())
    throw std::invalid_argument("push-pull: bad source");
  view_ = view;
  rng_ = rng;
  legs_ = LegRule::kBoth;
  cumulative_.clear();
  informed_.reinit(view.num_nodes());
  inform_round_.assign(view.num_nodes(), -1);
  informed_.set(source);
  inform_round_[source] = 0;
}

PushPullBroadcast::PushPullBroadcast(const NetworkView& view, NodeId source,
                                     double rho, Rng rng)
    : PushPullBroadcast(view, source, rng) {
  // NaN weights send every call to slot 0, and ρ = +∞ leaves only the
  // latency-1 edges; either can stall a broadcast for good.
  if (!std::isfinite(rho) || rho < 0.0)
    throw std::invalid_argument(
        "biased push-pull: rho must be finite and >= 0");
  if (!view.latencies_known())
    throw std::invalid_argument(
        "biased push-pull needs latency knowledge to bias by latency");
  cumulative_.resize(view.num_nodes());
  for (NodeId u = 0; u < view.num_nodes(); ++u) {
    double total = 0.0;
    for (const HalfEdge& h : view.neighbors(u)) {
      total += std::pow(static_cast<double>(view.latency(h.edge)), -rho);
      cumulative_[u].push_back(total);
    }
  }
}

std::size_t PushPullBroadcast::weighted_slot(NodeId u) {
  const auto& cum = cumulative_[u];
  const double x = rng_.uniform_double() * cum.back();
  const auto it = std::lower_bound(cum.begin(), cum.end(), x);
  return std::min(static_cast<std::size_t>(it - cum.begin()), cum.size() - 1);
}

}  // namespace latgossip
