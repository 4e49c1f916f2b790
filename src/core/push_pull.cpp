#include "core/push_pull.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace latgossip {

// PushPullGossip is defined in core/push_pull.h: its per-event methods
// must inline into run_gossip_impl's event loop in every caller TU, and
// without LTO a call into this file would block that. This file holds
// the boolean-payload broadcast variants' remaining methods.

PushPullBroadcast::PushPullBroadcast(const NetworkView& view, NodeId source,
                                     Rng rng)
    : view_(view),
      rng_(rng),
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
  informed_.reinit(view.num_nodes());
  inform_round_.assign(view.num_nodes(), -1);
  informed_.set(source);
  inform_round_[source] = 0;
}

BiasedPushPullBroadcast::BiasedPushPullBroadcast(const NetworkView& view,
                                                 NodeId source, double rho,
                                                 Rng rng)
    : view_(view),
      rng_(rng),
      rho_(rho),
      cumulative_(view.num_nodes()),
      informed_(view.num_nodes(), false) {
  if (source >= view.num_nodes())
    throw std::invalid_argument("biased push-pull: bad source");
  if (rho < 0.0)
    throw std::invalid_argument("biased push-pull: rho must be >= 0");
  if (!view.latencies_known())
    throw std::invalid_argument(
        "biased push-pull needs latency knowledge to bias by latency");
  for (NodeId u = 0; u < view.num_nodes(); ++u) {
    double total = 0.0;
    for (const HalfEdge& h : view.neighbors(u)) {
      total += std::pow(static_cast<double>(view.latency(h.edge)), -rho);
      cumulative_[u].push_back(total);
    }
  }
  informed_[source] = true;
  informed_count_ = 1;
}

std::optional<HalfEdge> BiasedPushPullBroadcast::select_contact(NodeId u,
                                                                Round) {
  const auto& cum = cumulative_[u];
  if (cum.empty()) return std::nullopt;
  const double x = rng_.uniform_double() * cum.back();
  const auto it = std::lower_bound(cum.begin(), cum.end(), x);
  const auto index = static_cast<std::size_t>(it - cum.begin());
  return view_.neighbors(u)[std::min(index, cum.size() - 1)];
}

bool BiasedPushPullBroadcast::capture_payload(NodeId u, Round) const {
  return informed_[u];
}

void BiasedPushPullBroadcast::deliver(NodeId u, NodeId, Payload payload,
                                      EdgeId, Round, Round) {
  if (payload && !informed_[u]) {
    informed_[u] = true;
    ++informed_count_;
  }
}

bool BiasedPushPullBroadcast::done(Round) const {
  return informed_count_ == informed_.size();
}

}  // namespace latgossip
