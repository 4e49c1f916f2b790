#include "core/push_only.h"

#include <stdexcept>

namespace latgossip {

PushOnlyBroadcast::PushOnlyBroadcast(const NetworkView& view, NodeId source,
                                     Rng rng)
    : view_(view), rng_(rng), informed_(view.num_nodes(), false) {
  if (source >= view.num_nodes())
    throw std::invalid_argument("push-only: bad source");
  informed_[source] = true;
  informed_count_ = 1;
}

std::optional<HalfEdge> PushOnlyBroadcast::select_contact(NodeId u, Round r) {
  if (!informed_[u]) return std::nullopt;  // nothing to push
  const auto neigh = view_.neighbors(u);
  if (neigh.empty()) return std::nullopt;
  const HalfEdge& h = neigh[rng_.uniform(neigh.size())];
  pending_.emplace(u, r, h.to);
  return h;
}

bool PushOnlyBroadcast::capture_payload(NodeId u, Round) const {
  return informed_[u];
}

void PushOnlyBroadcast::deliver(NodeId u, NodeId peer, Payload payload,
                                EdgeId, Round start, Round) {
  // Discard the response leg of u's own initiation: push-only nodes
  // never pull.
  if (pending_.erase({u, start, peer}) != 0) return;
  if (payload && !informed_[u]) {
    informed_[u] = true;
    ++informed_count_;
  }
}

bool PushOnlyBroadcast::done(Round) const {
  return informed_count_ == informed_.size();
}

PullOnlyBroadcast::PullOnlyBroadcast(const NetworkView& view, NodeId source,
                                     Rng rng)
    : view_(view), rng_(rng), informed_(view.num_nodes(), false) {
  if (source >= view.num_nodes())
    throw std::invalid_argument("pull-only: bad source");
  informed_[source] = true;
  informed_count_ = 1;
}

std::optional<HalfEdge> PullOnlyBroadcast::select_contact(NodeId u, Round r) {
  if (informed_[u]) return std::nullopt;  // nothing left to pull
  const auto neigh = view_.neighbors(u);
  if (neigh.empty()) return std::nullopt;
  const HalfEdge& h = neigh[rng_.uniform(neigh.size())];
  pending_.emplace(u, r, h.to);
  return h;
}

bool PullOnlyBroadcast::capture_payload(NodeId u, Round) const {
  return informed_[u];
}

void PullOnlyBroadcast::deliver(NodeId u, NodeId peer, Payload payload,
                                EdgeId, Round start, Round) {
  // Accept only the response leg of u's own initiation: pull-only nodes
  // ignore unsolicited pushes.
  if (pending_.erase({u, start, peer}) == 0) return;
  if (payload && !informed_[u]) {
    informed_[u] = true;
    ++informed_count_;
  }
}

bool PullOnlyBroadcast::done(Round) const {
  return informed_count_ == informed_.size();
}

}  // namespace latgossip
