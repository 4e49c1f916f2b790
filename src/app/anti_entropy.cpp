#include "app/anti_entropy.h"

#include <stdexcept>

namespace latgossip {

AntiEntropy::AntiEntropy(const NetworkView& view, std::vector<KvStore> stores,
                         Rng rng)
    : view_(view), rng_(rng), stores_(std::move(stores)) {
  if (stores_.size() != view.num_nodes())
    throw std::invalid_argument("anti-entropy: store count mismatch");
}

std::optional<HalfEdge> AntiEntropy::select_contact(NodeId u, Round) {
  const auto neigh = view_.neighbors(u);
  if (neigh.empty()) return std::nullopt;
  return neigh[rng_.uniform(neigh.size())];
}

AntiEntropy::Payload AntiEntropy::capture_payload(NodeId u, Round) const {
  return stores_[u].snapshot();
}

void AntiEntropy::deliver(NodeId u, NodeId, Payload payload, EdgeId, Round,
                          Round, Leg) {
  stores_[u].merge(payload);
}

bool AntiEntropy::done(Round) const { return converged(); }

bool AntiEntropy::converged() const {
  if (stores_.empty()) return true;
  const std::uint64_t reference = stores_.front().digest();
  for (const KvStore& s : stores_)
    if (s.digest() != reference) return false;
  return true;
}

}  // namespace latgossip
