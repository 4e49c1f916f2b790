#include "core/rr_broadcast.h"

#include <stdexcept>

namespace latgossip {

// RRBroadcast is defined in core/rr_broadcast.h so its per-event
// methods inline into run_gossip_impl's event loop (no LTO needed);
// only the rumor-set checks shared by the composite algorithms live
// here.

bool all_sets_full(const std::vector<Bitset>& rumors) {
  for (const Bitset& r : rumors)
    if (!r.all()) return false;
  return true;
}

bool local_broadcast_complete(const WeightedGraph& g,
                              const std::vector<Bitset>& rumors) {
  if (rumors.size() != g.num_nodes())
    throw std::invalid_argument("rumor vector size mismatch");
  for (const Edge& e : g.edges())
    if (!rumors[e.u].test(e.v) || !rumors[e.v].test(e.u)) return false;
  return true;
}

}  // namespace latgossip
