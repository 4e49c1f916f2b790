#pragma once
// Anti-entropy replication over push-pull gossip: every replica
// exchanges its full LWW store snapshot with a uniformly random neighbor
// each round (Demers et al.'s anti-entropy, in the paper's latency
// model). Because the store is a state-based CRDT, convergence follows
// from dissemination alone — and the time to converge is governed by
// exactly the quantities this paper studies (ℓ*/φ* for push-pull).

#include <optional>
#include <vector>

#include "app/kv_store.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace latgossip {

class AntiEntropy {
 public:
  using Payload = std::vector<KvEntry>;

  /// `stores` holds one replica per node (moved in; retrievable after
  /// the run with take_stores()).
  AntiEntropy(const NetworkView& view, std::vector<KvStore> stores, Rng rng);

  static std::size_t payload_bits(const Payload& p) {
    return KvStore::snapshot_bits(p);
  }

  std::optional<HalfEdge> select_contact(NodeId u, Round r);
  Payload capture_payload(NodeId u, Round r) const;
  void deliver(NodeId u, NodeId peer, Payload payload, EdgeId e, Round start,
               Round now, Leg leg);
  bool done(Round r) const;

  const std::vector<KvStore>& stores() const { return stores_; }
  std::vector<KvStore> take_stores() { return std::move(stores_); }

  /// All replicas hold identical state (by digest).
  bool converged() const;

 private:
  NetworkView view_;
  Rng rng_;
  std::vector<KvStore> stores_;
};

}  // namespace latgossip
