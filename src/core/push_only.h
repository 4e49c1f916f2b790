#pragma once
// Push-only broadcast — the protocol the paper's footnote 2 warns
// about: "Without the ability to pull data, it is easy to see that
// information exchange takes Ω(nD) time, e.g., in a star. Simple
// flooding matches this lower bound."
//
// The engine's exchanges are inherently bidirectional, so push-only is
// modeled at the protocol level: a node records its own initiations and
// discards the response leg of any exchange it initiated — it only
// learns through pushes *addressed to it*. Only informed nodes initiate
// (pushing nothing is pointless), each picking a uniformly random
// neighbor per round.
//
// Corner case: if u and v initiate toward each other in the same round,
// each discards the response of its own exchange but still receives the
// other's push — exactly the push semantics.

#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "sim/engine.h"
#include "util/rng.h"

namespace latgossip {

/// An outstanding self-initiation: (initiator, round, peer). Lets a
/// push-only or pull-only node classify each delivery as push or
/// response even with many exchanges in flight.
using Initiation = std::tuple<NodeId, Round, NodeId>;

class PushOnlyBroadcast {
 public:
  using Payload = bool;

  PushOnlyBroadcast(const NetworkView& view, NodeId source, Rng rng);

  static std::size_t payload_bits(const Payload&) { return 1; }

  std::optional<HalfEdge> select_contact(NodeId u, Round r);
  Payload capture_payload(NodeId u, Round r) const;
  void deliver(NodeId u, NodeId peer, Payload payload, EdgeId e, Round start,
               Round now);
  bool done(Round r) const;

  bool informed(NodeId u) const { return informed_[u]; }

 private:
  NetworkView view_;
  Rng rng_;
  std::vector<bool> informed_;
  /// Outstanding self-initiations: a delivery matching one is its
  /// response (discard); any other is a push (accept).
  std::set<Initiation> pending_;
  std::size_t informed_count_ = 0;
};

/// Pull-only broadcast — the dual restriction: a node learns only from
/// the response leg of exchanges it initiated itself (incoming pushes
/// are discarded). Uninformed nodes pull from uniformly random
/// neighbors; informed nodes stay silent (they have nothing to learn).
/// Pull-only is fast on stars from a leaf (all leaves pull the hub) but
/// pays Ω(n) on reversed situations — the mirror image of footnote 2.
class PullOnlyBroadcast {
 public:
  using Payload = bool;

  PullOnlyBroadcast(const NetworkView& view, NodeId source, Rng rng);

  static std::size_t payload_bits(const Payload&) { return 1; }

  std::optional<HalfEdge> select_contact(NodeId u, Round r);
  Payload capture_payload(NodeId u, Round r) const;
  void deliver(NodeId u, NodeId peer, Payload payload, EdgeId e, Round start,
               Round now);
  bool done(Round r) const;

  bool informed(NodeId u) const { return informed_[u]; }

 private:
  NetworkView view_;
  Rng rng_;
  std::vector<bool> informed_;
  /// Outstanding self-initiations: only a delivery matching one (its
  /// response) is accepted.
  std::set<Initiation> pending_;
  std::size_t informed_count_ = 0;
};

}  // namespace latgossip
