#pragma once
// Symmetry property tests: a conforming engine + protocol pair must not
// care what the nodes or edges are *called*.
//
// Production randomized protocols are NOT node-relabel-invariant — they
// consume one shared RNG in node-id iteration order, so renaming nodes
// reorders the draws. Node-relabel invariance is therefore checked with
// SymmetricPushPull, a push–pull variant whose contact choice is a pure
// function of (seed, round, original labels): running it on a relabeled
// graph with the inverse permutation as its label tags must reproduce
// the base run exactly — same SimResult and the same event-stream
// fingerprint after mapping node ids back.
//
// Edge-ID permutation invariance, in contrast, holds for the production
// protocols themselves (uniform push–pull, EID): adjacency slices are
// sorted by neighbor id regardless of edge insertion order, so
// re-inserting the same edges in a different order changes only the
// EdgeId labels in the event stream. relabel_property_test checks
// SimResult equality plus fingerprint equality modulo an edge-id remap.

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "obs/recorder.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace latgossip {

/// Push–pull whose neighbor choice is label-covariant: node u picks the
/// neighbor v maximizing fp_hash3(seed, round, (tag[u] << 32) | tag[v])
/// over its adjacency slice, where tag[] carries the *original* labels.
/// With identity tags this is a deterministic seeded push-pull; with
/// tags = the inverse of a relabeling permutation, the relabeled run
/// makes exactly the choices the base run made.
class SymmetricPushPull {
 public:
  using Payload = bool;

  SymmetricPushPull(const NetworkView& view, NodeId source,
                    std::uint64_t seed, std::vector<NodeId> tags);

  static std::size_t payload_bits(const Payload&) { return 1; }

  std::optional<HalfEdge> select_contact(NodeId u, Round r);
  Payload capture_payload(NodeId u, Round r) const;
  void deliver(NodeId u, NodeId peer, Payload payload, EdgeId e, Round start,
               Round now, Leg leg);
  bool done(Round r) const;

  bool informed(NodeId u) const { return informed_[u]; }

 private:
  NetworkView view_;
  std::uint64_t seed_;
  std::vector<NodeId> tags_;
  std::vector<bool> informed_;
  std::size_t informed_count_ = 0;
};

/// Identity permutation / a uniformly random one.
std::vector<NodeId> identity_permutation(std::size_t n);
std::vector<NodeId> random_permutation(std::size_t n, Rng& rng);
std::vector<NodeId> inverse_permutation(const std::vector<NodeId>& perm);

/// `g` with node u renamed perm[u]. Edges are re-added in the SAME
/// insertion order, so EdgeIds are preserved and only node fields of
/// the event stream change.
WeightedGraph relabel_nodes(const WeightedGraph& g,
                            const std::vector<NodeId>& perm);

/// `g` with the edge list re-inserted in the order perm[0], perm[1], …
/// (new EdgeId i == old EdgeId perm[i]); topology and latencies are
/// untouched, only the edge labels move.
WeightedGraph permute_edge_ids(const WeightedGraph& g,
                               const std::vector<EdgeId>& perm);

/// Recompute the recorder's order-insensitive digest with node ids
/// mapped through `node_map` and edge ids through `edge_map` (either
/// may be null for identity). Phase events carry interned name ids, not
/// node ids, and are folded unmapped.
std::uint64_t remapped_fingerprint(const EventRecorder& rec,
                                   const std::vector<NodeId>* node_map,
                                   const std::vector<EdgeId>* edge_map);

}  // namespace latgossip
