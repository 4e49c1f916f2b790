#include "check/relabel.h"

#include <stdexcept>

#include "graph/builder.h"
#include "obs/fingerprint.h"
#include "util/rng.h"

namespace latgossip {

SymmetricPushPull::SymmetricPushPull(const NetworkView& view, NodeId source,
                                     std::uint64_t seed,
                                     std::vector<NodeId> tags)
    : view_(view),
      seed_(seed),
      tags_(std::move(tags)),
      informed_(view.num_nodes(), false) {
  if (tags_.size() != view.num_nodes())
    throw std::invalid_argument("SymmetricPushPull: tag count != n");
  if (!informed_.empty()) {
    informed_[source] = true;
    informed_count_ = 1;
  }
}

std::optional<HalfEdge> SymmetricPushPull::select_contact(NodeId u, Round r) {
  const auto adj = view_.neighbors(u);
  if (adj.empty()) return std::nullopt;
  const std::uint64_t tag_u = tags_[u];
  const HalfEdge* pick = nullptr;
  std::uint64_t best_score = 0;
  for (const HalfEdge& h : adj) {
    const std::uint64_t score =
        fp_hash3(seed_, static_cast<std::uint64_t>(r),
                 (tag_u << 32) | tags_[h.to]);
    // Tag tie-break keeps the choice a pure function of the tags even
    // if two scores collide (slice order must never matter).
    if (pick == nullptr || score > best_score ||
        (score == best_score && tags_[h.to] < tags_[pick->to])) {
      pick = &h;
      best_score = score;
    }
  }
  return *pick;
}

SymmetricPushPull::Payload SymmetricPushPull::capture_payload(NodeId u,
                                                              Round) const {
  return informed_[u];
}

void SymmetricPushPull::deliver(NodeId u, NodeId, Payload payload, EdgeId,
                                Round, Round, Leg) {
  if (payload && !informed_[u]) {
    informed_[u] = true;
    ++informed_count_;
  }
}

bool SymmetricPushPull::done(Round) const {
  return informed_count_ == informed_.size();
}

std::vector<NodeId> identity_permutation(std::size_t n) {
  std::vector<NodeId> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<NodeId>(i);
  return perm;
}

std::vector<NodeId> random_permutation(std::size_t n, Rng& rng) {
  std::vector<NodeId> perm = identity_permutation(n);
  rng.shuffle(perm);
  return perm;
}

std::vector<NodeId> inverse_permutation(const std::vector<NodeId>& perm) {
  std::vector<NodeId> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    inv[perm[i]] = static_cast<NodeId>(i);
  return inv;
}

WeightedGraph relabel_nodes(const WeightedGraph& g,
                            const std::vector<NodeId>& perm) {
  GraphBuilder b(g.num_nodes());
  for (const Edge& e : g.edges())
    b.add_edge(perm[e.u], perm[e.v], e.latency);
  return b.build();
}

WeightedGraph permute_edge_ids(const WeightedGraph& g,
                               const std::vector<EdgeId>& perm) {
  if (perm.size() != g.num_edges())
    throw std::invalid_argument("permute_edge_ids: bad permutation size");
  GraphBuilder b(g.num_nodes());
  for (const EdgeId old_id : perm) {
    const Edge& e = g.edge(old_id);
    b.add_edge(e.u, e.v, e.latency);
  }
  return b.build();
}

std::uint64_t remapped_fingerprint(const EventRecorder& rec,
                                   const std::vector<NodeId>* node_map,
                                   const std::vector<EdgeId>* edge_map) {
  Fingerprint fp;
  for (const Event& e : rec.events()) {
    const EventKind kind = e.kind();
    NodeId a = e.a();
    NodeId b = e.b();
    EdgeId edge = e.edge();
    const bool phase =
        kind == EventKind::kPhaseBegin || kind == EventKind::kPhaseEnd;
    if (!phase) {
      if (node_map != nullptr) {
        if (a < node_map->size()) a = (*node_map)[a];
        if (b < node_map->size()) b = (*node_map)[b];
      }
      if (edge_map != nullptr && edge < edge_map->size())
        edge = (*edge_map)[edge];
    }
    // Same per-event packing as EventRecorder::refresh_stats().
    fp.add(fp_hash3(
        (static_cast<std::uint64_t>(e.round()) << 3) |
            static_cast<std::uint64_t>(kind),
        (static_cast<std::uint64_t>(a) << 32) | b,
        (static_cast<std::uint64_t>(edge) << 32) |
            static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(e.start()))));
  }
  return fp.digest();
}

}  // namespace latgossip
