#pragma once
// Classical push–pull random phone call gossip (Karp et al.) in the
// latency model. Theorem 12: push–pull completes broadcast w.h.p. in
// O((ℓ*/φ*) · log n) rounds, where φ* is the weighted conductance and
// ℓ* the critical latency. Push–pull never reads latencies, so it works
// in the unknown-latency model.
//
// Two variants:
//  * PushPullBroadcast — single-source rumor, boolean payloads (fast;
//    used by the large-scale Theorem 12 experiments). Modes fixed at
//    construction give footnote 2's push-only baseline, its pull-only
//    mirror and latency-biased contact.
//  * PushPullGossip — full Bitset rumor sets with a configurable
//    completion goal (single-source / all-to-all / local broadcast) and
//    contact rule: a uniformly random neighbor (push–pull proper) or
//    the next neighbor in adjacency order (round-robin flooding). Used
//    by the lower-bound experiments, the unified algorithm and the
//    flooding baseline.

#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/engine.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/snapshot.h"

namespace latgossip {

/// What "done" means for a dissemination run.
enum class GossipGoal {
  kSingleSource,   ///< every node holds the source's rumor
  kAllToAll,       ///< every node holds every rumor
  kLocalBroadcast, ///< every node holds all of its neighbors' rumors
};

/// Which neighbor a PushPullGossip node calls each round.
enum class ContactRule {
  kUniform,  ///< a uniformly random neighbor: push–pull (Karp et al.)
  /// The next neighbor in adjacency order, cycling — deterministic
  /// flooding, the natural comparator for push–pull. The paper's
  /// footnote 2 warns that push-only flooding costs Ω(nD) on a star;
  /// with bidirectional exchanges it is a strong simple baseline.
  /// Never draws from the protocol's Rng.
  kRoundRobin,
};

/// Which legs of its exchanges a PushPullBroadcast node learns from,
/// and so which nodes initiate at all.
enum class LegRule {
  kBoth,  ///< push–pull: every node initiates, and both legs inform
  /// Footnote 2's baseline: "Without the ability to pull data, it is
  /// easy to see that information exchange takes Ω(nD) time, e.g., in a
  /// star." Only informed nodes initiate (pushing nothing is
  /// pointless), and a node learns only from pushes addressed to it.
  kPushOnly,
  /// Its mirror, pull-only: only uninformed nodes initiate, and a node
  /// learns only from the responses to its own calls. On a star from
  /// the hub every leaf pulls the rumor at once; from a leaf, the hub
  /// needs Θ(n) calls to find the one informed leaf.
  kResponseOnly,
};

class PushPullBroadcast {
 public:
  using Payload = bool;

  PushPullBroadcast(const NetworkView& view, NodeId source, Rng rng,
                    LegRule legs = LegRule::kBoth);

  /// Latency-biased push–pull, a known-latency variant: a node picks
  /// neighbor v with probability proportional to 1/latency(u,v)^ρ (the
  /// spatial-gossip idea of Kempe, Kleinberg and Demers, cited by the
  /// paper, transplanted to latencies). ρ = 0 weighs every neighbor
  /// alike; larger ρ avoids slow edges — a concrete answer to the
  /// paper's question whether "a more careful choice of neighbors"
  /// helps, at the price of needing latency knowledge. ρ must be finite
  /// and >= 0.
  PushPullBroadcast(const NetworkView& view, NodeId source, double rho,
                    Rng rng);

  /// Re-arm for a new trial, as if freshly constructed with these
  /// arguments. Allocation-free when the node count is unchanged —
  /// trial sweeps keep one instance per worker in a TrialWorkspace slot
  /// and reset it per trial (DESIGN.md §5h).
  void reset(const NetworkView& view, NodeId source, Rng rng);

  /// Single-rumor push-pull is the paper's "small messages" protocol
  /// (Conclusion): one bit of payload per direction.
  static std::size_t payload_bits(const Payload&) { return 1; }

  /// A uniform pick of an adjacency slot (ρ-weighted for the biased
  /// contact), or nullopt while the leg rule keeps u silent.
  std::optional<HalfEdge> select_contact(NodeId u, Round r);
  Payload capture_payload(NodeId u, Round r) const;
  void deliver(NodeId u, NodeId peer, Payload payload, EdgeId e, Round start,
               Round now, Leg leg);
  bool done(Round r) const;

  bool informed(NodeId u) const { return informed_.test(u); }
  /// Round at which u became informed (-1 if never).
  Round inform_round(NodeId u) const { return inform_round_[u]; }

  /// Churn rejoin-with-reset (sim/engine.h reset_protocol_node): a
  /// returning node forgets the rumor unconditionally — the protocol
  /// stores no source id, so scenarios must spare the source
  /// (DynamicSpec::churn_spare) to keep the broadcast satisfiable.
  void reset_node(NodeId u, Round /*r*/) {
    informed_.reset(u);
    inform_round_[u] = -1;
  }

  /// Freshness hook (sim/freshness.h): the round of u's last
  /// information gain, -1 while uninformed.
  Round last_gain_round(NodeId u) const { return inform_round_[u]; }

 private:
  /// Does the leg rule let a node learn from `leg`?
  bool accepts(Leg leg) const {
    return legs_ == LegRule::kBoth ||
           (leg == Leg::kPush) == (legs_ == LegRule::kPushOnly);
  }
  /// Does the leg rule let u initiate now?
  bool initiates(NodeId u) const {
    return legs_ == LegRule::kBoth ||
           informed_.test(u) == (legs_ == LegRule::kPushOnly);
  }
  /// The latency-biased draw: the index of u's slot, picked with the
  /// cumulative weights (u must have a neighbor). Out of line, so the
  /// uniform path stays small.
  std::size_t weighted_slot(NodeId u);

  NetworkView view_;
  Rng rng_;
  LegRule legs_;
  Bitset informed_;
  std::vector<Round> inform_round_;
  /// Latency-biased contact only (empty otherwise): per node, the
  /// cumulative selection weights over its adjacency list.
  std::vector<std::vector<double>> cumulative_;
};

class PushPullGossip {
 public:
  /// Copy-on-write snapshot handle (util/snapshot.h): capture re-copies
  /// a node's rumor set only after it changed, and scheduling/delivery
  /// move refcounted pointers instead of heap-copying n-bit sets.
  using Payload = SnapshotRef;

  /// `initial_rumors[u]` is u's starting rumor set; for the usual case
  /// use own_id_rumors(). `source` is only meaningful for
  /// GossipGoal::kSingleSource. Round-robin callers pass any `rng`
  /// (conventionally Rng{}): that rule never draws from it.
  PushPullGossip(const NetworkView& view, GossipGoal goal, NodeId source,
                 std::vector<Bitset> initial_rumors, Rng rng,
                 ContactRule rule = ContactRule::kUniform)
      : view_(view),
        goal_(goal),
        source_(source),
        rng_(rng),
        rule_(rule),
        rumors_("push-pull", view.num_nodes(), std::move(initial_rumors)),
        satisfied_(view.num_nodes(), false),
        last_gain_(view.num_nodes(), 0) {
    if (goal == GossipGoal::kSingleSource && source >= view.num_nodes())
      throw std::invalid_argument("push-pull: bad source");
    for (NodeId u = 0; u < view.num_nodes(); ++u) refresh_satisfied(u);
    // Only round-robin reads cursors, so uniform instances skip their
    // n words.
    if (rule == ContactRule::kRoundRobin)
      next_neighbor_.assign(view.num_nodes(), 0);
  }

  /// The free own_id_rumors() (util/bitset.h) under the class's name,
  /// which perfbench/driver.cpp calls.
  static std::vector<Bitset> own_id_rumors(std::size_t n) {
    return latgossip::own_id_rumors(n);
  }

  /// Rumor sets cost ~32 bits per carried rumor id. The count is cached
  /// on the snapshot — no per-payload re-scan.
  static std::size_t payload_bits(const Payload& p) { return 32 * p.count(); }

  /// The adjacency slot the contact rule picks, rebuilt member by member
  /// for the reason given at PushPullBroadcast::select_contact.
  std::optional<HalfEdge> select_contact(NodeId u, Round /*r*/) {
    const auto neigh = view_.neighbors(u);
    if (neigh.empty()) return std::nullopt;
    const HalfEdge& h = rule_ == ContactRule::kUniform
                            ? neigh[rng_.uniform(neigh.size())]
                            : neigh[next_neighbor_[u]++ % neigh.size()];
    return HalfEdge{h.to, h.edge};
  }

  Payload capture_payload(NodeId u, Round /*r*/) {
    return rumors_.capture(u);
  }

  /// Naive always-deep-copy capture for the reference oracle
  /// (RumorTable::capture_copy).
  Payload capture_payload_copy(NodeId u, Round /*r*/) {
    return rumors_.capture_copy(u);
  }

  void deliver(NodeId u, NodeId /*peer*/, Payload payload, EdgeId /*e*/,
               Round /*start*/, Round now, Leg /*leg*/) {
    // A receiver that already holds every rumor cannot gain from any
    // payload; returning before the union avoids touching the payload's
    // (usually cold) snapshot words in the late all-to-all rounds, where
    // most deliveries are no-ops.
    if (rumors_.full(u)) return;
    if (!rumors_.merge(u, payload.bits())) return;
    last_gain_[u] = now;
    if (!satisfied_[u]) refresh_satisfied(u);
  }

  /// Churn rejoin-with-reset: u restarts with only its own rumor (and a
  /// round-robin node at its first neighbor), as a freshly constructed
  /// node would. In-flight payload refs keep their snapshots (the
  /// arena refcounts), and the satisfied bookkeeping is re-derived both
  /// ways — a previously satisfied node can become unsatisfied here,
  /// which the grow-only refresh_satisfied() never handles.
  void reset_node(NodeId u, Round r) {
    rumors_.reset_to(u, u);
    if (rule_ == ContactRule::kRoundRobin) next_neighbor_[u] = 0;
    const bool now_sat = node_satisfied(u);
    if (satisfied_[u] && !now_sat) {
      satisfied_[u] = false;
      --satisfied_count_;
    } else if (!satisfied_[u] && now_sat) {
      satisfied_[u] = true;
      ++satisfied_count_;
    }
    last_gain_[u] = r;
  }

  /// Freshness hook (sim/freshness.h): round of u's last rumor gain.
  Round last_gain_round(NodeId u) const { return last_gain_[u]; }

  /// Warm u's rumor storage + count ahead of deliver(u, ...) — called by
  /// the engine one delivery ahead (sim/engine.h).
  void prefetch_deliver(NodeId u) const noexcept { rumors_.prefetch(u); }

  bool done(Round /*r*/) const {
    return satisfied_count_ == satisfied_.size();
  }

  const std::vector<Bitset>& rumors() const { return rumors_.sets(); }

 private:
  bool node_satisfied(NodeId u) const {
    switch (goal_) {
      case GossipGoal::kSingleSource:
        return rumors_[u].test(source_);
      case GossipGoal::kAllToAll:
        return rumors_.full(u);
      case GossipGoal::kLocalBroadcast:
        for (const HalfEdge& h : view_.neighbors(u))
          if (!rumors_[u].test(h.to)) return false;
        return true;
    }
    return false;
  }

  void refresh_satisfied(NodeId u) {
    if (node_satisfied(u)) {
      satisfied_[u] = true;
      ++satisfied_count_;
    }
  }

  NetworkView view_;
  GossipGoal goal_;
  NodeId source_;
  Rng rng_;
  ContactRule rule_;
  RumorTable rumors_;
  /// kRoundRobin only: each node's next adjacency slot (empty otherwise).
  std::vector<std::size_t> next_neighbor_;
  std::vector<bool> satisfied_;
  std::size_t satisfied_count_ = 0;
  /// Round of each node's last rumor gain (0 for the initial set) —
  /// the freshness metric's raw input.
  std::vector<Round> last_gain_;
};

// ---------------------------------------------------------------------------
// Hot-path definitions. select/capture/deliver run tens of thousands of
// times per simulated second; defining them here (instead of the .cpp)
// lets them inline into run_gossip_impl's event loop — without LTO a
// cross-TU call would block that.

inline std::optional<HalfEdge> PushPullBroadcast::select_contact(NodeId u,
                                                                Round) {
  if (!initiates(u)) return std::nullopt;
  const auto neigh = view_.neighbors(u);
  if (neigh.empty()) return std::nullopt;
  // Member by member, not `return neigh[i]`: GCC 12 copies a slot
  // returned whole through the stack and reloads the optional's
  // byte-stored flag as a wider word, a store-forwarding stall on
  // every activation of the engine loop; built from its two fields,
  // the slot stays in registers. For the same reason both draws yield
  // an index: a weighted draw that returned the optional slot itself
  // sent every contact through the stack, which cost the uniform path
  // about 7% of micro_engine's BM_PushPullBroadcast/4096 (GCC 12.2,
  // -O2, on a 4-vCPU x86-64 VM).
  const HalfEdge& h = neigh[cumulative_.empty() ? rng_.uniform(neigh.size())
                                                : weighted_slot(u)];
  return HalfEdge{h.to, h.edge};
}

inline bool PushPullBroadcast::capture_payload(NodeId u, Round) const {
  return informed_.test(u);
}

inline void PushPullBroadcast::deliver(NodeId u, NodeId, Payload payload,
                                       EdgeId, Round, Round now, Leg leg) {
  if (!accepts(leg)) return;
  if (payload && !informed_.test(u)) {
    informed_.set(u);
    inform_round_[u] = now;
  }
}

inline bool PushPullBroadcast::done(Round) const { return informed_.all_set(); }

}  // namespace latgossip
