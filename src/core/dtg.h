#pragma once
// ℓ-DTG: Haeupler's Deterministic Tree Gossip local-broadcast protocol
// executed on G_ℓ (the subgraph of edges with latency <= ℓ), with one
// DTG step simulated as ℓ rounds of the latency network (Section 5.1 and
// Appendix C of the paper; pseudocode Algorithm 5).
//
// Each node v runs, in lockstep "superrounds" of ℓ network rounds:
//
//   R = {v}
//   for i = 1 until Γ_ℓ(v) ⊆ R:
//     link a new neighbor u_i
//     R' = {v};  PUSH: exchange with u_i..u_1;  PULL: exchange with u_1..u_i
//     R'' = {v}; PULL: exchange with u_1..u_i;  PUSH: exchange with u_i..u_1
//     R = R ∪ R' ∪ R''
//
// When DTG is invoked repeatedly (EID's discovery phase, the T(k)
// schedule), a node's "rumor" is its accumulated knowledge from earlier
// invocations, while the termination set R counts only rumors received
// during THIS invocation — Algorithm 5 restarts R = {v} each time. The
// implementation therefore carries two bitsets per payload: the data
// (union of accumulated rumor sets) and the session set (nodes whose
// current-invocation rumor is contained in the payload). Termination
// tests the session set; knowledge accumulates in the data set.
//
// When acting as the active party a node transmits its current working
// pair (the pipelined behavior DTG's O(log² n) analysis relies on); a
// node that already finished answers with everything it knows.
//
// ℓ-DTG requires the known-latency model: a node must know which of its
// incident edges belong to G_ℓ. Within O(ℓ log² n) rounds every node has
// exchanged current rumor sets with all of its G_ℓ neighbors.
//
// The randomized alternative (LinkRule::kUniformUnheard). Section 5.1
// names two local-broadcast subroutines for unweighted graphs: the
// randomized "Superstep" algorithm of Censor-Hillel et al. and
// Haeupler's deterministic DTG; the paper builds on DTG. Under the
// randomized rule, every superround each node that has not yet heard
// all of its G_ℓ neighbors exchanges with a uniformly random unheard
// one, and stops as soon as a delivery covers it. It keeps no working
// pair: rumors relay transitively through the same (data, session)
// payloads. It is typically faster on average but lacks DTG's
// deterministic O(ℓ log² n) bound; EID's discovery phase offers it as
// an ablation (EidOptions::randomized_local_broadcast).
//
// NOTE: the protocol initiates exchanges only at superround boundaries
// (every ℓ rounds); run it with SimOptions::stop_when_idle = false so
// the engine does not mistake the in-between rounds for quiescence.
// done() terminates the run as soon as every node is covered.

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/engine.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/snapshot.h"

namespace latgossip {

/// How a DtgLocalBroadcast node chooses its exchanges.
enum class LinkRule {
  /// Haeupler's script: link the lowest-id unheard G_ℓ neighbor, then
  /// sweep the linked list with the working pair (Algorithm 5).
  kScript,
  /// One uniformly random unheard G_ℓ neighbor per superround, with no
  /// working pair: the randomized alternative.
  kUniformUnheard,
};

class DtgLocalBroadcast {
 public:
  /// Both components are copy-on-write snapshot handles
  /// (util/snapshot.h): a node whose sets are unchanged since its last
  /// capture hands out the same immutable snapshots again.
  struct Payload {
    SnapshotRef data;     ///< union of accumulated rumor sets
    SnapshotRef session;  ///< this-invocation coverage included
  };

  static std::size_t payload_bits(const Payload& p) {
    return 32 * (p.data.count() + p.session.count());
  }

  /// `initial_rumors[u]` seeds node u's accumulated knowledge (u's own
  /// id is added automatically). Requires view.latencies_known(). Only
  /// LinkRule::kUniformUnheard draws from `rng`.
  DtgLocalBroadcast(const NetworkView& view, Latency ell,
                    std::vector<Bitset> initial_rumors,
                    LinkRule rule = LinkRule::kScript, Rng rng = Rng{})
      : ell_(ell),
        rule_(rule),
        rng_(rng),
        data_("DTG", view.num_nodes(), std::move(initial_rumors)),
        session_(view.num_nodes()),
        work_data_(rule == LinkRule::kScript ? view.num_nodes() : 0),
        work_session_(rule == LinkRule::kScript ? view.num_nodes() : 0) {
    if (!view.latencies_known())
      throw std::invalid_argument(
          "DTG requires the known-latency model (a node must know which "
          "incident edges belong to G_ell)");
    if (ell < 1) throw std::invalid_argument("DTG: ell must be >= 1");
    const std::size_t n = view.num_nodes();
    ell_neighbors_.resize(n);
    state_.resize(n);
    for (NodeId u = 0; u < n; ++u) {
      data_.add(u, u);
      if (rule == LinkRule::kScript) work_data_.copy_from(u, data_);
      for (const HalfEdge& h : view.neighbors(u))
        if (view.latency(h.edge) <= ell) ell_neighbors_[u].push_back(h);
    }
    active_count_ = n;
  }

  std::optional<HalfEdge> select_contact(NodeId u, Round r) {
    if (r % ell_ != 0) return std::nullopt;  // superround boundaries only
    NodeState& st = state_[u];
    if (!st.active) return std::nullopt;
    if (rule_ == LinkRule::kUniformUnheard) return pick_unheard(u);

    // At an iteration boundary: decide whether to stop or link anew. The
    // boundary is encoded by an exhausted script (step == linked.size()
    // in kPush2), including the initial state (no links yet).
    const bool at_boundary =
        st.linked.empty() ||
        (st.phase == Phase::kPush2 && st.step >= st.linked.size());
    if (at_boundary && (covered(u) || !start_iteration(u))) {
      stop(u);
      return std::nullopt;
    }

    const std::size_t i = st.linked.size();
    std::size_t partner_index = 0;
    switch (st.phase) {
      case Phase::kPush1:
      case Phase::kPush2:
        partner_index = i - 1 - st.step;  // j = i down to 1
        break;
      case Phase::kPull1:
      case Phase::kPull2:
        partner_index = st.step;  // j = 1 up to i
        break;
    }
    const HalfEdge partner = st.linked[partner_index];

    // Advance the script position past this exchange.
    if (++st.step >= i) {
      st.step = 0;
      switch (st.phase) {
        case Phase::kPush1:
          st.phase = Phase::kPull1;
          break;
        case Phase::kPull1:
          st.phase = Phase::kPull2;
          reset_work(u);  // R'' = {v}
          break;
        case Phase::kPull2:
          st.phase = Phase::kPush2;
          break;
        case Phase::kPush2:
          st.step = i;  // sentinel: boundary reached
          break;
      }
    }
    return partner;
  }

  Payload capture_payload(NodeId u, Round /*r*/) {
    // A scripted node still running transmits its pipelined working
    // pair (the behavior the O(log^2 n) analysis relies on); every
    // other node answers with all it knows.
    if (working(u))
      return Payload{work_data_.capture(u), work_session_.capture(u)};
    return Payload{data_.capture(u), session_.capture(u)};
  }

  /// Naive deep-copy capture for the reference oracle (sim/oracle.h).
  Payload capture_payload_copy(NodeId u, Round /*r*/) {
    if (working(u))
      return Payload{work_data_.capture_copy(u),
                     work_session_.capture_copy(u)};
    return Payload{data_.capture_copy(u), session_.capture_copy(u)};
  }

  void deliver(NodeId u, NodeId /*peer*/, Payload payload, EdgeId /*e*/,
               Round /*start*/, Round /*now*/, Leg /*leg*/) {
    data_.merge(u, payload.data.bits());
    session_.merge(u, payload.session.bits());
    if (working(u)) {
      work_data_.merge(u, payload.data.bits());
      work_session_.merge(u, payload.session.bits());
    } else if (rule_ == LinkRule::kUniformUnheard && state_[u].active &&
               covered(u)) {
      stop(u);  // the randomized rule stops as soon as it is covered
    }
  }

  bool done(Round /*r*/) const { return active_count_ == 0; }

  const std::vector<Bitset>& rumors() const { return data_.sets(); }
  std::vector<Bitset> take_rumors() { return data_.take(); }

  /// Largest iteration index any node reached (DTG predicts O(log n);
  /// always 0 under LinkRule::kUniformUnheard).
  std::size_t max_iteration() const { return max_iteration_; }

 private:
  enum class Phase : std::uint8_t { kPush1, kPull1, kPull2, kPush2 };

  /// A node's place in the script (only `active` under kUniformUnheard).
  struct NodeState {
    std::vector<HalfEdge> linked;  ///< u_1 .. u_i in link order
    Phase phase = Phase::kPush1;
    std::size_t step = 0;          ///< position within the current phase
    bool active = true;
  };

  /// Do u's captures and deliveries use the working pair? Only while a
  /// scripted node still runs.
  bool working(NodeId u) const {
    return rule_ == LinkRule::kScript && state_[u].active;
  }

  /// All G_ℓ neighbor ids of u present in u's session set?
  bool covered(NodeId u) const {
    for (const HalfEdge& h : ell_neighbors_[u])
      if (!session_[u].test(h.to)) return false;
    return true;
  }

  void stop(NodeId u) {
    state_[u].active = false;
    --active_count_;
  }

  /// LinkRule::kUniformUnheard: count u's unheard G_ℓ neighbors, draw
  /// one index uniformly and walk to it; a node with none left stops.
  std::optional<HalfEdge> pick_unheard(NodeId u) {
    const Bitset& heard = session_[u];
    std::size_t missing = 0;
    for (const HalfEdge& h : ell_neighbors_[u])
      if (!heard.test(h.to)) ++missing;
    if (missing == 0) {
      stop(u);
      return std::nullopt;
    }
    std::size_t pick = rng_.uniform(missing);
    for (const HalfEdge& h : ell_neighbors_[u]) {
      if (heard.test(h.to)) continue;
      if (pick-- == 0) return h;
    }
    throw std::logic_error("DTG: unheard pick out of range");
  }

  /// Start the next iteration for u (links a new neighbor); returns
  /// false if every G_ℓ neighbor was already heard this invocation.
  bool start_iteration(NodeId u) {
    // Link the lowest-id G_ell neighbor not yet heard this invocation;
    // such a neighbor is necessarily unlinked (a direct exchange with a
    // linked neighbor has already delivered its session rumor).
    NodeState& st = state_[u];
    for (const HalfEdge& h : ell_neighbors_[u]) {
      if (session_[u].test(h.to)) continue;
      if (std::any_of(st.linked.begin(), st.linked.end(),
                      [&h](const HalfEdge& l) { return l.to == h.to; }))
        throw std::logic_error("DTG invariant: linked neighbor missing rumor");
      st.linked.push_back(h);
      st.phase = Phase::kPush1;
      st.step = 0;
      reset_work(u);
      max_iteration_ = std::max(max_iteration_, st.linked.size());
      return true;
    }
    return false;
  }

  void reset_work(NodeId u) {
    work_data_.copy_from(u, data_);  // R' = {v}: v's (compound) rumor
    work_session_.reset_to(u, u);
  }

  Latency ell_;
  LinkRule rule_;
  Rng rng_;  ///< LinkRule::kUniformUnheard's draws
  /// Per node: its G_ℓ adjacency slots, in CSR order (sorted by
  /// neighbor id, which start_iteration's lowest-id rule relies on).
  std::vector<std::vector<HalfEdge>> ell_neighbors_;
  RumorTable data_;     ///< accumulated knowledge: the rumors
  RumorTable session_;  ///< R: this-invocation rumors received
  /// R'/R'': the working pair, built only under LinkRule::kScript.
  RumorTable work_data_;
  RumorTable work_session_;
  std::vector<NodeState> state_;
  std::size_t active_count_ = 0;
  std::size_t max_iteration_ = 0;
};

}  // namespace latgossip
