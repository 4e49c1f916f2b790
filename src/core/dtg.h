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
#include "util/snapshot.h"

namespace latgossip {

class DtgLocalBroadcast {
 public:
  /// Both components are copy-on-write snapshot handles
  /// (util/snapshot.h): a node whose working pair is unchanged since
  /// its last capture hands out the same immutable snapshots again.
  struct Payload {
    SnapshotRef data;     ///< union of accumulated rumor sets
    SnapshotRef session;  ///< this-invocation coverage included
  };

  static std::size_t payload_bits(const Payload& p) {
    return 32 * (p.data.count() + p.session.count());
  }

  /// `initial_rumors[u]` seeds node u's accumulated knowledge (u's own
  /// id is added automatically). Requires view.latencies_known().
  DtgLocalBroadcast(const NetworkView& view, Latency ell,
                    std::vector<Bitset> initial_rumors)
      : ell_(ell),
        data_snaps_(view.num_nodes(), view.num_nodes()),
        session_snaps_(view.num_nodes(), view.num_nodes()) {
    if (!view.latencies_known())
      throw std::invalid_argument(
          "DTG requires the known-latency model (a node must know which "
          "incident edges belong to G_ell)");
    if (ell < 1) throw std::invalid_argument("DTG: ell must be >= 1");
    const std::size_t n = view.num_nodes();
    if (initial_rumors.size() != n)
      throw std::invalid_argument("DTG: rumor vector size mismatch");
    master_ = std::move(initial_rumors);
    master_count_.assign(n, 0);
    ell_neighbors_.resize(n);
    state_.reserve(n);
    for (NodeId u = 0; u < n; ++u) {
      if (master_[u].size() != n)
        throw std::invalid_argument("DTG: rumor bitset size mismatch");
      master_[u].set(u);
      master_count_[u] = master_[u].count();
      for (const HalfEdge& h : view.neighbors(u))
        if (view.latency(h.edge) <= ell) ell_neighbors_[u].push_back(h);
      NodeState st;
      st.linked_set = Bitset(n);
      st.session = Bitset(n);
      st.session.set(u);  // R = {v}
      st.session_count = 1;
      st.work_data = master_[u];
      st.work_data_count = master_count_[u];
      st.work_session = Bitset(n);
      st.work_session.set(u);
      st.work_session_count = 1;
      state_.push_back(std::move(st));
    }
    active_count_ = n;
  }

  std::optional<HalfEdge> select_contact(NodeId u, Round r) {
    if (r % ell_ != 0) return std::nullopt;  // superround boundaries only
    NodeState& st = state_[u];
    if (!st.active) return std::nullopt;

    // At an iteration boundary: decide whether to stop or link anew. The
    // boundary is encoded by an exhausted script (step == linked.size()
    // in kPush2), including the initial state (no links yet).
    const bool at_boundary =
        st.linked.empty() ||
        (st.phase == Phase::kPush2 && st.step >= st.linked.size());
    if (at_boundary) {
      if (covered(u) || !start_iteration(u)) {
        st.active = false;
        --active_count_;
        // The capture source switches from the working pair to
        // (master, session); drop any cached working-pair snapshots.
        data_snaps_.invalidate(u);
        session_snaps_.invalidate(u);
        return std::nullopt;
      }
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
    // Active nodes transmit their pipelined working pair (the behavior
    // the O(log^2 n) analysis relies on); finished nodes answer with all
    // they know.
    const NodeState& st = state_[u];
    if (st.active)
      return Payload{data_snaps_.shared(u, st.work_data, st.work_data_count),
                     session_snaps_.shared(u, st.work_session,
                                           st.work_session_count)};
    return Payload{data_snaps_.shared(u, master_[u], master_count_[u]),
                   session_snaps_.shared(u, st.session, st.session_count)};
  }

  /// Naive deep-copy capture for the reference oracle (sim/oracle.h).
  Payload capture_payload_copy(NodeId u, Round /*r*/) {
    const NodeState& st = state_[u];
    if (st.active)
      return Payload{data_snaps_.fresh(st.work_data),
                     session_snaps_.fresh(st.work_session)};
    return Payload{data_snaps_.fresh(master_[u]),
                   session_snaps_.fresh(st.session)};
  }

  void deliver(NodeId u, NodeId /*peer*/, Payload payload, EdgeId /*e*/,
               Round /*start*/, Round /*now*/, Leg /*leg*/) {
    NodeState& st = state_[u];
    const Bitset::OrDelta dm =
        master_[u].or_assign_changed(payload.data.bits());
    master_count_[u] += dm.added;
    const Bitset::OrDelta ds =
        st.session.or_assign_changed(payload.session.bits());
    st.session_count += ds.added;
    if (st.active) {
      const Bitset::OrDelta dw =
          st.work_data.or_assign_changed(payload.data.bits());
      st.work_data_count += dw.added;
      const Bitset::OrDelta dws =
          st.work_session.or_assign_changed(payload.session.bits());
      st.work_session_count += dws.added;
      // Active captures read the working pair.
      if (dw.changed) data_snaps_.invalidate(u);
      if (dws.changed) session_snaps_.invalidate(u);
    } else {
      // Finished captures read (master, session).
      if (dm.changed) data_snaps_.invalidate(u);
      if (ds.changed) session_snaps_.invalidate(u);
    }
  }

  bool done(Round /*r*/) const { return active_count_ == 0; }

  const std::vector<Bitset>& rumors() const { return master_; }
  std::vector<Bitset> take_rumors() { return std::move(master_); }
  Latency ell() const { return ell_; }

  /// Largest iteration index any node reached (DTG predicts O(log n)).
  std::size_t max_iteration() const { return max_iteration_; }

 private:
  enum class Phase : std::uint8_t { kPush1, kPull1, kPull2, kPush2 };

  struct NodeState {
    std::vector<HalfEdge> linked;  ///< u_1 .. u_i in link order
    Bitset linked_set;           ///< membership mirror of `linked`
    Bitset session;              ///< R: this-invocation rumors received
    Bitset work_data;            ///< R'/R'' data content
    Bitset work_session;         ///< R'/R'' session content
    std::size_t session_count = 0;       ///< cardinality of `session`
    std::size_t work_data_count = 0;     ///< cardinality of `work_data`
    std::size_t work_session_count = 0;  ///< cardinality of `work_session`
    Phase phase = Phase::kPush1;
    std::size_t step = 0;        ///< position within the current phase
    bool active = true;
  };

  /// All G_ℓ neighbor ids of u present in u's session set?
  bool covered(NodeId u) const {
    for (const HalfEdge& h : ell_neighbors_[u])
      if (!state_[u].session.test(h.to)) return false;
    return true;
  }

  /// Start the next iteration for u (links a new neighbor); returns
  /// false if every G_ℓ neighbor was already heard this invocation.
  bool start_iteration(NodeId u) {
    // Link the lowest-id G_ell neighbor not yet heard this invocation;
    // such a neighbor is necessarily unlinked (a direct exchange with a
    // linked neighbor has already delivered its session rumor).
    NodeState& st = state_[u];
    for (const HalfEdge& h : ell_neighbors_[u]) {
      if (st.session.test(h.to)) continue;
      if (st.linked_set.test(h.to))
        throw std::logic_error("DTG invariant: linked neighbor missing rumor");
      st.linked.push_back(h);
      st.linked_set.set(h.to);
      st.phase = Phase::kPush1;
      st.step = 0;
      reset_work(u);
      max_iteration_ = std::max(max_iteration_, st.linked.size());
      return true;
    }
    return false;
  }

  void reset_work(NodeId u) {
    NodeState& st = state_[u];
    st.work_data = master_[u];  // R' = {v}: v's (compound) rumor
    st.work_data_count = master_count_[u];
    st.work_session.clear();
    st.work_session.set(u);
    st.work_session_count = 1;
    data_snaps_.invalidate(u);
    session_snaps_.invalidate(u);
  }

  Latency ell_;
  /// Per node: its G_ℓ adjacency slots, in CSR order (sorted by
  /// neighbor id, which start_iteration's lowest-id rule relies on).
  std::vector<std::vector<HalfEdge>> ell_neighbors_;
  std::vector<Bitset> master_;
  std::vector<std::size_t> master_count_;  ///< incremental cardinalities
  std::vector<NodeState> state_;
  SnapshotCache data_snaps_;
  SnapshotCache session_snaps_;
  std::size_t active_count_ = 0;
  std::size_t max_iteration_ = 0;
};

}  // namespace latgossip
