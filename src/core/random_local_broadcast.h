#pragma once
// Randomized ℓ-local broadcast — the randomized alternative to ℓ-DTG.
//
// The paper (Section 5.1) notes two known local-broadcast subroutines
// for unweighted graphs: the randomized "Superstep" algorithm of
// Censor-Hillel et al. and Haeupler's deterministic DTG; it builds on
// DTG. This class provides the natural randomized counterpart in our
// latency model, used as a design ablation for EID's discovery phase:
// each superround (of ℓ network rounds), every node that has not yet
// heard all of its G_ℓ neighbors exchanges with a uniformly random
// not-yet-heard G_ℓ neighbor. Rumors relay transitively exactly as in
// DTG (payloads carry accumulated data plus this-invocation session
// coverage).
//
// Expected behavior: completion in O(ℓ · Δ_ℓ-ish) superrounds worst
// case but typically far fewer thanks to relaying; contrast with DTG's
// deterministic O(ℓ log² n). The ablation bench measures both.
//
// Like DTG this requires known latencies and must run with
// SimOptions::stop_when_idle = false.

#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/engine.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/snapshot.h"

namespace latgossip {

class RandomLocalBroadcast {
 public:
  /// Copy-on-write snapshot handles — see DtgLocalBroadcast.
  struct Payload {
    SnapshotRef data;
    SnapshotRef session;
  };

  static std::size_t payload_bits(const Payload& p) {
    return 32 * (p.data.count() + p.session.count());
  }

  RandomLocalBroadcast(const NetworkView& view, Latency ell,
                       std::vector<Bitset> initial_rumors, Rng rng)
      : view_(view),
        ell_(ell),
        rng_(rng),
        data_snaps_(view.num_nodes(), view.num_nodes()),
        session_snaps_(view.num_nodes(), view.num_nodes()) {
    if (!view.latencies_known())
      throw std::invalid_argument(
          "random local broadcast requires the known-latency model");
    if (ell < 1)
      throw std::invalid_argument("random local broadcast: ell must be >= 1");
    const std::size_t n = view.num_nodes();
    if (initial_rumors.size() != n)
      throw std::invalid_argument(
          "random local broadcast: rumor size mismatch");
    master_ = std::move(initial_rumors);
    master_count_.assign(n, 0);
    session_count_.assign(n, 1);
    ell_neighbors_.resize(n);
    session_.reserve(n);
    active_.assign(n, true);
    for (NodeId u = 0; u < n; ++u) {
      if (master_[u].size() != n)
        throw std::invalid_argument(
            "random local broadcast: rumor bitset size mismatch");
      master_[u].set(u);
      master_count_[u] = master_[u].count();
      for (const HalfEdge& h : view.neighbors(u))
        if (view.latency(h.edge) <= ell) ell_neighbors_[u].push_back(h.to);
      Bitset s(n);
      s.set(u);
      session_.push_back(std::move(s));
    }
    active_count_ = n;
  }

  std::optional<NodeId> select_contact(NodeId u, Round r) {
    if (r % ell_ != 0) return std::nullopt;
    if (!active_[u]) return std::nullopt;
    // Collect the not-yet-heard G_ell neighbors and pick one uniformly.
    std::vector<NodeId> missing;
    for (NodeId w : ell_neighbors_[u])
      if (!session_[u].test(w)) missing.push_back(w);
    if (missing.empty()) {
      active_[u] = false;
      --active_count_;
      return std::nullopt;
    }
    return missing[rng_.uniform(missing.size())];
  }

  Payload capture_payload(NodeId u, Round /*r*/) {
    return Payload{data_snaps_.shared(u, master_[u], master_count_[u]),
                   session_snaps_.shared(u, session_[u], session_count_[u])};
  }

  /// Naive deep-copy capture for the reference oracle (sim/oracle.h).
  Payload capture_payload_copy(NodeId u, Round /*r*/) {
    return Payload{data_snaps_.fresh(master_[u], master_count_[u]),
                   session_snaps_.fresh(session_[u], session_count_[u])};
  }

  void deliver(NodeId u, NodeId /*peer*/, Payload payload, EdgeId /*e*/,
               Round /*start*/, Round /*now*/) {
    const Bitset::OrDelta dm =
        master_[u].or_assign_changed(payload.data.bits());
    master_count_[u] += dm.added;
    if (dm.changed) data_snaps_.invalidate(u);
    const Bitset::OrDelta ds =
        session_[u].or_assign_changed(payload.session.bits());
    session_count_[u] += ds.added;
    if (ds.changed) session_snaps_.invalidate(u);
    if (active_[u] && covered(u)) {
      active_[u] = false;
      --active_count_;
    }
  }

  bool done(Round /*r*/) const { return active_count_ == 0; }

  const std::vector<Bitset>& rumors() const { return master_; }
  std::vector<Bitset> take_rumors() { return std::move(master_); }

 private:
  bool covered(NodeId u) const {
    for (NodeId w : ell_neighbors_[u])
      if (!session_[u].test(w)) return false;
    return true;
  }

  NetworkView view_;
  Latency ell_;
  Rng rng_;
  std::vector<std::vector<NodeId>> ell_neighbors_;
  std::vector<Bitset> master_;
  std::vector<Bitset> session_;
  std::vector<std::size_t> master_count_;   ///< incremental cardinalities
  std::vector<std::size_t> session_count_;  ///< incremental cardinalities
  SnapshotCache data_snaps_;
  SnapshotCache session_snaps_;
  std::vector<bool> active_;
  std::size_t active_count_ = 0;
};

}  // namespace latgossip
