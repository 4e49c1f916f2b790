#pragma once
// Reference oracle: a deliberately naive, independently coded
// implementation of the paper's Section-1 communication model, used to
// differentially check the optimized engine (sim/engine.h).
//
// The oracle drives the same Protocol concept as run_gossip(), honors
// the same SimOptions, and emits the same observable event stream
// (activations / deliveries / drops through SimOptions::recorder), but
// shares NO scheduling, adjacency or scenario machinery with the
// engine:
//
//   engine (run_gossip)              oracle (run_gossip_oracle)
//   -------------------------------  --------------------------------
//   calendar queue: one record per   flat in-flight exchange list,
//   exchange in a ring of ℓmax + 1   re-scanned in full every round
//   due-round buckets
//   returned adjacency slot checked  returned slot looked up by a
//   against the edge record          linear walk of u's adjacency
//                                    slice
//   compile-time NoHooks fast path   every hook tested dynamically on
//   + hoisted recorder pointer       every event, always
//   recorder called once per         recorder called once per event
//   drained bucket; leg outcomes
//   marked in the record
//   blocking via outstanding-        blocking via a linear scan of the
//   exchange counters                in-flight list per initiation
//   deliver's leg from the drain     deliver's leg named after the
//   order: each record's push, then  Exchange field that held the payload
//   its response
//   stamp-trick in-degree counters   per-round counter vector,
//   (O(1) reset)                     reallocated every round
//   shared copy-on-write payload     naive private deep copy per
//   snapshots (PayloadTraits::       capture (PayloadTraits::
//   capture)                         capture_private)
//   DynamicPlan: crash table, saved  spec() only: crash log re-derived
//   loss-stream state, churn         and scanned, its own loss and
//   intervals, drift cache           jitter streams, churn and drift
//                                    recomputed per query
//
// The payload row is load-bearing for the COW snapshot work (DESIGN.md
// §5g): the oracle deliberately stays on full copy-at-capture, so any
// stale-snapshot bug in a protocol's dirty-bit bookkeeping shows up as
// an engine-vs-oracle divergence instead of silently corrupting both
// sides the same way.
//
// If the two implementations ever disagree on a SimResult or an event
// multiset fingerprint for the same protocol + seed, one of them has
// drifted from the model. The check framework (src/check/) generates
// random cases, compares both, and shrinks any divergence to a minimal
// counterexample. See DESIGN.md §5f.
//
// Performance is a non-goal here: the oracle is O(rounds · (n + m +
// in-flight)) per round and is only ever run on small property-test
// instances.

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace latgossip {

/// True while a ScopedOracleEngine is alive on this thread; composite
/// algorithm runners (EID, T(k), unified, latency discovery) route
/// their internal simulations through the oracle via dispatch_gossip()
/// (sim/dispatch.h) when set.
bool oracle_engine_active() noexcept;

/// RAII guard selecting the reference oracle for every dispatch_gossip()
/// call on this thread. Nests; the optimized engine is restored when the
/// outermost guard dies. Used by the differential checker to run whole
/// composite algorithms (run_eid, run_tk_schedule, run_unified) against
/// the oracle without touching their code.
class ScopedOracleEngine {
 public:
  ScopedOracleEngine() noexcept;
  ~ScopedOracleEngine();
  ScopedOracleEngine(const ScopedOracleEngine&) = delete;
  ScopedOracleEngine& operator=(const ScopedOracleEngine&) = delete;
};

namespace oracle_detail {

/// Deliberate model bugs, injectable ONLY by tests: the shrinker
/// self-test (tests/shrink_test.cpp) plants a latency off-by-one here
/// and asserts the check framework reduces the resulting divergence to
/// a minimal counterexample. Never set outside tests.
struct ModelBug {
  /// Added to every exchange's effective latency (clamped to >= 1).
  Latency latency_bias = 0;
  /// Suppress the second (initiator-bound, Leg::kResponse) delivery leg
  /// of every exchange — turns the bidirectional exchange into a push.
  bool drop_initiator_leg = false;
  /// Ignore edge-latency drift entirely (the oracle pretends every
  /// drift factor is 1024) — used to prove the shrinker reduces a
  /// dynamics divergence to a tiny case that still drifts.
  bool freeze_drift = false;
  /// Extend every churned node's absence by this many rounds.
  Round churn_absence_bias = 0;
  /// Delay every crash by this many rounds.
  Round crash_delay = 0;
};

/// Does u's adjacency slice contain exactly the half-edge (v, e)?
/// Linear scan — never the engine's edge-record check; independence
/// from the structure under test is the point.
bool scan_adjacency_for(const WeightedGraph& g, NodeId u, NodeId v, EdgeId e);

/// Brute-force interpreters of the DynamicSpec schedule contracts
/// (sim/dynamics_spec.h), coded independently of DynamicPlan: the drift
/// factor is recomputed from round 0 on every query (no incremental
/// cache), and churn is re-derived from the per-node RNG on every
/// question (no precomputed intervals). `absence_bias` is the ModelBug
/// knob — always 0 outside tests.
std::uint64_t oracle_drift_factor(const DynamicSpec& spec, EdgeId e, Round r);
bool oracle_node_absent(const DynamicSpec& spec, NodeId u, Round r,
                        Round absence_bias = 0);
bool oracle_node_resets_at(const DynamicSpec& spec, NodeId u, Round r,
                           Round absence_bias = 0);

/// The crash contract re-derived independently of DynamicPlan's
/// per-node table: crashes are kept as an assignment log (the last
/// entry for a node wins), and the random draw rejects a node by
/// searching that log. `loss` is the fault stream as the draw leaves
/// it — the link-loss stream.
struct OracleFaults {
  std::vector<std::pair<NodeId, Round>> log;
  Rng loss;
};
OracleFaults oracle_faults(const DynamicSpec& spec, std::size_t num_nodes);
/// Linear scan of the log for u's last entry. `delay` is the ModelBug
/// knob — always 0 outside tests.
bool oracle_node_crashed(const OracleFaults& faults, NodeId u, Round r,
                         Round delay = 0);

}  // namespace oracle_detail

/// Reference simulation of `proto` over `g`: same contract, per-round
/// order, and observable behavior as run_gossip() — deliveries due this
/// round (responder leg then initiator leg, in exchange-creation
/// order), done() check, contact selection in node-id order with
/// payload snapshots taken immediately — implemented by brute force.
template <typename P>
  requires GossipProtocol<P>
SimResult run_gossip_oracle(const WeightedGraph& g, P& proto,
                            const SimOptions& opts = {},
                            const oracle_detail::ModelBug& bug = {}) {
  // One record per exchange (the engine keeps two per-leg records in a
  // calendar queue; the oracle deliberately does not).
  struct Exchange {
    NodeId initiator = kInvalidNode;
    NodeId responder = kInvalidNode;
    EdgeId edge = kInvalidEdge;
    Round started = 0;
    Round completes = 0;
    typename P::Payload to_responder;  ///< initiator's snapshot
    typename P::Payload to_initiator;  ///< responder's snapshot
  };

  const std::size_t n = g.num_nodes();
  SimResult result;
  if (n == 0) {
    result.completed = proto.done(0);
    return result;
  }

  std::vector<Exchange> in_flight;

  // Scenario: the oracle reads only the declarative spec and interprets
  // it with the independent brute-force helpers in oracle_detail
  // (sim/oracle.cpp) — never DynamicPlan's tables, caches or streams.
  const DynamicSpec* const dyn =
      opts.dynamics != nullptr ? &opts.dynamics->spec() : nullptr;
  oracle_detail::OracleFaults faults;
  Rng jitter;
  std::vector<char> adv_touched;
  if (dyn) {
    faults = oracle_detail::oracle_faults(*dyn, n);
    jitter = Rng(dyn->jitter_seed);
    if (dyn->adv_active()) {
      adv_touched.assign(n, 0);
      adv_touched[dyn->adv_source] = 1;
    }
  }
  // Crashed or away to churn: u takes no part in round r.
  auto down = [&](NodeId u, Round r) {
    return dyn != nullptr &&
           (oracle_detail::oracle_node_crashed(faults, u, r, bug.crash_delay) ||
            oracle_detail::oracle_node_absent(*dyn, u, r,
                                              bug.churn_absence_bias));
  };

  // One delivery leg: a leg whose either endpoint is down at `now` is a
  // crash-drop; only the other legs draw from the loss stream.
  auto deliver_leg = [&](NodeId to, NodeId from, EdgeId edge, Round started,
                         Round now, Leg leg, typename P::Payload&& payload) {
    const bool crashed = down(to, now) || down(from, now);
    bool dropped = crashed;
    if (!dropped && dyn && dyn->drop_prob > 0.0)
      dropped = faults.loss.bernoulli(dyn->drop_prob);
    if (dropped) {
      ++result.messages_dropped;
      if (opts.recorder)
        opts.recorder->record_drop(to, from, edge, started, now, crashed);
      return;
    }
    proto.deliver(to, from, std::move(payload), edge, started, now, leg);
    ++result.messages_delivered;
    if (opts.recorder)
      opts.recorder->record_delivery(to, from, edge, started, now);
    if (!adv_touched.empty()) adv_touched[to] = 1;
  };

  for (Round r = 0; r <= opts.max_rounds; ++r) {
    // 0. Churn rejoin-with-reset, BEFORE deliveries, ascending node id
    // (matching the engine's resets_at ordering); re-derived per node
    // per round by brute force.
    if (dyn && dyn->churn_active()) {
      for (NodeId u = 0; u < n; ++u) {
        if (oracle_detail::oracle_node_resets_at(*dyn, u, r,
                                                 bug.churn_absence_bias))
          detail::reset_protocol_node(proto, u, r);
      }
    }

    // 1. Deliver every exchange completing this round, in creation
    // order (full scan of the in-flight list; the survivors are
    // compacted into a fresh list — no bucketing, no reuse).
    if (!in_flight.empty()) {
      std::vector<Exchange> survivors;
      survivors.reserve(in_flight.size());
      for (Exchange& x : in_flight) {
        if (x.completes != r) {
          survivors.push_back(std::move(x));
          continue;
        }
        deliver_leg(x.responder, x.initiator, x.edge, x.started, r,
                    Leg::kPush, std::move(x.to_responder));
        if (!bug.drop_initiator_leg)
          deliver_leg(x.initiator, x.responder, x.edge, x.started, r,
                      Leg::kResponse, std::move(x.to_initiator));
      }
      in_flight = std::move(survivors);
    }

    // 2. Termination.
    if (proto.done(r)) {
      result.completed = true;
      result.rounds = r;
      return result;
    }
    if (r == opts.max_rounds) break;

    // 3. Contact selection, node-id order. The per-round in-degree
    // counters are freshly allocated every round (naive on purpose).
    std::vector<std::size_t> incoming(
        opts.max_incoming_per_round > 0 ? n : 0, 0);
    bool any_selected = false;
    for (NodeId u = 0; u < n; ++u) {
      if (down(u, r)) continue;
      if (opts.blocking) {
        // Blocking model: u may not initiate while one of its own
        // exchanges is still in flight — answered by scanning the list.
        const bool busy =
            std::any_of(in_flight.begin(), in_flight.end(),
                        [&](const Exchange& x) { return x.initiator == u; });
        if (busy) continue;
      }

      const std::optional<HalfEdge> contact = proto.select_contact(u, r);
      if (!contact) continue;
      const NodeId peer = contact->to;
      const EdgeId edge = contact->edge;
      if (edge >= g.num_edges())
        throw std::out_of_range("edge id out of range");
      if (!oracle_detail::scan_adjacency_for(g, u, peer, edge))
        throw std::logic_error(
            "protocol selected a contact over a mismatched edge");
      any_selected = true;
      ++result.activations;
      if (opts.recorder) opts.recorder->record_activation(u, peer, edge, r);

      if (opts.max_incoming_per_round > 0 &&
          ++incoming[peer] > opts.max_incoming_per_round) {
        ++result.exchanges_rejected;
        continue;
      }

      Latency lat = g.edge(edge).latency;
      if (dyn && dyn->jitter_spread > 0) {
        lat += jitter.uniform_int(-dyn->jitter_spread, dyn->jitter_spread);
        if (lat < 1) lat = 1;
      }
      // Dynamics compose after jitter: drift (with its own >= 1 clamp),
      // then the adversarial frontier slowdown (see dynamics_spec.h).
      if (dyn && dyn->drift_active() && !bug.freeze_drift) {
        const std::uint64_t f = oracle_detail::oracle_drift_factor(*dyn, edge, r);
        lat = static_cast<Latency>(static_cast<std::uint64_t>(lat) * f / 1024);
        if (lat < 1) lat = 1;
      }
      if (!adv_touched.empty() && adv_touched[u] != adv_touched[peer]) {
        lat = static_cast<Latency>(static_cast<std::uint64_t>(lat) *
                                   dyn->adv_slow / 1024);
      }
      if (bug.latency_bias != 0)
        lat = std::max<Latency>(1, lat + bug.latency_bias);

      Exchange x;
      x.initiator = u;
      x.responder = peer;
      x.edge = edge;
      x.started = r;
      x.completes = r + lat;
      x.to_responder = PayloadTraits<P>::capture_private(proto, u, r);
      x.to_initiator = PayloadTraits<P>::capture_private(proto, peer, r);
      result.payload_bits += detail::payload_bits_of<P>(x.to_responder);
      result.payload_bits += detail::payload_bits_of<P>(x.to_initiator);
      in_flight.push_back(std::move(x));
      // Two delivery legs per exchange, matching the engine's count.
      result.max_inflight =
          std::max(result.max_inflight, 2 * in_flight.size());
    }

    if (opts.stop_when_idle && !any_selected && in_flight.empty()) {
      // An idle stop is final (SimOptions::stop_when_idle).
      result.rounds = r;
      result.completed = proto.done(opts.max_rounds);
      return result;
    }
  }

  result.rounds = opts.max_rounds;
  result.completed = false;
  return result;
}

}  // namespace latgossip
