#pragma once
// Round-driven simulator for the paper's communication model (Section 1):
//
//  * time proceeds in synchronous rounds;
//  * in each round every node may initiate one bidirectional exchange
//    with one chosen neighbor;
//  * an exchange over an edge of latency ℓ completes ℓ rounds later, at
//    which point each endpoint receives the other's payload as of the
//    initiation round (see DESIGN.md "payload snapshot semantics");
//  * communication is non-blocking: a node may initiate a new exchange
//    every round while earlier ones are still in flight.
//
// Model variations discussed by the paper are supported as options:
//  * blocking communication (Appendix E: the T(k) algorithm "works even
//    when nodes ... wait till the acknowledgement of the previous
//    message") — at most one outstanding self-initiated exchange;
//  * bounded in-degree (Conclusion, citing Daum et al.): a cap on how
//    many incoming initiations a node accepts per round;
//  * node crashes, lossy links and latency jitter (Conclusion:
//    "push-pull is relatively robust to failures, while our other
//    approaches are not"; footnote 1: "due to fluctuations in network
//    quality ... a node cannot necessarily predict the latency"), along
//    with drift, churn and an adversarial schedule — one declarative
//    scenario (sim/dynamics_spec.h) that a DynamicPlan (sim/dynamics.h)
//    implements.
//
// The engine is generic over a Protocol type (duck-typed, checked by the
// GossipProtocol concept below) so payloads stay strongly typed and
// allocation-free where possible.
//
// Hot-path design (see DESIGN.md "Engine internals & performance"):
//  * exchanges in flight live in a calendar queue — a ring of exactly
//    ℓmax + 1 buckets, one record per exchange that drains as its push
//    leg and then its response leg; a bucket reserves its storage when
//    it first receives an exchange and is cleared but never
//    deallocated between rounds, so steady state allocates nothing;
//  * the two observer pointers (recorder, scenario plan) are hoisted
//    out of the per-event loop by a compile-time policy: run_gossip()
//    dispatches to a NoHooks instantiation when neither is set and to
//    the hooked path otherwise, so hook-free runs pay zero
//    test-and-branch per event;
//  * a recorder is called once per drained bucket, not once per event:
//    a scenario marks each leg's outcome in the exchange record, and a
//    folding recorder hashes every record's activation and both legs
//    in one pass once the bucket drains. The activations of exchanges
//    still in flight are folded where the run releases them, and an
//    initiation the in-degree cap rejects as it happens. A log-keeping
//    recorder takes each activation at selection instead, so its log
//    keeps the order the events happened in;
//  * every protocol returns the adjacency slot (HalfEdge{to, edge}) it
//    picked, so the engine reads the exchange's edge straight from the
//    slot — no per-activation find_edge() search — and checks it
//    against the edge record with two compares;
//  * payloads are obtained through the PayloadTraits hook below:
//    rumor-set protocols capture copy-on-write snapshot handles
//    (util/snapshot.h) so scheduling an exchange is allocation-free in
//    steady state, while bool/struct payloads keep the plain by-value
//    path (DESIGN.md §5g).

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "obs/recorder.h"
#include "sim/dynamics.h"
#include "sim/metrics.h"
#include "sim/workspace.h"

namespace latgossip {

/// What a protocol is allowed to see of the network. In the
/// unknown-latency model (Sections 3 and 4) a protocol can enumerate its
/// neighbors but must learn latencies by timing exchanges; in the
/// known-latency model (Section 5) `latency()` is available.
class NetworkView {
 public:
  NetworkView(const WeightedGraph& g, bool latencies_known)
      : graph_(&g), latencies_known_(latencies_known) {}

  std::size_t num_nodes() const { return graph_->num_nodes(); }
  std::size_t degree(NodeId u) const { return graph_->degree(u); }
  std::span<const HalfEdge> neighbors(NodeId u) const {
    return graph_->neighbors(u);
  }
  bool latencies_known() const { return latencies_known_; }

  /// Latency of an edge; only callable in the known-latency model.
  Latency latency(EdgeId e) const {
    if (!latencies_known_)
      throw std::logic_error(
          "protocol queried a latency in the unknown-latency model");
    return graph_->latency(e);
  }

  const WeightedGraph& graph() const { return *graph_; }

 private:
  const WeightedGraph* graph_;
  bool latencies_known_;
};

/// The two legs of an exchange. Both land when the exchange completes.
enum class Leg : std::uint8_t {
  kPush,      ///< the initiator's snapshot reaching the responder
  kResponse,  ///< the responder's snapshot reaching the initiator
};

/// Requirements on a protocol driven by run_gossip():
///  - Payload: the information carried by one direction of an exchange.
///  - select_contact(u, r): the adjacency slot of u's neighbors() that
///    u initiates over in round r — HalfEdge{to, edge}, the peer and
///    the edge joining them (the engine checks that the edge really
///    joins u and `to`) — or nullopt to stay silent.
///  - capture_payload(u, r): snapshot of u's transmitted state.
///  - deliver(u, peer, payload, edge, start, now, leg): u receives
///    peer's snapshot from the exchange initiated at `start`, completing
///    `now`; `leg` says whether u was the responder (kPush) or the
///    initiator (kResponse). Each driver takes the leg from its own
///    records, so no protocol keeps track of its in-flight exchanges.
///  - done(r): global termination predicate, checked after deliveries.
///
/// Optionally a protocol may expose
///    static std::size_t payload_bits(const Payload&)
/// for message-size accounting (Conclusion: push-pull works with small
/// messages, the spanner algorithm does not); without it every payload
/// counts as one bit.
template <typename P>
concept GossipProtocol =
    requires(P p, const P cp, NodeId u, Round r, typename P::Payload pay,
             EdgeId e) {
      typename P::Payload;
      { p.capture_payload(u, r) } -> std::same_as<typename P::Payload>;
      { p.deliver(u, u, std::move(pay), e, r, r, Leg::kPush) };
      { p.select_contact(u, r) } -> std::same_as<std::optional<HalfEdge>>;
      { cp.done(r) } -> std::convertible_to<bool>;
    };

/// Payload-traits hook: how a driver obtains payload snapshots from a
/// protocol. The Delivery records below hold `P::Payload` by value, so
/// protocols whose Payload is a cheap shared handle (util/snapshot.h:
/// copy = refcount bump) schedule and deliver without touching the
/// heap, while `bool`/struct payloads keep today's by-value path with
/// zero overhead — the hook costs nothing when unspecialized.
///
/// capture() is the production path (run_gossip). capture_private() is
/// the reference path (run_gossip_oracle): a protocol whose
/// capture_payload() returns shared copy-on-write snapshots may expose
///     Payload capture_payload_copy(NodeId u, Round r)
/// returning an always-fresh private deep copy; the oracle then stays
/// on naive full copies, so every engine-vs-oracle differential case
/// (src/check/) doubles as a proof that snapshot sharing is
/// observationally equivalent to copy-at-capture. Protocols without
/// the extra method are captured identically on both sides.
template <typename P>
struct PayloadTraits {
  static typename P::Payload capture(P& proto, NodeId u, Round r) {
    return proto.capture_payload(u, r);
  }
  static typename P::Payload capture_private(P& proto, NodeId u, Round r) {
    if constexpr (requires {
                    {
                      proto.capture_payload_copy(u, r)
                    } -> std::same_as<typename P::Payload>;
                  }) {
      return proto.capture_payload_copy(u, r);
    } else {
      return proto.capture_payload(u, r);
    }
  }
};

namespace detail {

/// Payloads that expose prefetch() (SnapshotRef: warm the snapshot
/// block's cache lines) get prefetched one delivery ahead in the due
/// loop; for everything else this compiles to nothing. Protocols may
/// additionally expose prefetch_deliver(NodeId) to warm the receiver's
/// per-node state (the union destination) the same way.
template <typename P>
inline void prefetch_payload(const typename P::Payload& pay) {
  if constexpr (requires { pay.prefetch(); }) pay.prefetch();
}

template <typename P>
inline void prefetch_receiver(const P& proto, NodeId to) {
  if constexpr (requires { proto.prefetch_deliver(to); })
    proto.prefetch_deliver(to);
}

template <typename P>
std::size_t payload_bits_of(const typename P::Payload& pay) {
  if constexpr (requires {
                  { P::payload_bits(pay) } -> std::convertible_to<std::size_t>;
                }) {
    return P::payload_bits(pay);
  } else {
    return 1;
  }
}

}  // namespace detail

/// Observer lifetime contract: `recorder` and `dynamics` are borrowed
/// pointers, never owned. Their owners must outlive every run_gossip()
/// call made with these options; clear the pointer before reusing the
/// options object once an owner is gone.
struct SimOptions {
  Round max_rounds = 1'000'000;
  /// Stop once no exchange is in flight and no node selected a contact
  /// this round. An idle stop is final: nothing can change any more, so
  /// the run reports `completed = done(max_rounds)`, the goal judged on
  /// the frozen state. A timer goal such as RR broadcast's therefore
  /// counts as reached once its legs have drained. Protocols that rest
  /// between initiations turn idle stop off: DTG between superrounds,
  /// and probes, which run their whole window.
  bool stop_when_idle = true;
  /// Blocking communication: a node may not initiate while one of its
  /// own initiations is still outstanding (Appendix E's stricter model).
  bool blocking = false;
  /// Cap on accepted incoming initiations per node per round; excess
  /// exchanges fail entirely (neither side receives anything). 0 = off.
  std::size_t max_incoming_per_round = 0;
  /// Structured event recorder (obs/recorder.h): the engine reports
  /// activations, deliveries and drops through this raw pointer, one
  /// call per drained bucket. One recorder per concurrent trial (the
  /// recorder is not thread-safe). After a run that throws, the recorder
  /// holds every activation the run made and the legs of every bucket
  /// that drained in full; the legs of the bucket draining when the
  /// exception left are not recorded.
  EventRecorder* recorder = nullptr;
  /// Reusable per-thread scratch (sim/workspace.h). When set, the engine
  /// keeps its calendar-queue state in a workspace slot instead of run-
  /// local vectors, so back-to-back runs on similar graphs allocate
  /// nothing (DESIGN.md §5h). Not owned; never alters results — every
  /// reused structure is reset to its fresh-run state before use, and
  /// pending payloads are released before run_gossip returns. run_trials
  /// hands each trial its worker's workspace; direct callers may pass
  /// trial_workspace() themselves.
  TrialWorkspace* workspace = nullptr;
  /// Scenario: crashes, link loss, jitter, drift, churn and the
  /// adversary (sim/dynamics_spec.h). The engine rewinds the plan with
  /// begin_run() as each run starts; one plan per concurrent trial.
  DynamicPlan* dynamics = nullptr;

  /// True iff the recorder or a scenario is set; runs without either
  /// take the compile-time NoHooks fast path through the event loop.
  bool any_hooks() const {
    return recorder != nullptr || dynamics != nullptr;
  }
};

namespace detail {

/// One scheduled exchange, parameterized on the protocol's payload
/// type so EngineState below can persist buckets across runs. It lands
/// as two legs, in this order: the push (`push` reaches `peer`) and the
/// response (`pull` reaches `u`, which unblocks `u` in the blocking
/// model). The two leg outcomes sit in padding the record has anyway;
/// the recorder reads them when the bucket drains.
template <typename PayloadT>
struct EngineDelivery {
  NodeId u;     ///< the initiator
  NodeId peer;  ///< the responder
  EdgeId edge;
  /// How each leg ended: delivered (zero) unless a scenario dropped it.
  LegOutcome push_outcome;
  LegOutcome pull_outcome;
  Round start;
  PayloadT push;  ///< u's snapshot at `start`
  PayloadT pull;  ///< peer's snapshot at `start`
};
static_assert(sizeof(EngineDelivery<bool>) == 32,
              "the leg outcomes must fit the record's padding");

/// The engine's per-run storage, extracted so a TrialWorkspace can keep
/// it alive between runs: the calendar queue (a ring of exchange
/// buckets, round r's bucket at r % slots.size()) plus the blocking /
/// bounded-in-degree bookkeeping vectors. prepare() restores the exact
/// fresh-run state while keeping every allocation — in the trial-sweep
/// steady state (same graph shape run after run) it allocates nothing.
/// One state per payload type per workspace; protocols sharing a payload
/// type share the state, which is safe because runs on one workspace are
/// sequential (in_use guards the one exception: a run nested inside
/// another run, say from a protocol callback, falls back to run-local
/// state).
template <typename PayloadT>
class EngineState {
 public:
  using Delivery = EngineDelivery<PayloadT>;

  std::vector<std::vector<Delivery>> slots;
  std::vector<std::size_t> outstanding;    ///< blocking model
  std::vector<Round> incoming_stamp;       ///< bounded in-degree
  std::vector<std::size_t> incoming_count;
  bool in_use = false;

  /// Reset to fresh-run state for a latency horizon and node count. A
  /// ring from an earlier run is kept when it has at least `horizon`
  /// buckets, and buckets keep their storage; contents never survive
  /// (release_pending() empties every bucket on run exit). A ring far
  /// larger than the horizon, left by one run over a very slow link, is
  /// replaced by a fresh one of `horizon` buckets instead of being held
  /// for the workspace's lifetime; the 4x / 2^16 slack keeps a sweep on
  /// one graph, and a ring jitter grew, from ever reallocating.
  void prepare(std::size_t horizon, std::size_t n, bool blocking,
               bool bounded_indegree) {
    constexpr std::size_t kAlwaysKept = std::size_t{1} << 16;
    if (slots.size() > std::max(4 * horizon, kAlwaysKept))
      slots = std::vector<std::vector<Delivery>>(horizon);
    else if (slots.size() < horizon)
      slots.resize(horizon);
    if (blocking)
      outstanding.assign(n, 0);
    else
      outstanding.clear();
    if (bounded_indegree) {
      incoming_stamp.assign(n, -1);
      incoming_count.assign(n, 0);
    } else {
      incoming_stamp.clear();
      incoming_count.clear();
    }
  }

  /// Re-bucket into a ring of at least `need` buckets, doubling (latency
  /// jitter stretched a latency past the ring). Called while round `now`
  /// schedules, after its bucket drained, so every pending exchange is
  /// due in (now, now + size]: a bucket's distance ahead of now's bucket
  /// names its due round, and the exchanges move to due % new size.
  void grow(std::size_t need, Round now) {
    const std::size_t size = slots.size();
    std::size_t new_size = size;
    while (new_size < need) new_size *= 2;
    std::vector<std::vector<Delivery>> grown(new_size);
    const auto base = static_cast<std::size_t>(now);
    const std::size_t cursor = base % size;
    for (std::size_t i = 0; i < size; ++i) {
      if (slots[i].empty()) continue;
      const std::size_t ahead = i > cursor ? i - cursor : i + size - cursor;
      grown[(base + ahead) % new_size] = std::move(slots[i]);
    }
    slots = std::move(grown);
  }

  /// Destroy every pending delivery (payloads included). Runs on every
  /// run_gossip exit path — max_rounds, idle, exception — so payload
  /// handles (SnapshotRefs into a protocol's arena) never outlive the
  /// protocol that owns their storage.
  void release_pending() noexcept {
    for (auto& slot : slots) slot.clear();
  }
};

/// Re-initialise node u's protocol state at round r (churn rejoin with
/// reset). Protocols opt in by exposing reset_node(NodeId, Round);
/// protocols without it retain their state across a rejoin — both the
/// engine and the oracle route resets through this one helper, so the
/// opt-in is consistent on both sides of the differential check.
template <typename P>
inline void reset_protocol_node(P& proto, NodeId u, Round r) {
  if constexpr (requires { proto.reset_node(u, r); }) proto.reset_node(u, r);
}

/// Engine core, instantiated twice per protocol: kHooked=false elides
/// every recorder and scenario test from the loops; kHooked=true is the
/// observed path. Both produce bit-identical results for the same seed
/// when no scenario alters behavior (covered by engine_test).
template <bool kHooked, typename P>
SimResult run_gossip_impl(const WeightedGraph& g, P& proto,
                          const SimOptions& opts) {
  using Delivery = EngineDelivery<typename P::Payload>;
  using State = EngineState<typename P::Payload>;

  const std::size_t n = g.num_nodes();
  // Hoisted: the recorder pointer is read once, not through `opts` on
  // every event (it cannot change mid-run; see the lifetime contract).
  [[maybe_unused]] EventRecorder* const recorder =
      kHooked ? opts.recorder : nullptr;
  // A log-keeping recorder takes each activation at selection, so its
  // log keeps the order events happen in; a folding one takes it with
  // the exchange's legs.
  [[maybe_unused]] bool log_activations = false;
  if constexpr (kHooked)
    log_activations = recorder != nullptr && recorder->keeps_log();
  [[maybe_unused]] DynamicPlan* const plan =
      kHooked ? opts.dynamics : nullptr;
  if constexpr (kHooked) {
    if (plan) plan->begin_run();
  }
  SimResult result;
  if (n == 0) {
    result.completed = proto.done(0);
    return result;
  }

  // Calendar queue: an exchange due at absolute round d lives in slot
  // d % capacity, and a cursor holds round r's slot, r % capacity. The
  // ring has at least ℓmax + 1 slots and round r's slot drains before r
  // schedules, so every due round in the pending window
  // (now, now + capacity] owns a distinct slot. Buckets are cleared
  // after draining but keep their storage — steady state schedules
  // without allocating. Jitter may stretch a latency past the ring;
  // grow() re-buckets.
  //
  // The queue lives in the caller's TrialWorkspace when one is supplied
  // (so the next run on this thread reuses the buckets) and falls back
  // to run-local state otherwise — or when the workspace slot is
  // already driving an enclosing run (a run_gossip nested inside a
  // protocol callback), which keeps reuse transparent even for
  // re-entrant callers.
  State local_state;
  State* state = &local_state;
  if (opts.workspace != nullptr) {
    State& shared = opts.workspace->slot<State>();
    if (!shared.in_use) state = &shared;
  }
  State& st = *state;
  const auto horizon =
      static_cast<std::size_t>(std::max<Latency>(g.max_latency(), 1)) + 1;
  st.prepare(horizon, n, opts.blocking, opts.max_incoming_per_round > 0);
  st.in_use = true;
  struct StateGuard {
    State& st;
    EventRecorder* recorder;
    ~StateGuard() {
      if constexpr (kHooked) {
        // Exchanges still in flight never land; a folding recorder is
        // still owed their activations.
        if (recorder) {
          for (const auto& slot : st.slots)
            recorder->record_unfinished(std::span<const Delivery>(slot));
          recorder->end_run();
        }
      }
      st.release_pending();
      st.in_use = false;
    }
  } state_guard{st, recorder};
  if constexpr (kHooked) {
    if (recorder) recorder->begin_run();
  }

  auto& slots = st.slots;
  std::size_t capacity = slots.size();
  std::size_t cursor = 0;
  // A bucket reserves the dense steady state (each round schedules at
  // most n exchanges, and doubling growth would land a busy bucket near
  // n anyway) when it first receives an exchange, so slots no exchange
  // lands in cost nothing; the cap keeps the footprint polite at large
  // n.
  const std::size_t bucket_hint =
      std::min<std::size_t>(n, std::size_t{1} << 15);
  // Legs in flight, two per exchange.
  std::size_t inflight = 0;

  // One leg of a drained exchange: `to` receives `from`'s snapshot. A
  // dropped leg marks its `outcome` for the recorder.
  auto land = [&](NodeId to, NodeId from, typename P::Payload& payload,
                  const Delivery& d, [[maybe_unused]] LegOutcome& outcome,
                  Leg leg, Round now) {
    if constexpr (kHooked) {
      // A leg touching a crashed or churned-away endpoint is a crash
      // drop; only the other legs draw from the loss stream.
      if (plan) {
        const bool crashed = plan->down(to, now) || plan->down(from, now);
        if (crashed || plan->drop_leg()) {
          ++result.messages_dropped;
          outcome = crashed ? LegOutcome::kCrashed : LegOutcome::kDropped;
          return;
        }
      }
    }
    proto.deliver(to, from, std::move(payload), d.edge, d.start, now, leg);
    ++result.messages_delivered;
    if constexpr (kHooked) {
      if (plan) plan->note_delivery(to);
    }
  };

  // Blocking-model bookkeeping: outstanding self-initiated exchanges.
  auto& outstanding = st.outstanding;
  // Bounded in-degree bookkeeping (stamp trick: O(1) per-round reset).
  auto& incoming_stamp = st.incoming_stamp;
  auto& incoming_count = st.incoming_count;

  for (Round r = 0; r <= opts.max_rounds; ++r) {
    // 0. Churn rejoin-with-reset: re-initialise returning nodes before
    // any delivery of this round can reach them.
    if constexpr (kHooked) {
      if (plan) {
        for (const NodeId u : plan->resets_at(r))
          detail::reset_protocol_node(proto, u, r);
      }
    }

    // 1. Deliveries due now. Within the pending window, any exchange in
    // this slot is due exactly at r (see the capacity invariant above).
    // Each drains as its push leg and then its response leg.
    auto& due = slots[cursor];
    if (!due.empty()) {
      for (std::size_t i = 0; i < due.size(); ++i) {
        auto& d = due[i];
        detail::prefetch_payload<P>(d.pull);
        detail::prefetch_receiver(proto, d.u);
        land(d.peer, d.u, d.push, d, d.push_outcome, Leg::kPush, r);
        if (i + 1 < due.size()) {
          detail::prefetch_payload<P>(due[i + 1].push);
          detail::prefetch_receiver(proto, due[i + 1].peer);
        }
        // The response leg completes the initiator's round trip even if
        // its content is lost.
        if (opts.blocking && outstanding[d.u] > 0) --outstanding[d.u];
        land(d.u, d.peer, d.pull, d, d.pull_outcome, Leg::kResponse, r);
      }
      if constexpr (kHooked) {
        if (recorder)
          recorder->record_drained(std::span<const Delivery>(due), r);
      }
      inflight -= 2 * due.size();
      due.clear();  // storage retained for bucket reuse
    }

    // 2. Termination.
    if (proto.done(r)) {
      result.completed = true;
      result.rounds = r;
      return result;
    }
    if (r == opts.max_rounds) break;

    // 3. Contact selection.
    bool any_selected = false;
    for (NodeId u = 0; u < n; ++u) {
      if constexpr (kHooked) {
        if (plan && plan->down(u, r)) continue;
      }
      if (opts.blocking && outstanding[u] > 0) continue;

      const std::optional<HalfEdge> contact = proto.select_contact(u, r);
      if (!contact) continue;
      const NodeId peer = contact->to;
      const EdgeId edge = contact->edge;
      const Edge& rec = g.edge(edge);  // bounds-checked
      if (!((rec.u == u && rec.v == peer) || (rec.v == u && rec.u == peer)))
        throw std::logic_error(
            "protocol selected a contact over a mismatched edge");
      Latency lat = rec.latency;
      any_selected = true;
      ++result.activations;
      if constexpr (kHooked) {
        if (log_activations) recorder->record_activation(u, peer, edge, r);
      }

      // Bounded in-degree: the responder may reject the initiation.
      if (opts.max_incoming_per_round > 0) {
        if (incoming_stamp[peer] != r) {
          incoming_stamp[peer] = r;
          incoming_count[peer] = 0;
        }
        if (++incoming_count[peer] > opts.max_incoming_per_round) {
          ++result.exchanges_rejected;
          if constexpr (kHooked) {
            if (recorder && !log_activations)
              recorder->record_activation(u, peer, edge, r);
          }
          continue;
        }
      }

      if constexpr (kHooked) {
        if (plan) {
          lat = plan->adjust_latency(u, peer, edge, lat, r);
          if (lat < 1) lat = 1;
          if (static_cast<std::size_t>(lat) > capacity) {
            st.grow(static_cast<std::size_t>(lat) + 1, r);
            capacity = slots.size();
            cursor = static_cast<std::size_t>(r) % capacity;
          }
        }
      }
      // lat <= capacity, so one compare wraps the target slot.
      std::size_t target = cursor + static_cast<std::size_t>(lat);
      if (target >= capacity) target -= capacity;
      auto& bucket = slots[target];
      if (bucket.capacity() < bucket_hint) [[unlikely]]
        bucket.reserve(bucket_hint);
#if defined(__GNUC__) || defined(__clang__)
      // Issue the write-allocate for the target bucket's tail while the
      // payload captures below run; the push_back then lands on a warm
      // line instead of stalling on a read-for-ownership miss.
      __builtin_prefetch(bucket.data() + bucket.size(), /*rw=*/1,
                         /*locality=*/1);
#endif
      // Initiator's snapshot travels to the responder and vice versa.
      auto push = PayloadTraits<P>::capture(proto, u, r);
      auto pull = PayloadTraits<P>::capture(proto, peer, r);
      result.payload_bits += detail::payload_bits_of<P>(push);
      result.payload_bits += detail::payload_bits_of<P>(pull);
      bucket.push_back(Delivery{u, peer, edge, LegOutcome::kDelivered,
                                LegOutcome::kDelivered, r, std::move(push),
                                std::move(pull)});
      inflight += 2;
      if (opts.blocking) ++outstanding[u];
      result.max_inflight = std::max(result.max_inflight, inflight);
    }

    if (opts.stop_when_idle && !any_selected && inflight == 0) {
      // Nothing can change any more, so the goal is judged on the
      // frozen state as of the last round the run was allowed.
      result.rounds = r;
      result.completed = proto.done(opts.max_rounds);
      return result;
    }
    if (++cursor == capacity) cursor = 0;
  }

  result.rounds = opts.max_rounds;
  result.completed = false;
  return result;
}

}  // namespace detail

/// Drive `proto` over `g` until done(), idle, or max_rounds.
///
/// Per-round order: (1) deliveries scheduled for this round (both
/// endpoints of each completed exchange), (2) done() check, (3) contact
/// selection in node-id order with payload snapshots taken immediately.
///
/// Dispatches to a hook-free fast instantiation when neither a recorder
/// nor a scenario is set; both paths are semantically identical.
template <typename P>
  requires GossipProtocol<P>
SimResult run_gossip(const WeightedGraph& g, P& proto,
                     const SimOptions& opts = {}) {
  return opts.any_hooks() ? detail::run_gossip_impl<true>(g, proto, opts)
                          : detail::run_gossip_impl<false>(g, proto, opts);
}

}  // namespace latgossip
