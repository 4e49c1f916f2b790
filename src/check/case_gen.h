#pragma once
// Seeded random-case generation for the model-conformance framework.
//
// A TestCase is a fully materialized property-test input: an explicit
// edge list (so the shrinker can drop nodes/edges and reduce latencies
// directly), a protocol choice, a seed for all protocol/fault
// randomness, and the engine-model knobs the case exercises. Cases are
// generated from a single RNG, so a (profile, seed) pair reproduces the
// exact case — latgossip_check prints the case seed of any failure.
//
// Composite protocols (unified, EID, T(k)) take no scenario yet: their
// phases would need the scenario plan on the composite clock, and DTG,
// which they and the standalone local broadcasts run, throws when an
// exchange with a linked neighbour is lost. So the fault/blocking/jitter
// knobs and scenarios apply only to the protocols before kLocalDtg;
// random_case() keeps them off elsewhere. What composites do take is a
// round budget over all their internal runs.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "sim/dynamics_spec.h"
#include "util/rng.h"

namespace latgossip {

enum class CheckProto : std::uint8_t {
  kPushPull = 0,    ///< PushPullBroadcast (single-source rumor)
  kPushOnly,        ///< PushPullBroadcast, LegRule::kPushOnly
  kPullOnly,        ///< PushPullBroadcast, LegRule::kResponseOnly
  kBiased,          ///< latency-biased PushPullBroadcast (known latencies)
  kFlooding,        ///< round-robin PushPullGossip, single-source goal
  kGossipAllToAll,  ///< PushPullGossip, all-to-all goal (rumor sets)
  kGossipLocal,     ///< PushPullGossip, local-broadcast goal (rumor sets)
  /// DtgLocalBroadcast, LinkRule::kScript, with ell = tk_estimate
  /// (known latencies, no idle stop).
  kLocalDtg,
  kLocalRandom,     ///< the same, LinkRule::kUniformUnheard
  kUnified,         ///< run_unified (both branches)
  kEid,             ///< run_general_eid (guess-and-double + check)
  kTk,              ///< run_tk_schedule
  kCount,
};

const char* check_proto_name(CheckProto p);
bool check_proto_is_composite(CheckProto p);
/// Does the protocol run under the case's model knobs and scenario?
/// Only the prefix [0, kLocalDtg) does.
bool check_proto_takes_knobs(CheckProto p);

struct TestCase {
  CheckProto proto = CheckProto::kPushPull;
  std::size_t num_nodes = 0;
  std::vector<Edge> edges;  ///< explicit and shrinkable; EdgeId == index
  std::uint64_t seed = 1;   ///< protocol + fault + jitter randomness
  NodeId source = 0;        ///< broadcast source (simple protocols)
  Latency tk_estimate = 1;  ///< T(k)'s k; the local broadcasts' ell
  double rho = 0.0;         ///< latency bias exponent (kBiased only)
  /// kUnified only: run the known-latency branch (Section 5) instead of
  /// the unknown-latency one.
  bool latencies_known = false;
  /// A simple protocol's engine cap; a composite's round budget
  /// (CompositeContext::rounds_left), kUnlimitedRounds unless drawn.
  Round max_rounds = 2000;

  // Engine-model knobs (check_proto_takes_knobs protocols only).
  bool blocking = false;
  std::size_t max_incoming_per_round = 0;
  /// Scenario (sim/dynamics_spec.h): random crashes, link loss, jitter,
  /// drift, churn and the adversary, all off by default. The same
  /// protocols only, like the knobs above — case_valid() rejects other
  /// cases with any knob set. The crash spare and the fault
  /// and jitter seeds are not stored here: scenario_of() derives them
  /// from `source` and `seed`.
  DynamicSpec dynamics;
};

/// The scenario a case runs under: `dynamics` with crash_spare = source
/// and the fault and jitter streams seeded from `seed`.
DynamicSpec scenario_of(const TestCase& tc);

/// Knobs for random_case(); the long-run sweep widens these.
struct CaseProfile {
  std::size_t min_nodes = 2;
  std::size_t max_nodes = 14;
  Latency max_latency = 9;
  bool allow_faults = true;
  bool allow_model_variants = true;  ///< blocking / in-degree / jitter
  bool allow_dynamics = true;        ///< drift / churn / adversary families
  /// Include the local broadcasts and unified / EID / T(k); without
  /// them every case takes knobs.
  bool composites = true;
};

/// One random case. Uses only `rng`; deterministic given its state.
TestCase random_case(Rng& rng, const CaseProfile& profile = {});

/// Build the CSR graph from the explicit edge list. Throws on invalid
/// edge lists (the shrinker filters candidates with case_valid first).
WeightedGraph materialize_graph(const TestCase& tc);

/// Structurally sound: >= 1 node, endpoints in range, latencies >= 1,
/// no duplicate/self-loop edges, source in range, connected. Every
/// generated case and every accepted shrink candidate satisfies this.
bool case_valid(const TestCase& tc);

/// One-line human-readable spec ("pushpull n=7 m=9 seed=42 drop=0.1 …").
std::string describe(const TestCase& tc);

/// Full reproducible dump: spec line(s) plus the graph in graph/io
/// format. latgossip_check writes this as the failure artifact.
void write_case(std::ostream& out, const TestCase& tc);

}  // namespace latgossip
