#include "check/case_gen.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/latency_models.h"
#include "obs/metrics.h"
#include "sim/dynamics.h"

namespace latgossip {
namespace {

/// Budgets are drawn from [1, kBudgetSpan].
constexpr std::uint64_t kBudgetSpan = 128;

enum class Family : std::uint8_t {
  kPath = 0,
  kCycle,
  kStar,
  kClique,
  kGrid,
  kBinaryTree,
  kErdosRenyi,
  kRandomRegular,
  kRingOfCliques,
  kDumbbell,
  kCount,
};

WeightedGraph random_topology(Rng& rng, const CaseProfile& profile,
                              std::size_t n) {
  const auto family =
      static_cast<Family>(rng.uniform(static_cast<std::uint64_t>(Family::kCount)));
  switch (family) {
    case Family::kPath:
      return make_path(n);
    case Family::kCycle:
      return n >= 3 ? make_cycle(n) : make_path(n);
    case Family::kStar:
      return make_star(n);
    case Family::kClique:
      return make_clique(n);
    case Family::kGrid: {
      std::size_t rows = 2 + rng.uniform(3);
      while (rows > 1 && rows * 2 > n) --rows;
      if (rows <= 1) return make_path(n);
      const std::size_t cols = n / rows;
      const bool wrap = rows >= 3 && cols >= 3 && rng.bernoulli(0.3);
      return make_grid(rows, cols, wrap);
    }
    case Family::kBinaryTree:
      return make_binary_tree(n);
    case Family::kErdosRenyi: {
      const double p = 0.25 + 0.5 * rng.uniform_double();
      return make_erdos_renyi(n, p, rng, 256);
    }
    case Family::kRandomRegular: {
      std::size_t d = 2 + rng.uniform(3);
      if (d >= n) d = n - 1;
      if ((n * d) % 2 != 0) {
        if (d + 1 < n) ++d; else --d;
      }
      if (d == 0) return make_path(n);
      return make_random_regular(n, d, rng, 512);
    }
    case Family::kRingOfCliques: {
      const std::size_t cliques = 3 + rng.uniform(2);
      const std::size_t size = std::max<std::size_t>(2, n / cliques);
      return make_ring_of_cliques(cliques, size);
    }
    case Family::kDumbbell: {
      const std::size_t size = std::max<std::size_t>(2, n / 3);
      return make_dumbbell(size, 1 + rng.uniform(3));
    }
    case Family::kCount:
      break;
  }
  return make_path(n);
  (void)profile;
}

// Dynamic-scenario topology families (ISSUE: drifting ER, churning
// ring/torus, adversarial-schedule star/path): each scenario gets the
// graph shapes where its behavior is most distinctive, instead of a
// uniform draw over all ten families.
WeightedGraph dynamic_topology(Rng& rng, int scenario, std::size_t n) {
  switch (scenario) {
    case 0: {  // drifting Erdős–Rényi
      const double p = 0.3 + 0.4 * rng.uniform_double();
      return make_erdos_renyi(n, p, rng, 256);
    }
    case 1: {  // churning ring / torus
      if (n >= 9 && rng.bernoulli(0.5)) {
        const std::size_t cols = n / 3;
        return make_grid(3, cols, /*wrap=*/true);
      }
      return n >= 3 ? make_cycle(n) : make_path(n);
    }
    default:  // adversarial-schedule star / path
      return rng.bernoulli(0.5) ? make_star(n) : make_path(n);
  }
}

void random_latencies(Rng& rng, const CaseProfile& profile, WeightedGraph& g) {
  switch (rng.uniform(4)) {
    case 0:
      break;  // unit latencies as generated
    case 1:
      assign_random_uniform_latency(g, 1, profile.max_latency, rng);
      break;
    case 2:
      assign_two_level_latency(g, 1, profile.max_latency,
                               0.3 + 0.4 * rng.uniform_double(), rng);
      break;
    default:
      assign_uniform_latency(
          g, 1 + static_cast<Latency>(
                     rng.uniform(static_cast<std::uint64_t>(profile.max_latency))));
      break;
  }
}

}  // namespace

const char* check_proto_name(CheckProto p) {
  switch (p) {
    case CheckProto::kPushPull: return "pushpull";
    case CheckProto::kPushOnly: return "pushonly";
    case CheckProto::kPullOnly: return "pullonly";
    case CheckProto::kBiased: return "biased";
    case CheckProto::kFlooding: return "flooding";
    case CheckProto::kGossipAllToAll: return "gossip_a2a";
    case CheckProto::kGossipLocal: return "gossip_local";
    case CheckProto::kLocalDtg: return "local_dtg";
    case CheckProto::kLocalRandom: return "local_random";
    case CheckProto::kUnified: return "unified";
    case CheckProto::kEid: return "eid";
    case CheckProto::kTk: return "tk";
    case CheckProto::kCount: break;
  }
  return "?";
}

bool check_proto_is_composite(CheckProto p) {
  return p == CheckProto::kUnified || p == CheckProto::kEid ||
         p == CheckProto::kTk;
}

bool check_proto_takes_knobs(CheckProto p) {
  return p < CheckProto::kLocalDtg;
}

TestCase random_case(Rng& rng, const CaseProfile& profile) {
  TestCase tc;
  // Knob-taking protocols are the contiguous prefix [0, kLocalDtg).
  const std::uint64_t proto_pool = static_cast<std::uint64_t>(
      profile.composites ? CheckProto::kCount : CheckProto::kLocalDtg);
  tc.proto = static_cast<CheckProto>(rng.uniform(proto_pool));

  // Dynamic scenario (drift / churn / adversary), knob-taking protocols
  // only; chosen before the topology so each scenario can steer the
  // graph family (drifting ER, churning ring/torus, adversarial
  // star/path).
  int dyn_scenario = -1;
  if (profile.allow_dynamics && check_proto_takes_knobs(tc.proto) &&
      rng.bernoulli(0.25))
    dyn_scenario = static_cast<int>(rng.uniform(3));

  const std::size_t span = profile.max_nodes - profile.min_nodes + 1;
  const std::size_t n = profile.min_nodes + rng.uniform(span);
  WeightedGraph g = dyn_scenario >= 0 ? dynamic_topology(rng, dyn_scenario, n)
                                      : random_topology(rng, profile, n);
  random_latencies(rng, profile, g);
  tc.num_nodes = g.num_nodes();
  tc.edges = g.edges();
  tc.seed = rng() | 1;  // nonzero
  tc.source = static_cast<NodeId>(rng.uniform(tc.num_nodes));
  tc.tk_estimate = 1 + static_cast<Latency>(rng.uniform(8));
  if (tc.proto == CheckProto::kBiased) {
    // ρ = 0 runs the weighted draw with equal weights; 2 shuns slow
    // edges. Each prints exactly, so a dumped case reproduces.
    constexpr double kRhos[] = {0.0, 0.5, 2.0};
    tc.rho = kRhos[rng.uniform(3)];
  }
  // Unified runs either branch; the draw comes last among the fields a
  // unified case reads, so the case's other fields are as before.
  if (tc.proto == CheckProto::kUnified) tc.latencies_known = rng.bernoulli(0.5);

  if (dyn_scenario >= 0) {
    DynamicSpec& d = tc.dynamics;
    d.seed = rng() | 1;
    switch (dyn_scenario) {
      case 0:
        d.drift_step = static_cast<std::uint32_t>(16u << rng.uniform(4));
        d.drift_bound = rng.bernoulli(0.5) ? 2048 : 4096;
        break;
      case 1:
        d.churn_prob = 0.3 + 0.4 * rng.uniform_double();
        d.churn_window = 6 + static_cast<Round>(rng.uniform(10));
        d.churn_absence = 2 + static_cast<Round>(rng.uniform(8));
        d.churn_mode = static_cast<std::uint8_t>(rng.uniform(3));
        d.churn_spare = tc.source;
        break;
      default:
        d.adv_slow = 2048 + static_cast<std::uint32_t>(rng.uniform(2049));
        d.adv_source = tc.source;
        break;
    }
  }

  // Give non-terminating (faulted) runs a bounded but roomy horizon.
  if (!check_proto_is_composite(tc.proto))
    tc.max_rounds =
        500 + static_cast<Round>(tc.num_nodes) * 8 * g.max_latency();
  if (check_proto_takes_knobs(tc.proto)) {
    if (profile.allow_model_variants) {
      tc.blocking = rng.bernoulli(0.15);
      if (rng.bernoulli(0.15))
        tc.max_incoming_per_round = 1 + rng.uniform(2);
      if (rng.bernoulli(0.2))
        tc.dynamics.jitter_spread = 1 + static_cast<Latency>(rng.uniform(3));
    }
    if (profile.allow_faults && rng.bernoulli(0.4)) {
      if (rng.bernoulli(0.6) && tc.num_nodes > 2)
        tc.dynamics.crash_count = 1 + rng.uniform(std::min<std::uint64_t>(
                                          2, tc.num_nodes - 2));
      tc.dynamics.crash_round = static_cast<Round>(rng.uniform(10));
      if (rng.bernoulli(0.6))
        tc.dynamics.drop_prob = 0.05 + 0.3 * rng.uniform_double();
    }
  }
  // About one composite case in four runs under a round budget small
  // enough to cut most runs mid-phase. Drawn after every field a
  // composite case reads, so those stay as before.
  if (check_proto_is_composite(tc.proto))
    tc.max_rounds = rng.bernoulli(0.25)
                        ? 1 + static_cast<Round>(rng.uniform(kBudgetSpan))
                        : kUnlimitedRounds;
  return tc;
}

DynamicSpec scenario_of(const TestCase& tc) {
  // Salts keep the fault and jitter streams apart from the protocol's
  // own Rng(seed).
  constexpr std::uint64_t kFaultSeedSalt = 0x9e3779b97f4a7c15ULL;
  constexpr std::uint64_t kJitterSeedSalt = 0xda3e39cb94b95bdbULL;
  DynamicSpec spec = tc.dynamics;
  spec.crash_spare = tc.source;
  spec.fault_seed = tc.seed ^ kFaultSeedSalt;
  spec.jitter_seed = tc.seed ^ kJitterSeedSalt;
  return spec;
}

WeightedGraph materialize_graph(const TestCase& tc) {
  GraphBuilder b(tc.num_nodes);
  for (const Edge& e : tc.edges) b.add_edge(e.u, e.v, e.latency);
  return b.build();
}

bool case_valid(const TestCase& tc) {
  if (tc.num_nodes == 0) return false;
  if (tc.source >= tc.num_nodes) return false;
  if (tc.tk_estimate < 1) return false;
  // Composites take no scenario yet, and standalone DTG throws on a
  // lost exchange (case_gen.h), so every engine-model knob must stay off
  // for them — enforced here (not by generator convention alone) so a
  // future case family can't silently hand one a fault/jitter/dynamics
  // knob it would ignore on one side of the differential check but not
  // the other.
  if (!check_proto_takes_knobs(tc.proto)) {
    if (tc.blocking || tc.max_incoming_per_round > 0 || tc.dynamics.any())
      return false;
  }
  if (!dynamic_spec_error(scenario_of(tc), tc.num_nodes).empty())
    return false;
  GraphBuilder b(tc.num_nodes);
  for (const Edge& e : tc.edges) {
    if (e.u >= tc.num_nodes || e.v >= tc.num_nodes || e.u == e.v ||
        e.latency < 1)
      return false;
    b.add_edge(e.u, e.v, e.latency);
  }
  try {
    return b.build().is_connected();
  } catch (const std::invalid_argument&) {
    return false;  // a duplicate edge
  }
}

std::string describe(const TestCase& tc) {
  std::ostringstream out;
  out << check_proto_name(tc.proto) << " n=" << tc.num_nodes
      << " m=" << tc.edges.size() << " seed=" << tc.seed
      << " source=" << tc.source;
  if (tc.proto == CheckProto::kTk || tc.proto == CheckProto::kLocalDtg ||
      tc.proto == CheckProto::kLocalRandom)
    out << " k=" << tc.tk_estimate;
  if (tc.proto == CheckProto::kBiased) out << " rho=" << tc.rho;
  if (tc.proto == CheckProto::kUnified)
    out << " latencies=" << (tc.latencies_known ? "known" : "unknown");
  if (check_proto_is_composite(tc.proto) && tc.max_rounds != kUnlimitedRounds)
    out << " budget=" << tc.max_rounds;
  if (tc.blocking) out << " blocking";
  if (tc.max_incoming_per_round > 0)
    out << " max_in=" << tc.max_incoming_per_round;
  if (tc.dynamics.any())
    out << " dynamics[" << describe_dynamics(scenario_of(tc)) << "]";
  return out.str();
}

void write_case(std::ostream& out, const TestCase& tc) {
  out << "# latgossip conformance counterexample\n"
      << "# " << describe(tc) << "\n"
      << "# proto=" << check_proto_name(tc.proto) << " seed=" << tc.seed
      << " source=" << tc.source << " tk=" << tc.tk_estimate
      << " rho=" << tc.rho
      << " latencies_known=" << (tc.latencies_known ? 1 : 0)
      << " blocking=" << (tc.blocking ? 1 : 0)
      << " max_incoming=" << tc.max_incoming_per_round
      << " max_rounds=" << tc.max_rounds << "\n";
  // The exact scenario (probabilities as hex floats).
  if (tc.dynamics.any())
    out << "# scenario " << canonical_dynamics(scenario_of(tc)) << "\n";
  write_graph(out, materialize_graph(tc));
}

}  // namespace latgossip
