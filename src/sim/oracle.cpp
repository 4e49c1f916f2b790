#include "sim/oracle.h"

#include <algorithm>

#include "util/rng.h"

namespace latgossip {

namespace {
// Depth, not a flag: differential drivers nest guards when they wrap a
// composite runner that wraps another one.
thread_local int g_oracle_depth = 0;
}  // namespace

bool oracle_engine_active() noexcept { return g_oracle_depth > 0; }

ScopedOracleEngine::ScopedOracleEngine() noexcept { ++g_oracle_depth; }
ScopedOracleEngine::~ScopedOracleEngine() { --g_oracle_depth; }

namespace oracle_detail {

bool scan_adjacency_for(const WeightedGraph& g, NodeId u, NodeId v,
                        EdgeId e) {
  for (const HalfEdge& h : g.neighbors(u))
    if (h.to == v && h.edge == e) return true;
  return false;
}

namespace {

/// One node's churn schedule re-derived from scratch (the contract in
/// sim/dynamics_spec.h), independent of DynamicPlan's precomputed
/// interval table.
struct OracleChurn {
  bool leaves = false;
  Round leave = 0;
  Round absence = 0;
  bool reset = false;
};

OracleChurn oracle_churn_of(const DynamicSpec& spec, NodeId u) {
  OracleChurn c;
  if (!spec.churn_active() || u == spec.churn_spare) return c;
  Rng rng(spec.seed ^ (0xc2b2ae3d27d4eb4fULL * (std::uint64_t{u} + 1)));
  c.leaves = rng.bernoulli(spec.churn_prob);
  c.leave = 1 + static_cast<Round>(
                    rng.uniform(static_cast<std::uint64_t>(spec.churn_window)));
  c.absence =
      1 + static_cast<Round>(
              rng.uniform(static_cast<std::uint64_t>(spec.churn_absence)));
  c.reset =
      spec.churn_mode == 1 || (spec.churn_mode == 2 && rng.bernoulli(0.5));
  return c;
}

}  // namespace

std::uint64_t oracle_drift_factor(const DynamicSpec& spec, EdgeId e, Round r) {
  // Recomputed from round 0 on every query — no incremental cache.
  std::uint64_t f = 1024;
  const std::uint64_t lo = 1024ULL * 1024ULL / spec.drift_bound;
  for (Round t = 1; t <= r; ++t) {
    std::uint64_t h = spec.seed ^
                      (0x9e3779b97f4a7c15ULL * (std::uint64_t{e} + 1)) ^
                      (static_cast<std::uint64_t>(t) * 0xbf58476d1ce4e5b9ULL);
    const bool up = (splitmix64(h) & 1) != 0;
    f = f * (up ? 1024 + spec.drift_step : 1024 - spec.drift_step) / 1024;
    f = std::clamp<std::uint64_t>(f, lo, spec.drift_bound);
  }
  return f;
}

bool oracle_node_absent(const DynamicSpec& spec, NodeId u, Round r,
                        Round absence_bias) {
  const OracleChurn c = oracle_churn_of(spec, u);
  if (!c.leaves) return false;
  return r >= c.leave && r < c.leave + c.absence + absence_bias;
}

bool oracle_node_resets_at(const DynamicSpec& spec, NodeId u, Round r,
                           Round absence_bias) {
  const OracleChurn c = oracle_churn_of(spec, u);
  return c.leaves && c.reset && r == c.leave + c.absence + absence_bias;
}

OracleFaults oracle_faults(const DynamicSpec& spec, std::size_t num_nodes) {
  OracleFaults f{{}, Rng(spec.fault_seed)};
  for (const DynamicSpec::Crash& c : spec.crash_at)
    f.log.emplace_back(c.node, c.round);
  std::size_t drawn = 0;
  while (drawn < spec.crash_count) {
    const auto v = static_cast<NodeId>(f.loss.uniform(num_nodes));
    const bool logged =
        std::any_of(f.log.begin(), f.log.end(),
                    [v](const auto& entry) { return entry.first == v; });
    if (v == spec.crash_spare || logged) continue;
    f.log.emplace_back(v, spec.crash_round);
    ++drawn;
  }
  return f;
}

bool oracle_node_crashed(const OracleFaults& faults, NodeId u, Round r,
                         Round delay) {
  for (auto it = faults.log.rbegin(); it != faults.log.rend(); ++it)
    if (it->first == u) return r >= it->second + delay;
  return false;
}

}  // namespace oracle_detail

}  // namespace latgossip
