#include "check/shrink.h"

#include <algorithm>
#include <cstdint>
#include <optional>

namespace latgossip {
namespace {

/// `tc` with node `v` removed: incident edges dropped, higher ids
/// shifted down, source remapped. Never called with v == source.
TestCase without_node(const TestCase& tc, NodeId v) {
  TestCase c = tc;
  c.num_nodes = tc.num_nodes - 1;
  c.edges.clear();
  for (const Edge& e : tc.edges) {
    if (e.u == v || e.v == v) continue;
    Edge ne = e;
    if (ne.u > v) --ne.u;
    if (ne.v > v) --ne.v;
    c.edges.push_back(ne);
  }
  if (c.source > v) --c.source;
  // Node-id-keyed dynamics fields shift with the removal (a spare or
  // adversary source above v keeps naming the same node).
  if (c.dynamics.churn_spare > v) --c.dynamics.churn_spare;
  if (c.dynamics.adv_source > v) --c.dynamics.adv_source;
  return c;
}

/// Bypass a degree-2 node: splice its two incident edges into one
/// direct edge (latency = the larger of the two), then remove it. This
/// is what lets the shrinker collapse long paths, where plain node
/// removal would always disconnect the graph. Returns nullopt when v is
/// not an interior degree-2 node or the splice edge already exists.
std::optional<TestCase> bypass_node(const TestCase& tc, NodeId v) {
  NodeId ends[2];
  Latency lats[2];
  std::size_t incident = 0;
  for (const Edge& e : tc.edges) {
    if (e.u != v && e.v != v) continue;
    if (incident == 2) return std::nullopt;
    ends[incident] = e.u == v ? e.v : e.u;
    lats[incident] = e.latency;
    ++incident;
  }
  if (incident != 2 || ends[0] == ends[1]) return std::nullopt;
  for (const Edge& e : tc.edges)
    if ((e.u == ends[0] && e.v == ends[1]) ||
        (e.u == ends[1] && e.v == ends[0]))
      return std::nullopt;
  TestCase c = tc;
  c.edges.push_back(Edge{ends[0], ends[1], std::max(lats[0], lats[1])});
  return without_node(c, v);
}

}  // namespace

TestCase shrink_case(const TestCase& original,
                     const std::function<bool(const TestCase&)>& fails,
                     ShrinkStats* stats, std::size_t max_attempts) {
  TestCase best = original;
  ShrinkStats local;
  ShrinkStats& st = stats ? *stats : local;

  auto budget_left = [&] { return st.attempts < max_attempts; };
  auto attempt = [&](const TestCase& cand) {
    if (!budget_left()) return false;
    if (!case_valid(cand)) return false;
    ++st.attempts;
    if (!fails(cand)) return false;
    ++st.accepted;
    best = cand;
    return true;
  };

  bool improved = true;
  while (improved && budget_left()) {
    improved = false;

    // Node removal. On success the ids shift, so the index is NOT
    // advanced — position v now names a different node.
    for (NodeId v = 0; v < best.num_nodes && budget_left();) {
      if (v == best.source || best.num_nodes <= 2) {
        ++v;
        continue;
      }
      if (attempt(without_node(best, v)))
        improved = true;
      else
        ++v;
    }

    // Degree-2 bypass: collapse interior path nodes plain removal
    // cannot touch without disconnecting the graph.
    for (NodeId v = 0; v < best.num_nodes && budget_left();) {
      if (v == best.source || best.num_nodes <= 2) {
        ++v;
        continue;
      }
      const std::optional<TestCase> c = bypass_node(best, v);
      if (c && attempt(*c))
        improved = true;
      else
        ++v;
    }

    // Edge removal (same index discipline).
    for (std::size_t i = 0; i < best.edges.size() && budget_left();) {
      TestCase c = best;
      c.edges.erase(c.edges.begin() + static_cast<std::ptrdiff_t>(i));
      if (attempt(c))
        improved = true;
      else
        ++i;
    }

    // Latency reduction: to 1 first, halving as the fallback.
    for (std::size_t i = 0; i < best.edges.size() && budget_left(); ++i) {
      if (best.edges[i].latency <= 1) continue;
      TestCase c = best;
      c.edges[i].latency = 1;
      if (attempt(c)) {
        improved = true;
        continue;
      }
      c = best;
      c.edges[i].latency = best.edges[i].latency / 2;
      if (attempt(c)) improved = true;
    }

    // Knob disabling + parameter minimization.
    auto try_mutation = [&](auto&& mutate) {
      TestCase c = best;
      mutate(c);
      if (attempt(c)) improved = true;
    };
    if (best.blocking) try_mutation([](TestCase& c) { c.blocking = false; });
    if (best.max_incoming_per_round > 0)
      try_mutation([](TestCase& c) { c.max_incoming_per_round = 0; });
    // Scenario knobs: try disabling each schedule outright, then the
    // cheaper churn-mode downgrade (reset/mixed -> retain).
    if (best.dynamics.jitter_active())
      try_mutation([](TestCase& c) { c.dynamics.jitter_spread = 0; });
    if (best.dynamics.drop_active())
      try_mutation([](TestCase& c) { c.dynamics.drop_prob = 0.0; });
    if (best.dynamics.crash_count > 0)
      try_mutation([](TestCase& c) { c.dynamics.crash_count = 0; });
    if (best.dynamics.drift_active())
      try_mutation([](TestCase& c) { c.dynamics.drift_step = 0; });
    if (best.dynamics.churn_active())
      try_mutation([](TestCase& c) { c.dynamics.churn_prob = 0.0; });
    if (best.dynamics.adv_active())
      try_mutation([](TestCase& c) { c.dynamics.adv_slow = 1024; });
    if (best.dynamics.churn_active() && best.dynamics.churn_mode != 0)
      try_mutation([](TestCase& c) { c.dynamics.churn_mode = 0; });
    if (best.tk_estimate > 1)
      try_mutation([](TestCase& c) { c.tk_estimate = 1; });
    if (best.source != 0) try_mutation([](TestCase& c) { c.source = 0; });
    for (std::uint64_t s : {std::uint64_t{1}, std::uint64_t{2},
                            std::uint64_t{3}}) {
      if (best.seed == s) continue;
      try_mutation([s](TestCase& c) { c.seed = s; });
    }
  }

  return best;
}

}  // namespace latgossip
