#include "core/termination.h"

#include <algorithm>
#include <stdexcept>

#include "core/rr_broadcast.h"
#include "obs/metrics.h"

namespace latgossip {

CheckOutcome run_termination_check(const WeightedGraph& g,
                                   const std::vector<Bitset>& rumors,
                                   const HeardSetsFn& broadcast) {
  const std::size_t n = g.num_nodes();
  if (rumors.size() != n)
    throw std::invalid_argument("termination check: rumor size mismatch");

  // Freeze fingerprints and flags (Algorithm 1 lines 1-3).
  std::vector<std::uint64_t> fingerprint(n);
  std::vector<bool> flag(n, false);
  for (NodeId v = 0; v < n; ++v) {
    fingerprint[v] = rumors[v].hash();
    for (const HalfEdge& h : g.neighbors(v))
      if (!rumors[v].test(h.to)) {
        flag[v] = true;
        break;
      }
  }

  CheckOutcome out;

  // Pass 1: broadcast and gather; a node fails if any reachable node has
  // a different rumor set or a raised flag (lines 4-6), or if the set of
  // nodes the broadcast collected from differs from its own rumor set.
  // The self-consistency comparison is what makes passing safe: a node v
  // with bad[v] == false heard exactly the nodes in its rumor set R, all
  // with fingerprint(R) and no flag, so N(u) is contained in R for every
  // u in R. A nonempty neighbor-closed set in a connected graph is the
  // whole vertex set, hence R = V and v's exchange really is complete.
  auto [heard1, sim1] = broadcast();
  out.sim.accumulate(sim1);
  std::vector<bool> bad(n, false);
  for (NodeId v = 0; v < n; ++v) {
    if (heard1[v].size() != n)
      throw std::invalid_argument("termination check: heard-set mismatch");
    if (!(heard1[v] == rumors[v])) bad[v] = true;
    for (std::size_t u = heard1[v].find_first(); u < n && !bad[v];
         u = heard1[v].find_next(u + 1))
      if (fingerprint[u] != fingerprint[v] || flag[u]) bad[v] = true;
  }

  // Pass 2: propagate the "failed" verdict (lines 7-9).
  auto [heard2, sim2] = broadcast();
  out.sim.accumulate(sim2);
  std::vector<bool> failed(n, false);
  for (NodeId v = 0; v < n; ++v) {
    failed[v] = bad[v];
    for (std::size_t u = heard2[v].find_first(); u < n && !failed[v];
         u = heard2[v].find_next(u + 1))
      if (bad[u]) failed[v] = true;
  }

  out.failed = false;
  out.unanimous = true;
  for (NodeId v = 0; v < n; ++v) {
    if (failed[v]) out.failed = true;
    if (failed[v] != failed[0]) out.unanimous = false;
  }
  return out;
}

DoublingOutcome run_guess_and_double(const WeightedGraph& g,
                                     Latency initial_guess,
                                     const AttemptFn& attempt,
                                     CompositeContext* ctx,
                                     std::string_view check_phase) {
  if (initial_guess < 1)
    throw std::invalid_argument("guess and double: initial guess must be >= 1");
  const std::size_t n = g.num_nodes();
  DoublingOutcome out;
  out.rumors = own_id_rumors(n);
  if (n <= 1) {
    out.success = true;
    out.final_estimate = initial_guess;
  }

  // Safety bound: k never needs to exceed the weighted diameter, which
  // is at most (n-1) * max latency.
  const Latency k_limit =
      2 * static_cast<Latency>(n) * std::max<Latency>(g.max_latency(), 1);
  // A spent round budget ends the doubling unsuccessfully.
  const auto budget_left = [ctx] { return !ctx || ctx->rounds_left > 0; };
  for (Latency k = initial_guess; !out.success && k <= k_limit && budget_left();
       k *= 2) {
    ++out.attempts;
    const HeardSetsFn broadcast = attempt(k, out.rumors, out.sim);
    PhaseScope phase(ctx, check_phase);
    const CheckOutcome check = run_termination_check(g, out.rumors, broadcast);
    out.sim.accumulate(check.sim);
    if (!check.unanimous) out.checks_unanimous = false;
    if (!check.failed) {
      out.success = true;
      out.final_estimate = k;
    }
  }
  if (!out.success) out.final_estimate = k_limit;
  out.sim.completed = out.success && all_sets_full(out.rumors);
  return out;
}

}  // namespace latgossip
