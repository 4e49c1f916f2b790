#include "core/tk_schedule.h"

#include <stdexcept>

#include <string>

#include "core/dtg.h"
#include "core/rr_broadcast.h"
#include "obs/metrics.h"
#include "sim/dispatch.h"

namespace latgossip {

Latency next_power_of_two(Latency k) {
  if (k < 1) throw std::invalid_argument("next_power_of_two: k must be >= 1");
  Latency p = 1;
  while (p < k) p *= 2;
  return p;
}

std::vector<Latency> tk_pattern(Latency k) {
  if (k < 1) throw std::invalid_argument("tk_pattern: k must be >= 1");
  if ((k & (k - 1)) != 0)
    throw std::invalid_argument("tk_pattern: k must be a power of two");
  if (k == 1) return {1};
  std::vector<Latency> half = tk_pattern(k / 2);
  std::vector<Latency> out = half;
  out.push_back(k);
  out.insert(out.end(), half.begin(), half.end());
  return out;
}

namespace {

std::size_t ceil_log2(std::size_t x) {
  std::size_t k = 0;
  std::size_t pow = 1;
  while (pow < x) {
    pow *= 2;
    ++k;
  }
  return k < 1 ? 1 : k;
}

/// Run one ℓ-DTG pass over persistent rumor sets, tagged as phase
/// "tk/dtg_ell_<ℓ>" (one phase per recursion level; repeated passes at
/// the same ℓ accumulate into the same phase entry).
SimResult dtg_pass(const WeightedGraph& g, Latency ell,
                   std::vector<Bitset>& rumors, CompositeContext* ctx) {
  PhaseScope phase(ctx, "tk/dtg_ell_" + std::to_string(ell));
  NetworkView view(g, /*latencies_known=*/true);
  DtgLocalBroadcast dtg(view, ell, std::move(rumors));
  const auto logn = static_cast<Round>(ceil_log2(g.num_nodes()) + 2);
  // DTG acts only on superround boundaries; disable idle-stop.
  const SimResult sim =
      run_in_context(g, dtg, ctx, static_cast<Round>(ell) * 64 * logn * logn,
                     /*stop_when_idle=*/false);
  rumors = dtg.take_rumors();
  return sim;
}

}  // namespace

TkOutcome run_tk_schedule(const WeightedGraph& g, Latency k,
                          std::vector<Bitset> initial_rumors,
                          CompositeContext* ctx) {
  const std::size_t n = g.num_nodes();
  if (initial_rumors.size() != n)
    throw std::invalid_argument("T(k): rumor vector size mismatch");
  TkOutcome out;
  out.rumors = std::move(initial_rumors);
  for (Latency ell : tk_pattern(next_power_of_two(k)))
    out.sim.accumulate(dtg_pass(g, ell, out.rumors, ctx));
  out.sim.completed = all_sets_full(out.rumors);
  return out;
}

DoublingOutcome run_path_discovery(const WeightedGraph& g,
                                   CompositeContext* ctx) {
  const AttemptFn attempt = [&](Latency k, std::vector<Bitset>& rumors,
                                SimResult& sim) -> HeardSetsFn {
    TkOutcome tk = run_tk_schedule(g, k, std::move(rumors), ctx);
    sim.accumulate(tk.sim);
    rumors = std::move(tk.rumors);
    // The check's primitive: another T(k) pass from own-id rumors.
    return [&g, k, ctx] {
      TkOutcome pass = run_tk_schedule(g, k, own_id_rumors(g.num_nodes()), ctx);
      return std::make_pair(std::move(pass.rumors), pass.sim);
    };
  };
  return run_guess_and_double(g, 1, attempt, ctx, "tk/termination_check");
}

}  // namespace latgossip
