#include "core/eid.h"

#include <cmath>
#include <stdexcept>

#include "core/dtg.h"
#include "core/rr_broadcast.h"
#include "obs/metrics.h"
#include "sim/dispatch.h"

namespace latgossip {
namespace {

std::size_t ceil_log2(std::size_t x) {
  std::size_t k = 0;
  std::size_t pow = 1;
  while (pow < x) {
    pow *= 2;
    ++k;
  }
  return std::max<std::size_t>(k, 1);
}

}  // namespace

EidOutcome run_eid(const WeightedGraph& g, const EidOptions& options,
                   std::vector<Bitset> initial_rumors, Rng& rng,
                   CompositeContext* ctx) {
  const std::size_t n = g.num_nodes();
  if (options.diameter_estimate < 1)
    throw std::invalid_argument("EID: diameter estimate must be >= 1");
  if (initial_rumors.size() != n)
    throw std::invalid_argument("EID: rumor vector size mismatch");
  const Latency d = options.diameter_estimate;
  const std::size_t n_hat = options.n_hat == 0 ? n : options.n_hat;
  const std::size_t reps = ceil_log2(n);
  const std::size_t spanner_k = ceil_log2(n_hat);

  NetworkView view(g, /*latencies_known=*/true);
  EidOutcome out;
  out.rumors = std::move(initial_rumors);

  // Phase 1: O(log n) executions of D-local-broadcast (neighborhood
  // discovery) — deterministic DTG by default, the randomized link rule
  // under the ablation flag.
  const LinkRule rule = options.randomized_local_broadcast
                            ? LinkRule::kUniformUnheard
                            : LinkRule::kScript;
  {
    PhaseScope phase(ctx, "eid/local_broadcast");
    const Round bound = static_cast<Round>(d) * 64 *
                        static_cast<Round>(ceil_log2(n) * ceil_log2(n) + 4);
    for (std::size_t i = 0; i < reps; ++i) {
      // Fork only for the randomized rule: fork() advances `rng`, so a
      // fork under DTG would move the spanner's draws.
      DtgLocalBroadcast lb(
          view, d, std::move(out.rumors), rule,
          rule == LinkRule::kScript ? Rng{} : rng.fork(1000 + i));
      // Both link rules act only on superround boundaries (every d
      // rounds), so the engine's idle-stop must not fire in between.
      out.sim.accumulate(
          run_in_context(g, lb, ctx, bound, /*stop_when_idle=*/false));
      out.rumors = lb.take_rumors();
    }
  }

  // Phase 2: local spanner computation on G_D (zero simulated rounds;
  // the scope still marks the boundary in the trace).
  {
    PhaseScope phase(ctx, "eid/spanner");
    out.spanner = build_baswana_sen_spanner_capped(
        g, d, SpannerOptions{spanner_k, n_hat}, rng);
  }

  // Phase 3: RR Broadcast with parameter (2k-1)*D — the spanner's
  // stretch bound times the distance estimate.
  {
    PhaseScope phase(ctx, "eid/rr_broadcast");
    const Latency rr_k =
        d * static_cast<Latency>(2 * spanner_k > 1 ? 2 * spanner_k - 1 : 1);
    RRBroadcast rr(view, out.spanner, rr_k, std::move(out.rumors));
    out.sim.accumulate(run_in_context(g, rr, ctx, rr.budget() + rr_k + 2));
    out.rumors = rr.take_rumors();
  }

  out.sim.completed = all_sets_full(out.rumors);
  return out;
}

HeardSetsFn run_eid_attempt(const WeightedGraph& g, const EidOptions& options,
                            std::vector<Bitset>& rumors, SimResult& sim,
                            Rng& rng, CompositeContext* ctx) {
  EidOutcome attempt = run_eid(g, options, std::move(rumors), rng, ctx);
  sim.accumulate(attempt.sim);
  rumors = std::move(attempt.rumors);
  const Latency k = options.diameter_estimate;
  return [&g, spanner = std::move(attempt.spanner), k, ctx] {
    RRBroadcast rr(NetworkView(g, /*latencies_known=*/true), spanner, k,
                   own_id_rumors(g.num_nodes()));
    const SimResult sim = run_in_context(g, rr, ctx, rr.budget() + k + 2);
    return std::make_pair(rr.take_rumors(), sim);
  };
}

DoublingOutcome run_general_eid(const WeightedGraph& g, std::size_t n_hat,
                                Rng& rng, Latency initial_guess,
                                CompositeContext* ctx) {
  EidOptions options;
  options.n_hat = n_hat;
  const AttemptFn attempt = [&](Latency k, std::vector<Bitset>& rumors,
                                SimResult& sim) {
    options.diameter_estimate = k;
    return run_eid_attempt(g, options, rumors, sim, rng, ctx);
  };
  return run_guess_and_double(g, initial_guess, attempt, ctx,
                              "eid/termination_check");
}

}  // namespace latgossip
