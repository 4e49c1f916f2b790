#include "core/eid.h"

#include <cmath>
#include <stdexcept>

#include "core/dtg.h"
#include "core/rr_broadcast.h"
#include "obs/metrics.h"
#include "sim/dispatch.h"
#include "sim/workspace.h"

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
                   std::vector<Bitset> initial_rumors, Rng& rng) {
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

  EventRecorder* recorder = options.obs ? options.obs->recorder : nullptr;

  // Phase 1: O(log n) executions of D-local-broadcast (neighborhood
  // discovery) — deterministic DTG by default, the randomized link rule
  // under the ablation flag.
  const LinkRule rule = options.randomized_local_broadcast
                            ? LinkRule::kUniformUnheard
                            : LinkRule::kScript;
  {
    PhaseScope phase(options.obs, "eid/local_broadcast");
    for (std::size_t i = 0; i < reps; ++i) {
      SimOptions opts;
      // Both link rules act only on superround boundaries (every d
      // rounds), so the engine's idle-stop must not fire in between.
      opts.stop_when_idle = false;
      opts.max_rounds = static_cast<Round>(d) * 64 *
                        static_cast<Round>(ceil_log2(n) * ceil_log2(n) + 4);
      opts.recorder = recorder;
      opts.workspace = options.workspace;
      // Fork only for the randomized rule: fork() advances `rng`, so a
      // fork under DTG would move the spanner's draws.
      DtgLocalBroadcast lb(
          view, d, std::move(out.rumors), rule,
          rule == LinkRule::kScript ? Rng{} : rng.fork(1000 + i));
      const SimResult sim = dispatch_gossip(g, lb, opts);
      out.rumors = lb.take_rumors();
      phase.add(sim);
      out.sim.accumulate(sim);
    }
  }

  // Phase 2: local spanner computation on G_D (zero simulated rounds;
  // the scope still marks the boundary in the trace).
  {
    PhaseScope phase(options.obs, "eid/spanner");
    out.spanner = build_baswana_sen_spanner_capped(
        g, d, SpannerOptions{spanner_k, n_hat}, rng);
  }

  // Phase 3: RR Broadcast with parameter (2k-1)*D — the spanner's
  // stretch bound times the distance estimate.
  {
    PhaseScope phase(options.obs, "eid/rr_broadcast");
    const Latency rr_k =
        d * static_cast<Latency>(2 * spanner_k > 1 ? 2 * spanner_k - 1 : 1);
    RRBroadcast rr(view, out.spanner, rr_k, std::move(out.rumors));
    SimOptions rr_opts;
    rr_opts.max_rounds = rr.budget() + rr_k + 2;
    rr_opts.recorder = recorder;
    rr_opts.workspace = options.workspace;
    const SimResult sim = dispatch_gossip(g, rr, rr_opts);
    phase.add(sim);
    out.sim.accumulate(sim);
    out.rumors = rr.take_rumors();
  }

  out.sim.completed = all_sets_full(out.rumors);
  return out;
}

HeardSetsFn run_eid_attempt(const WeightedGraph& g, const EidOptions& options,
                            std::vector<Bitset>& rumors, SimResult& sim,
                            Rng& rng) {
  EidOutcome attempt = run_eid(g, options, std::move(rumors), rng);
  sim.accumulate(attempt.sim);
  rumors = std::move(attempt.rumors);
  const Latency k = options.diameter_estimate;
  EventRecorder* recorder = options.obs ? options.obs->recorder : nullptr;
  TrialWorkspace* workspace = options.workspace;
  return [&g, spanner = std::move(attempt.spanner), k, recorder, workspace] {
    RRBroadcast rr(NetworkView(g, /*latencies_known=*/true), spanner, k,
                   own_id_rumors(g.num_nodes()));
    SimOptions opts;
    opts.max_rounds = rr.budget() + k + 2;
    opts.recorder = recorder;
    opts.workspace = workspace;
    SimResult sim = dispatch_gossip(g, rr, opts);
    return std::make_pair(rr.take_rumors(), sim);
  };
}

DoublingOutcome run_general_eid(const WeightedGraph& g, std::size_t n_hat,
                                Rng& rng, Latency initial_guess,
                                ObsContext* obs, TrialWorkspace* workspace) {
  EidOptions options;
  options.n_hat = n_hat;
  options.obs = obs;
  options.workspace = workspace;
  const AttemptFn attempt = [&](Latency k, std::vector<Bitset>& rumors,
                                SimResult& sim) {
    options.diameter_estimate = k;
    return run_eid_attempt(g, options, rumors, sim, rng);
  };
  return run_guess_and_double(g, initial_guess, attempt, obs,
                              "eid/termination_check");
}

}  // namespace latgossip
