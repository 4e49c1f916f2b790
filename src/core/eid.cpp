#include "core/eid.h"

#include <cmath>
#include <stdexcept>

#include "core/dtg.h"
#include "core/random_local_broadcast.h"
#include "core/rr_broadcast.h"
#include "core/termination.h"
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
  const std::size_t reps = options.dtg_repetitions == 0
                               ? ceil_log2(n)
                               : options.dtg_repetitions;
  const std::size_t spanner_k =
      options.spanner_k == 0 ? ceil_log2(n_hat) : options.spanner_k;

  NetworkView view(g, /*latencies_known=*/true);
  EidOutcome out;
  out.rumors = std::move(initial_rumors);

  EventRecorder* recorder = options.obs ? options.obs->recorder : nullptr;

  // Phase 1: O(log n) executions of D-local-broadcast (neighborhood
  // discovery) — deterministic DTG by default, the randomized
  // subroutine under the ablation flag.
  {
    PhaseScope phase(options.obs, "eid/local_broadcast");
    for (std::size_t i = 0; i < reps; ++i) {
      SimOptions opts;
      // Both subroutines act only on superround boundaries (every d
      // rounds), so the engine's idle-stop must not fire in between.
      opts.stop_when_idle = false;
      opts.max_rounds = static_cast<Round>(d) * 64 *
                        static_cast<Round>(ceil_log2(n) * ceil_log2(n) + 4);
      opts.recorder = recorder;
      opts.workspace = options.workspace;
      SimResult sim;
      if (options.randomized_local_broadcast) {
        RandomLocalBroadcast rlb(view, d, std::move(out.rumors),
                                 rng.fork(1000 + i));
        sim = dispatch_gossip(g, rlb, opts);
        out.rumors = rlb.take_rumors();
      } else {
        DtgLocalBroadcast dtg(view, d, std::move(out.rumors));
        sim = dispatch_gossip(g, dtg, opts);
        out.rumors = dtg.take_rumors();
      }
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

  out.all_to_all = all_sets_full(out.rumors);
  return out;
}

GeneralEidOutcome run_general_eid(const WeightedGraph& g, std::size_t n_hat,
                                  Rng& rng, Latency initial_guess,
                                  ObsContext* obs, TrialWorkspace* workspace) {
  const std::size_t n = g.num_nodes();
  if (initial_guess < 1)
    throw std::invalid_argument("General EID: initial guess must be >= 1");
  GeneralEidOutcome out;
  out.rumors = own_id_rumors(n);
  if (n <= 1) {
    out.success = true;
    out.final_estimate = initial_guess;
    return out;
  }

  // Safety bound: k never needs to exceed the weighted diameter, which
  // is at most (n-1) * max latency.
  const Latency k_limit =
      2 * static_cast<Latency>(n) * std::max<Latency>(g.max_latency(), 1);
  NetworkView view(g, /*latencies_known=*/true);

  for (Latency k = initial_guess; k <= k_limit; k *= 2) {
    ++out.attempts;
    EidOptions options;
    options.diameter_estimate = k;
    options.n_hat = n_hat;
    options.obs = obs;
    options.workspace = workspace;
    EidOutcome attempt = run_eid(g, options, std::move(out.rumors), rng);
    out.sim.accumulate(attempt.sim);
    out.rumors = std::move(attempt.rumors);

    // Termination Check broadcast primitive: RR Broadcast with fresh
    // own-id rumors on this attempt's spanner (Section 5.3).
    PhaseScope check_phase(obs, "eid/termination_check");
    const DirectedGraph& spanner = attempt.spanner;
    auto broadcast = [&]() {
      RRBroadcast rr(view, spanner, k, own_id_rumors(n));
      SimOptions opts;
      opts.max_rounds = rr.budget() + k + 2;
      opts.workspace = workspace;
      if (obs) opts.recorder = obs->recorder;
      SimResult sim = dispatch_gossip(g, rr, opts);
      return std::make_pair(rr.take_rumors(), sim);
    };
    const CheckOutcome check = run_termination_check(g, out.rumors, broadcast);
    check_phase.add(check.sim);
    out.sim.accumulate(check.sim);
    if (!check.unanimous) out.checks_unanimous = false;
    if (!check.failed) {
      out.success = true;
      out.final_estimate = k;
      return out;
    }
  }
  out.success = false;
  out.final_estimate = k_limit;
  return out;
}

}  // namespace latgossip
