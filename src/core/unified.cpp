#include "core/unified.h"

#include "core/eid.h"
#include "core/latency_discovery.h"
#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "obs/metrics.h"
#include "sim/dispatch.h"

namespace latgossip {

UnifiedOutcome run_unified(const WeightedGraph& g,
                           const UnifiedOptions& options, Rng& rng) {
  UnifiedOutcome out;
  const std::size_t n = g.num_nodes();
  const std::size_t n_hat = options.n_hat == 0 ? n : options.n_hat;

  // Branch 1: push-pull all-to-all (works in either latency model).
  {
    PhaseScope phase(options.obs, "unified/push_pull");
    NetworkView view(g, /*latencies_known=*/false);
    PushPullGossip pp(view, GossipGoal::kAllToAll, 0,
                      own_id_rumors(n), rng.fork(1));
    SimOptions opts;
    opts.max_rounds = options.push_pull_cap;
    if (options.obs) opts.recorder = options.obs->recorder;
    const SimResult sim = dispatch_gossip(g, pp, opts);
    phase.add(sim);
    out.push_pull_rounds = sim.rounds;
    out.push_pull_completed = sim.completed;
  }

  // Branch 2: the spanner route. The outer scope is a grouping bracket
  // in the trace; the known-latency branch attributes rounds through
  // EID's own nested phases, while the unknown-latency branch (no
  // internal tagging) is absorbed whole.
  {
    PhaseScope phase(options.obs, "unified/spanner");
    if (options.latencies_known) {
      Rng branch = rng.fork(2);
      const GeneralEidOutcome eid =
          run_general_eid(g, n_hat, branch, 1, options.obs);
      out.spanner_rounds = eid.sim.rounds;
      out.spanner_completed = eid.success && all_sets_full(eid.rumors);
    } else {
      Rng branch = rng.fork(3);
      const UnknownLatencyEidOutcome eid =
          run_unknown_latency_eid(g, n_hat, branch);
      phase.add(eid.sim);
      out.spanner_rounds = eid.sim.rounds;
      out.spanner_completed = eid.success && all_sets_full(eid.rumors);
    }
  }

  out.completed = out.push_pull_completed || out.spanner_completed;
  if (out.push_pull_completed &&
      (!out.spanner_completed || out.push_pull_rounds <= out.spanner_rounds)) {
    out.winner = UnifiedWinner::kPushPull;
    out.unified_rounds = out.push_pull_rounds;
  } else {
    out.winner = UnifiedWinner::kSpanner;
    out.unified_rounds = out.spanner_rounds;
  }
  return out;
}

}  // namespace latgossip
