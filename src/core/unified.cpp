#include "core/unified.h"

#include "core/eid.h"
#include "core/latency_discovery.h"
#include "core/push_pull.h"
#include "obs/metrics.h"
#include "sim/dispatch.h"

namespace latgossip {

UnifiedOutcome run_unified(const WeightedGraph& g,
                           const UnifiedOptions& options, Rng& rng,
                           CompositeContext* ctx) {
  UnifiedOutcome out;
  const std::size_t n = g.num_nodes();
  const std::size_t n_hat = options.n_hat == 0 ? n : options.n_hat;
  const Round budget = ctx ? ctx->rounds_left : kUnlimitedRounds;

  // Branch 1: push-pull all-to-all (works in either latency model).
  {
    PhaseScope phase(ctx, "unified/push_pull");
    NetworkView view(g, /*latencies_known=*/false);
    PushPullGossip pp(view, GossipGoal::kAllToAll, 0,
                      own_id_rumors(n), rng.fork(1));
    const SimResult sim = run_in_context(g, pp, ctx, options.push_pull_cap);
    out.sim.accumulate(sim);
    out.push_pull_rounds = sim.rounds;
    out.push_pull_completed = sim.completed;
  }

  // Branch 2: the spanner route, from the whole budget again. The outer
  // scope is a grouping bracket in the trace; EID's nested phases take
  // the rounds.
  if (ctx) ctx->rounds_left = budget;
  {
    PhaseScope phase(ctx, "unified/spanner");
    DoublingOutcome eid;
    if (options.latencies_known) {
      Rng branch = rng.fork(2);
      eid = run_general_eid(g, n_hat, branch, 1, ctx);
    } else {
      Rng branch = rng.fork(3);
      eid = run_unknown_latency_eid(g, n_hat, branch, ctx);
    }
    out.sim.accumulate(eid.sim);
    out.spanner_rounds = eid.sim.rounds;
    out.spanner_completed = eid.sim.completed;
  }

  out.sim.completed = out.push_pull_completed || out.spanner_completed;
  if (out.push_pull_completed &&
      (!out.spanner_completed || out.push_pull_rounds <= out.spanner_rounds)) {
    out.winner = UnifiedWinner::kPushPull;
    out.sim.rounds = out.push_pull_rounds;
  } else {
    out.winner = UnifiedWinner::kSpanner;
    out.sim.rounds = out.spanner_rounds;
  }
  return out;
}

}  // namespace latgossip
