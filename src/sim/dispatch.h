#pragma once
// Engine selection point and phase runner for composite algorithms.
//
// The composite algorithms (EID, T(k), unified, latency discovery, the
// guessing-game reduction, aggregation) drive their internal
// simulations through dispatch_gossip() instead of calling run_gossip()
// directly. In normal operation this is a single predictable branch in
// front of the optimized engine; while a ScopedOracleEngine
// (sim/oracle.h) is alive on the thread, every internal simulation is
// routed through the naive reference oracle instead — which is how the
// differential checker (src/check/) validates whole composite runs,
// phases, recorders and all, without any test hooks inside the
// algorithms themselves.
//
// The core composites (src/core) go one step further and build no
// SimOptions at all: run_in_context() builds each internal run's
// options from the CompositeContext (obs/metrics.h) plus the phase's
// own round bound and idle rule, and charges the result back to it.

#include <algorithm>

#include "obs/metrics.h"
#include "sim/engine.h"
#include "sim/oracle.h"

namespace latgossip {

template <typename P>
  requires GossipProtocol<P>
SimResult dispatch_gossip(const WeightedGraph& g, P& proto,
                          const SimOptions& opts = {}) {
  if (oracle_engine_active()) return run_gossip_oracle(g, proto, opts);
  return run_gossip(g, proto, opts);
}

/// One internal run of a composite: at most `max_rounds` rounds (and no
/// more than the context's budget has left), idle-stopping unless the
/// phase rests between initiations, with the context's recorder and
/// workspace. The result is charged to the innermost open PhaseScope
/// and the clock, and its rounds come off the budget. A null context
/// runs the phase bare.
template <typename P>
  requires GossipProtocol<P>
SimResult run_in_context(const WeightedGraph& g, P& proto,
                         CompositeContext* ctx, Round max_rounds,
                         bool stop_when_idle = true) {
  SimOptions opts;
  opts.max_rounds = max_rounds;
  opts.stop_when_idle = stop_when_idle;
  if (ctx == nullptr) return dispatch_gossip(g, proto, opts);
  opts.max_rounds = std::min(max_rounds, ctx->rounds_left);
  opts.recorder = ctx->recorder;
  opts.workspace = ctx->workspace;
  const SimResult sim = dispatch_gossip(g, proto, opts);
  ctx->charge(sim);
  return sim;
}

}  // namespace latgossip
