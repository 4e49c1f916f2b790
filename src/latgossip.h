#pragma once
// Umbrella header: the entire latgossip public API.
//
// Fine-grained includes are preferred inside the library itself; this
// header is for applications and experiments that want everything.

// Utilities
#include "util/args.h"
#include "util/bitset.h"
#include "util/fit.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

// Graph substrate
#include "graph/builder.h"
#include "graph/digraph.h"
#include "graph/gadgets.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/latency_models.h"

// Analysis
#include "analysis/conductance.h"
#include "analysis/distance.h"
#include "analysis/spanner_check.h"
#include "analysis/spectral.h"

// Observability
#include "obs/export.h"
#include "obs/fingerprint.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

// Simulator
#include "sim/dynamics.h"
#include "sim/engine.h"
#include "sim/freshness.h"
#include "sim/metrics.h"
#include "sim/parallel.h"

// Algorithms
#include "core/dtg.h"
#include "core/eid.h"
#include "core/latency_discovery.h"
#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "core/spanner.h"
#include "core/termination.h"
#include "core/tk_schedule.h"
#include "core/unified.h"

// Experiment store + query server
#include "store/cached_trials.h"
#include "store/json.h"
#include "store/key.h"
#include "store/run.h"
#include "store/server.h"
#include "store/store.h"
#include "store/wire.h"

// Application layer
#include "app/aggregate.h"
#include "app/anti_entropy.h"
#include "app/kv_store.h"

// Lower bounds
#include "game/game.h"
#include "game/reduction.h"
#include "game/strategies.h"
