// quickstart — the 5-minute tour of latgossip.
//
//  1. build a latency-weighted network,
//  2. analyze it (weighted conductance φ*, critical latency ℓ*, diameter),
//  3. disseminate a rumor with push-pull (unknown latencies),
//  4. disseminate all-to-all with EID (known latencies),
//  5. compare against the paper's bounds.
//
// Run:  ./quickstart [--n=64] [--seed=42]

#include <cmath>
#include <cstdio>

#include "analysis/conductance.h"
#include "analysis/distance.h"
#include "core/eid.h"
#include "core/push_pull.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"
#include "util/args.h"

using namespace latgossip;

int main(int argc, char** argv) {
  Args args(argc, argv);
  args.allow_only({"n", "seed"});
  const auto n = static_cast<std::size_t>(args.get_int("n", 64));
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 42)));

  // 1. A random network whose edges are mostly fast (latency 1) with a
  //    minority of slow WAN-like links (latency 20).
  auto g = make_erdos_renyi(n, std::min(1.0, 10.0 / static_cast<double>(n)),
                            rng);
  assign_two_level_latency(g, /*fast=*/1, /*slow=*/20, /*p_fast=*/0.7, rng);
  std::printf("network: n = %zu, m = %zu, max degree = %zu\n", g.num_nodes(),
              g.num_edges(), g.max_degree());

  // 2. Analysis: D, and — on small inputs — the exact weighted
  //    conductance of Definition 2.
  const Latency d = weighted_diameter(g);
  std::printf("weighted diameter D = %lld, hop diameter = %lld\n",
              static_cast<long long>(d),
              static_cast<long long>(hop_diameter(g)));
  if (n <= 20) {
    const auto wc = weighted_conductance_exact(g);
    std::printf("phi* = %.4f at critical latency ell* = %lld\n", wc.phi_star,
                static_cast<long long>(wc.ell_star));
  } else {
    std::printf("(n > 20: exact conductance enumeration skipped; see "
                "analysis/spectral.h for the sweep bound)\n");
  }

  // 3. Push-pull broadcast from node 0 — needs no latency knowledge.
  {
    NetworkView view(g, /*latencies_known=*/false);
    PushPullBroadcast proto(view, /*source=*/0, rng.fork(1));
    SimOptions opts;
    opts.max_rounds = 1'000'000;
    const SimResult r = run_gossip(g, proto, opts);
    std::printf("push-pull broadcast: %scompleted in %lld rounds "
                "(%zu exchanges)\n",
                r.completed ? "" : "NOT ", static_cast<long long>(r.rounds),
                r.activations);
    const double bound = std::log2(static_cast<double>(n));
    std::printf("  Theorem 12 says O((ell*/phi*) log n); log2(n) = %.1f\n",
                bound);
  }

  // 4. EID all-to-all — uses known latencies, a Baswana-Sen spanner and
  //    RR broadcast (Theorem 19).
  {
    Rng eid_rng = rng.fork(2);
    const DoublingOutcome out = run_general_eid(g, /*n_hat=*/0, eid_rng);
    std::printf("general EID all-to-all: %s in %lld rounds "
                "(final estimate k = %lld, %zu attempts)\n",
                out.sim.completed ? "completed" : "FAILED",
                static_cast<long long>(out.sim.rounds),
                static_cast<long long>(out.final_estimate), out.attempts);
    const double bound = static_cast<double>(d) *
                         std::pow(std::log2(static_cast<double>(n)), 3);
    std::printf("  Theorem 19 says O(D log^3 n) = about %.0f here\n", bound);
  }
  return 0;
}
