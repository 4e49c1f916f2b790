#pragma once
// Standard graph generators. All produce unit-latency edges; latency
// models (latency_models.h) or gadget constructions assign weights.
//
// Every generator builds through the one GraphBuilder (graph/builder.h).
// The two *_streaming samplers at the bottom are the million-node ones:
// they draw a different graph than make_erdos_renyi/make_random_regular
// for the same seed (geometric skips; repair by swap instead of
// whole-sample rejection), and take an explicit uint64 seed, not an
// Rng&, so a caller's Rng is never advanced by them.

#include <cstddef>
#include <cstdint>

#include "graph/graph.h"
#include "util/rng.h"

namespace latgossip {

/// Path v0 - v1 - ... - v_{n-1}.
WeightedGraph make_path(std::size_t n);

/// Cycle on n >= 3 nodes.
WeightedGraph make_cycle(std::size_t n);

/// Star: node 0 is the hub, nodes 1..n-1 are leaves.
WeightedGraph make_star(std::size_t n);

/// Complete graph K_n.
WeightedGraph make_clique(std::size_t n);

/// Complete bipartite graph K_{a,b}: left nodes 0..a-1, right a..a+b-1.
WeightedGraph make_complete_bipartite(std::size_t a, std::size_t b);

/// rows x cols grid; wrap = torus.
WeightedGraph make_grid(std::size_t rows, std::size_t cols, bool wrap = false);

/// d-dimensional hypercube (2^d nodes).
WeightedGraph make_hypercube(std::size_t dim);

/// Complete binary tree with n nodes (heap ordering: children 2i+1, 2i+2).
WeightedGraph make_binary_tree(std::size_t n);

/// Erdos–Renyi G(n, p), conditioned on connectivity by retry (up to
/// `max_attempts`); throws if no connected sample is found.
WeightedGraph make_erdos_renyi(std::size_t n, double p, Rng& rng,
                               int max_attempts = 64);

/// Random d-regular graph via the configuration/pairing model with
/// rejection of self-loops/multi-edges; conditioned on connectivity.
/// Requires n*d even, d < n.
WeightedGraph make_random_regular(std::size_t n, std::size_t d, Rng& rng,
                                  int max_attempts = 256);

/// Watts–Strogatz small world: ring lattice with k nearest neighbors per
/// side, each edge rewired with probability beta; conditioned connected.
WeightedGraph make_watts_strogatz(std::size_t n, std::size_t k, double beta,
                                  Rng& rng, int max_attempts = 64);

/// Random geometric graph: n points uniform in the unit square, edge if
/// distance <= radius; conditioned connected. Out-param `coords` (if
/// non-null) receives the points as (x, y) pairs — examples use them to
/// derive distance-based latencies.
WeightedGraph make_random_geometric(std::size_t n, double radius, Rng& rng,
                                    std::vector<std::pair<double, double>>*
                                        coords = nullptr,
                                    int max_attempts = 64);

/// `num_cliques` cliques of `clique_size` nodes each, arranged in a ring;
/// consecutive cliques joined by a single bridge edge of latency
/// `bridge_latency`. A classic low-conductance family.
WeightedGraph make_ring_of_cliques(std::size_t num_cliques,
                                   std::size_t clique_size,
                                   Latency bridge_latency = 1);

/// Two cliques of `clique_size` joined by a path of `path_len` edges of
/// latency `path_latency` (the "dumbbell"; worst case for conductance).
WeightedGraph make_dumbbell(std::size_t clique_size, std::size_t path_len,
                            Latency path_latency = 1);

/// Barabasi–Albert preferential attachment: start from a small clique
/// of `attach` nodes; each new node attaches to `attach` distinct
/// existing nodes picked proportionally to degree. Heavy-tailed degree
/// distribution (the "social network" regime of Doerr et al. cited in
/// the related work).
WeightedGraph make_barabasi_albert(std::size_t n, std::size_t attach,
                                   Rng& rng);

/// Complete b-ary tree with n nodes (children of i: b*i+1 .. b*i+b).
WeightedGraph make_kary_tree(std::size_t n, std::size_t b);

/// `num_cliques` cliques in a path (not a ring), consecutive cliques
/// joined by one bridge of `bridge_latency` — the line version of
/// make_ring_of_cliques, with diameter Θ(num_cliques * bridge_latency).
WeightedGraph make_path_of_cliques(std::size_t num_cliques,
                                   std::size_t clique_size,
                                   Latency bridge_latency = 1);

// ---------------------------------------------------------------------------
// Seeded samplers for million-node graphs.

/// G(n, p) via geometric skip sampling over the ordered pair sequence
/// (expected work O(n + p*n^2), not Theta(n^2) coin flips), conditioned
/// on connectivity by retry with an attempt-salted seed. Deterministic
/// in (n, p, seed); NOT sample-identical to make_erdos_renyi, which
/// draws one Bernoulli per pair.
WeightedGraph make_erdos_renyi_streaming(std::size_t n, double p,
                                         std::uint64_t seed,
                                         int max_attempts = 64);

/// Random d-regular graph via the configuration model with
/// repair-by-swap instead of whole-sample rejection: bad pairs
/// (self-loops, duplicates) swap their second stub with a random pair
/// and the pairing is re-validated, preserving the degree sequence.
/// Whole-sample rejection is hopeless at scale — P(simple) ~
/// exp(-(d^2-1)/4) per attempt is astronomically small long before the
/// expected O(1) bad pairs stop being repairable. Conditioned on
/// connectivity by retry. Requires n*d even, 1 <= d < n. Deterministic
/// in (n, d, seed); NOT sample-identical to make_random_regular.
WeightedGraph make_random_regular_streaming(std::size_t n, std::size_t d,
                                            std::uint64_t seed,
                                            int max_attempts = 64);

}  // namespace latgossip
