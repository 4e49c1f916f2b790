#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "graph/builder.h"

namespace latgossip {
namespace {

[[noreturn]] void fail_attempts(const char* what) {
  throw std::runtime_error(std::string(what) +
                           ": no connected sample within attempt budget");
}

/// Salt for retrying a seeded streaming generator: attempt 0 keeps the
/// caller's seed verbatim (determinism regression tests rely on this).
std::uint64_t salted(std::uint64_t seed, int attempt) {
  return seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(attempt);
}

/// Orientation-free key of edge {u, v}, to reject a duplicate mid-build.
std::uint64_t edge_key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// a * b as a node count; throws before the product can leave the NodeId
/// range (or wrap size_t, which would size the builder at a wrong n).
std::size_t node_count(const char* what, std::size_t a, std::size_t b) {
  if (b != 0 && a > static_cast<std::size_t>(kInvalidNode) / b)
    throw std::invalid_argument(std::string(what) +
                                ": node count exceeds the NodeId range");
  return a * b;
}

}  // namespace

WeightedGraph make_path(std::size_t n) {
  if (n == 0) throw std::invalid_argument("path: n must be >= 1");
  GraphBuilder b(n);
  for (NodeId i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  return b.build();
}

WeightedGraph make_cycle(std::size_t n) {
  if (n < 3) throw std::invalid_argument("cycle: n must be >= 3");
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i)
    b.add_edge(i, static_cast<NodeId>((i + 1) % n));
  return b.build();
}

WeightedGraph make_star(std::size_t n) {
  if (n < 2) throw std::invalid_argument("star: n must be >= 2");
  GraphBuilder b(n);
  for (NodeId i = 1; i < n; ++i) b.add_edge(0, i);
  return b.build();
}

WeightedGraph make_clique(std::size_t n) {
  if (n == 0) throw std::invalid_argument("clique: n must be >= 1");
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j) b.add_edge(i, j);
  return b.build();
}

WeightedGraph make_complete_bipartite(std::size_t a, std::size_t b) {
  if (a == 0 || b == 0)
    throw std::invalid_argument("bipartite: both sides must be nonempty");
  GraphBuilder builder(a + b);
  for (NodeId i = 0; i < a; ++i)
    for (NodeId j = 0; j < b; ++j)
      builder.add_edge(i, static_cast<NodeId>(a + j));
  return builder.build();
}

WeightedGraph make_grid(std::size_t rows, std::size_t cols, bool wrap) {
  if (rows == 0 || cols == 0)
    throw std::invalid_argument("grid: dimensions must be positive");
  if (wrap && (rows < 3 || cols < 3))
    throw std::invalid_argument("torus: dimensions must be >= 3");
  GraphBuilder b(node_count("grid", rows, cols));
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
      if (wrap && c + 1 == cols) b.add_edge(id(r, c), id(r, 0));
      if (wrap && r + 1 == rows) b.add_edge(id(r, c), id(0, c));
    }
  }
  return b.build();
}

WeightedGraph make_hypercube(std::size_t dim) {
  if (dim == 0 || dim > 24)
    throw std::invalid_argument("hypercube: dim must be in [1, 24]");
  const std::size_t n = std::size_t{1} << dim;
  GraphBuilder b(n);
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t bit = 0; bit < dim; ++bit) {
      const std::size_t v = u ^ (std::size_t{1} << bit);
      if (u < v)
        b.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
    }
  return b.build();
}

WeightedGraph make_binary_tree(std::size_t n) {
  if (n == 0) throw std::invalid_argument("tree: n must be >= 1");
  GraphBuilder b(n);
  for (std::size_t i = 1; i < n; ++i)
    b.add_edge(static_cast<NodeId>((i - 1) / 2), static_cast<NodeId>(i));
  return b.build();
}

WeightedGraph make_erdos_renyi(std::size_t n, double p, Rng& rng,
                               int max_attempts) {
  if (n == 0) throw std::invalid_argument("er: n must be >= 1");
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("er: p out of [0,1]");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    GraphBuilder b(n);
    for (NodeId i = 0; i < n; ++i)
      for (NodeId j = i + 1; j < n; ++j)
        if (rng.bernoulli(p)) b.add_edge(i, j);
    auto g = b.build();
    if (g.is_connected()) return g;
  }
  fail_attempts("erdos_renyi");
}

WeightedGraph make_random_regular(std::size_t n, std::size_t d, Rng& rng,
                                  int max_attempts) {
  if (d >= n) throw std::invalid_argument("regular: d must be < n");
  if ((n * d) % 2 != 0)
    throw std::invalid_argument("regular: n*d must be even");
  if (d == 0) throw std::invalid_argument("regular: d must be >= 1");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    // Configuration model: pair up n*d stubs uniformly at random, reject
    // the whole sample on a self-loop or duplicate edge.
    std::vector<NodeId> stubs;
    stubs.reserve(n * d);
    for (NodeId v = 0; v < n; ++v)
      for (std::size_t i = 0; i < d; ++i) stubs.push_back(v);
    rng.shuffle(stubs);
    GraphBuilder b(n);
    std::unordered_set<std::uint64_t> added;
    bool ok = true;
    for (std::size_t i = 0; i < stubs.size(); i += 2) {
      const NodeId u = stubs[i], v = stubs[i + 1];
      if (u == v || !added.insert(edge_key(u, v)).second) {
        ok = false;
        break;
      }
      b.add_edge(u, v);
    }
    if (!ok) continue;
    auto g = b.build();
    if (g.is_connected()) return g;
  }
  // Whole-sample rejection stalls where simple pairings are rare
  // (P(simple) ~ exp(-(d²-1)/4) per attempt, worse at small n where a
  // collision is near-certain). Instead of failing, finish the job with
  // the repair-by-swap sampler — same stub-pairing distribution up to
  // repair bias of the same order (see make_random_regular_streaming).
  // Only reached when every rejection attempt failed, so historical
  // sample streams for succeeding (n, d, seed) combos are untouched.
  return make_random_regular_streaming(n, d, rng(), max_attempts);
}

WeightedGraph make_watts_strogatz(std::size_t n, std::size_t k, double beta,
                                  Rng& rng, int max_attempts) {
  if (n < 4) throw std::invalid_argument("ws: n must be >= 4");
  if (k == 0 || 2 * k >= n)
    throw std::invalid_argument("ws: need 1 <= k < n/2");
  if (beta < 0.0 || beta > 1.0)
    throw std::invalid_argument("ws: beta out of [0,1]");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    GraphBuilder b(n);
    std::unordered_set<std::uint64_t> added;
    // Ring lattice: each node connects to its k clockwise neighbors,
    // each such edge rewired (re-targeted) with probability beta.
    for (NodeId u = 0; u < n; ++u) {
      for (std::size_t j = 1; j <= k; ++j) {
        NodeId v = static_cast<NodeId>((u + j) % n);
        if (rng.bernoulli(beta)) {
          // Pick a random non-self target avoiding duplicates.
          for (int tries = 0; tries < 32; ++tries) {
            const NodeId w = static_cast<NodeId>(rng.uniform(n));
            if (w != u && added.count(edge_key(u, w)) == 0) {
              v = w;
              break;
            }
          }
        }
        if (v != u && added.insert(edge_key(u, v)).second) b.add_edge(u, v);
      }
    }
    auto g = b.build();
    if (g.is_connected()) return g;
  }
  fail_attempts("watts_strogatz");
}

WeightedGraph make_random_geometric(
    std::size_t n, double radius, Rng& rng,
    std::vector<std::pair<double, double>>* coords, int max_attempts) {
  if (n == 0) throw std::invalid_argument("rgg: n must be >= 1");
  if (radius <= 0.0) throw std::invalid_argument("rgg: radius must be > 0");
  const double r2 = radius * radius;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    std::vector<std::pair<double, double>> pts(n);
    for (auto& p : pts) p = {rng.uniform_double(), rng.uniform_double()};
    GraphBuilder b(n);
    for (NodeId i = 0; i < n; ++i)
      for (NodeId j = i + 1; j < n; ++j) {
        const double dx = pts[i].first - pts[j].first;
        const double dy = pts[i].second - pts[j].second;
        if (dx * dx + dy * dy <= r2) b.add_edge(i, j);
      }
    auto g = b.build();
    if (g.is_connected()) {
      if (coords != nullptr) *coords = std::move(pts);
      return g;
    }
  }
  fail_attempts("random_geometric");
}

WeightedGraph make_ring_of_cliques(std::size_t num_cliques,
                                   std::size_t clique_size,
                                   Latency bridge_latency) {
  if (num_cliques < 3)
    throw std::invalid_argument("ring_of_cliques: need >= 3 cliques");
  if (clique_size < 2)
    throw std::invalid_argument("ring_of_cliques: clique size >= 2");
  GraphBuilder b(node_count("ring_of_cliques", num_cliques, clique_size));
  auto id = [clique_size](std::size_t c, std::size_t i) {
    return static_cast<NodeId>(c * clique_size + i);
  };
  for (std::size_t c = 0; c < num_cliques; ++c)
    for (std::size_t i = 0; i < clique_size; ++i)
      for (std::size_t j = i + 1; j < clique_size; ++j)
        b.add_edge(id(c, i), id(c, j));
  // Bridge: last node of clique c to first node of clique c+1.
  for (std::size_t c = 0; c < num_cliques; ++c)
    b.add_edge(id(c, clique_size - 1), id((c + 1) % num_cliques, 0),
               bridge_latency);
  return b.build();
}

WeightedGraph make_dumbbell(std::size_t clique_size, std::size_t path_len,
                            Latency path_latency) {
  if (clique_size < 2)
    throw std::invalid_argument("dumbbell: clique size >= 2");
  const std::size_t n = 2 * clique_size + (path_len > 0 ? path_len - 1 : 0);
  GraphBuilder b(n);
  auto left = [](std::size_t i) { return static_cast<NodeId>(i); };
  auto right = [&](std::size_t i) {
    return static_cast<NodeId>(clique_size + (path_len > 0 ? path_len - 1 : 0) + i);
  };
  for (std::size_t i = 0; i < clique_size; ++i)
    for (std::size_t j = i + 1; j < clique_size; ++j) {
      b.add_edge(left(i), left(j));
      b.add_edge(right(i), right(j));
    }
  if (path_len == 0) throw std::invalid_argument("dumbbell: path_len >= 1");
  // Path of path_len edges from last left node to first right node via
  // path_len-1 intermediate nodes.
  NodeId prev = left(clique_size - 1);
  for (std::size_t i = 0; i < path_len - 1; ++i) {
    const NodeId mid = static_cast<NodeId>(clique_size + i);
    b.add_edge(prev, mid, path_latency);
    prev = mid;
  }
  b.add_edge(prev, right(0), path_latency);
  return b.build();
}

WeightedGraph make_barabasi_albert(std::size_t n, std::size_t attach,
                                   Rng& rng) {
  if (attach < 1) throw std::invalid_argument("ba: attach must be >= 1");
  if (n <= attach)
    throw std::invalid_argument("ba: n must exceed the attach count");
  GraphBuilder b(n);
  // Seed clique on the first `attach` (or at least 2) nodes.
  const std::size_t seed_nodes = std::max<std::size_t>(attach, 2);
  for (NodeId i = 0; i < seed_nodes; ++i)
    for (NodeId j = i + 1; j < seed_nodes; ++j) b.add_edge(i, j);
  // Degree-proportional sampling via the repeated-endpoint list.
  std::vector<NodeId> endpoints;
  for (const Edge& e : b.edges()) {
    endpoints.push_back(e.u);
    endpoints.push_back(e.v);
  }
  for (NodeId v = static_cast<NodeId>(seed_nodes); v < n; ++v) {
    std::vector<NodeId> chosen;
    while (chosen.size() < attach) {
      const NodeId cand = endpoints[rng.uniform(endpoints.size())];
      bool dup = (cand == v);
      for (NodeId c : chosen) dup = dup || (c == cand);
      if (!dup) chosen.push_back(cand);
    }
    for (NodeId c : chosen) {
      b.add_edge(v, c);
      endpoints.push_back(v);
      endpoints.push_back(c);
    }
  }
  return b.build();
}

WeightedGraph make_kary_tree(std::size_t n, std::size_t b) {
  if (n == 0) throw std::invalid_argument("kary: n must be >= 1");
  if (b < 2) throw std::invalid_argument("kary: branching must be >= 2");
  GraphBuilder builder(n);
  for (std::size_t i = 1; i < n; ++i)
    builder.add_edge(static_cast<NodeId>((i - 1) / b), static_cast<NodeId>(i));
  return builder.build();
}

namespace {

/// Walk the ordered pair sequence (0,1), (0,2), ..., (1,2), ... with
/// geometric skips: each present pair is found by drawing the number of
/// absent pairs preceding it, skip = floor(log(1-u) / log(1-p)), and
/// added to `b`. (Rng::geometric is a Bernoulli loop — O(1/p) per draw —
/// so the skip is computed in closed form here instead.)
void add_skip_sampled_edges(GraphBuilder& b, double p, Rng& rng) {
  const std::size_t n = b.num_nodes();
  if (n < 2 || p <= 0.0) return;
  if (p >= 1.0) {
    for (NodeId i = 0; i < n; ++i)
      for (NodeId j = i + 1; j < n; ++j) b.add_edge(i, j);
    return;
  }
  const double log1mp = std::log1p(-p);
  std::size_t i = 0, j = 1;  // next candidate pair
  for (;;) {
    const double u = rng.uniform_double();
    const double skip_d = std::floor(std::log1p(-u) / log1mp);
    std::uint64_t skip = skip_d > 1e18 ? (std::uint64_t{1} << 62)
                                       : static_cast<std::uint64_t>(skip_d);
    while (i + 1 < n && skip >= n - j) {  // cross whole rows
      skip -= n - j;
      ++i;
      j = i + 1;
    }
    if (i + 1 >= n) return;
    j += skip;
    b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
    if (++j >= n) {
      ++i;
      j = i + 1;
    }
  }
}

/// Repair a configuration-model pairing in place: find bad pairs
/// (self-loops, duplicate edges), swap each one's second stub with a
/// random pair's second stub (degree-preserving), re-validate. The
/// expected number of bad pairs is O(d^2), independent of n, so this
/// converges in a handful of rounds. Returns false if it does not.
bool repair_pairing(std::vector<NodeId>& stubs, Rng& rng) {
  const std::size_t num_pairs = stubs.size() / 2;
  std::vector<std::pair<std::uint64_t, std::size_t>> keyed;
  std::vector<std::size_t> bad;
  for (int round = 0; round < 64; ++round) {
    keyed.clear();
    keyed.reserve(num_pairs);
    bad.clear();
    for (std::size_t k = 0; k < num_pairs; ++k) {
      const NodeId u = stubs[2 * k], v = stubs[2 * k + 1];
      if (u == v) {
        bad.push_back(k);
        continue;
      }
      keyed.emplace_back(edge_key(u, v), k);
    }
    std::sort(keyed.begin(), keyed.end());
    for (std::size_t t = 1; t < keyed.size(); ++t)
      if (keyed[t].first == keyed[t - 1].first) bad.push_back(keyed[t].second);
    if (bad.empty()) return true;
    for (std::size_t k : bad)
      std::swap(stubs[2 * k + 1], stubs[2 * rng.uniform(num_pairs) + 1]);
  }
  return false;
}

}  // namespace

WeightedGraph make_erdos_renyi_streaming(std::size_t n, double p,
                                         std::uint64_t seed,
                                         int max_attempts) {
  if (n == 0) throw std::invalid_argument("er: n must be >= 1");
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("er: p out of [0,1]");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Rng rng(salted(seed, attempt));
    GraphBuilder b(n);
    add_skip_sampled_edges(b, p, rng);
    auto g = b.build();
    if (g.is_connected()) return g;
  }
  fail_attempts("erdos_renyi_streaming");
}

WeightedGraph make_random_regular_streaming(std::size_t n, std::size_t d,
                                            std::uint64_t seed,
                                            int max_attempts) {
  if (d >= n) throw std::invalid_argument("regular: d must be < n");
  if ((n * d) % 2 != 0)
    throw std::invalid_argument("regular: n*d must be even");
  if (d == 0) throw std::invalid_argument("regular: d must be >= 1");
  std::vector<NodeId> stubs;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Rng rng(salted(seed, attempt));
    stubs.clear();
    stubs.reserve(n * d);
    for (NodeId v = 0; v < n; ++v)
      for (std::size_t i = 0; i < d; ++i) stubs.push_back(v);
    rng.shuffle(stubs);
    if (!repair_pairing(stubs, rng)) continue;
    GraphBuilder b(n);
    for (std::size_t k = 0; k + 1 < stubs.size(); k += 2)
      b.add_edge(stubs[k], stubs[k + 1]);
    auto g = b.build();
    if (g.is_connected()) return g;
  }
  fail_attempts("random_regular_streaming");
}

WeightedGraph make_path_of_cliques(std::size_t num_cliques,
                                   std::size_t clique_size,
                                   Latency bridge_latency) {
  if (num_cliques < 2)
    throw std::invalid_argument("path_of_cliques: need >= 2 cliques");
  if (clique_size < 2)
    throw std::invalid_argument("path_of_cliques: clique size >= 2");
  GraphBuilder b(node_count("path_of_cliques", num_cliques, clique_size));
  auto id = [clique_size](std::size_t c, std::size_t i) {
    return static_cast<NodeId>(c * clique_size + i);
  };
  for (std::size_t c = 0; c < num_cliques; ++c)
    for (std::size_t i = 0; i < clique_size; ++i)
      for (std::size_t j = i + 1; j < clique_size; ++j)
        b.add_edge(id(c, i), id(c, j));
  for (std::size_t c = 0; c + 1 < num_cliques; ++c)
    b.add_edge(id(c, clique_size - 1), id(c + 1, 0), bridge_latency);
  return b.build();
}

}  // namespace latgossip
