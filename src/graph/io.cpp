#include "graph/io.h"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/builder.h"

namespace latgossip {
namespace {

constexpr const char* kMagic = "latgossip-graph";
constexpr int kVersion = 1;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("graph io: " + what);
}

/// Skip comments ('#' to end of line) and whitespace.
void skip_noise(std::istream& in) {
  while (true) {
    const int c = in.peek();
    if (c == '#') {
      std::string line;
      std::getline(in, line);
    } else if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      in.get();
    } else {
      return;
    }
  }
}

}  // namespace

void write_graph(std::ostream& out, const WeightedGraph& g) {
  out << kMagic << ' ' << kVersion << '\n';
  out << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (const Edge& e : g.edges())
    out << e.u << ' ' << e.v << ' ' << e.latency << '\n';
  if (!out) fail("write failed");
}

WeightedGraph read_graph(std::istream& in) {
  skip_noise(in);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version)) fail("missing header");
  if (magic != kMagic) fail("bad magic '" + magic + "'");
  if (version != kVersion) fail("unsupported version");
  skip_noise(in);
  // Sizes and ids are parsed SIGNED: extracting "-3" into an unsigned
  // wraps silently instead of setting failbit, which would turn a
  // negative id into a huge one and misreport the error.
  std::int64_t n = 0, m = 0;
  if (!(in >> n >> m)) fail("missing size line");
  if (n < 0 || m < 0) fail("negative size");
  if (static_cast<std::uint64_t>(n) > static_cast<std::uint64_t>(kInvalidNode))
    fail("too many nodes for 32-bit node ids");
  const auto nn = static_cast<std::uint64_t>(n);
  const std::uint64_t max_edges = nn <= 1 ? 0 : nn * (nn - 1) / 2;
  if (static_cast<std::uint64_t>(m) > max_edges)
    fail("edge count " + std::to_string(m) +
         " exceeds a simple graph on " + std::to_string(n) + " nodes");
  GraphBuilder b(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < m; ++i) {
    // Built only on a failure path: the success path formats nothing.
    const auto at = [i] { return " at edge " + std::to_string(i); };
    skip_noise(in);
    std::int64_t u = 0, v = 0;
    Latency latency = 0;
    if (!(in >> u >> v >> latency)) fail("truncated edge list" + at());
    if (u < 0 || v < 0) fail("negative node id" + at());
    if (u >= n || v >= n) fail("edge endpoint out of range" + at());
    if (latency < 1)
      fail("latency must be >= 1" + at() + " (got " +
           std::to_string(latency) + ")");
    try {
      b.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v), latency);
    } catch (const std::exception& e) {
      // Self-loops, rejected by the builder — re-thrown with the
      // offending edge's position attached.
      fail(std::string(e.what()) + at());
    }
  }
  skip_noise(in);
  if (in.peek() != std::istream::traits_type::eof())
    fail("trailing garbage after edge list");
  try {
    return b.build();
  } catch (const std::invalid_argument& e) {
    fail(e.what());  // "duplicate edge at edge N": the position is in it
  }
}

void save_graph(const std::string& path, const WeightedGraph& g) {
  std::ofstream out(path);
  if (!out) fail("cannot open '" + path + "' for writing");
  write_graph(out, g);
  // The tail of the file is still buffered: only the flush in close()
  // can report that it did not fit.
  out.close();
  if (!out) fail("cannot write '" + path + "'");
}

WeightedGraph load_graph(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open '" + path + "' for reading");
  return read_graph(in);
}

std::string graph_to_string(const WeightedGraph& g) {
  std::ostringstream out;
  write_graph(out, g);
  return out.str();
}

WeightedGraph graph_from_string(const std::string& text) {
  std::istringstream in(text);
  return read_graph(in);
}

}  // namespace latgossip
