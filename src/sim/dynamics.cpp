#include "sim/dynamics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"

namespace latgossip {

namespace {

// Per-schedule seed salts (mirrored verbatim by the oracle-side
// interpreters in sim/oracle.cpp — the contract lives in
// sim/dynamics_spec.h).
constexpr std::uint64_t kChurnSalt = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kDriftEdgeSalt = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kDriftRoundSalt = 0xbf58476d1ce4e5b9ULL;

constexpr std::uint64_t kFixedOne = 1024;

constexpr Round kNever = std::numeric_limits<Round>::max();

/// Cap on round-valued knobs (churn window and absence, jitter spread),
/// far beyond any run's horizon; it keeps leave + absence and
/// lat + jitter clear of overflow.
constexpr Round kMaxSpan = Round{1} << 40;

}  // namespace

std::string dynamic_spec_error(const DynamicSpec& spec,
                               std::size_t num_nodes) {
  std::vector<NodeId> explicit_crashes;
  for (const DynamicSpec::Crash& c : spec.crash_at) {
    if (c.node >= num_nodes) return "crash node is out of range";
    if (c.round < 0) return "crash round must be >= 0";
    if (c.node != spec.crash_spare) explicit_crashes.push_back(c.node);
  }
  if (spec.crash_count > 0) {
    if (spec.crash_spare >= num_nodes) return "crash_spare is out of range";
    if (spec.crash_round < 0) return "crash_round must be >= 0";
    // The draw needs crash_count nodes that are neither the spare nor
    // already crashed explicitly (otherwise it would never finish).
    std::sort(explicit_crashes.begin(), explicit_crashes.end());
    const auto taken = static_cast<std::size_t>(
        std::unique(explicit_crashes.begin(), explicit_crashes.end()) -
        explicit_crashes.begin());
    if (spec.crash_count > num_nodes - 1 - taken)
      return "too many crashes: at most n - 1 nodes besides the spare";
  }
  if (!(spec.drop_prob >= 0.0 && spec.drop_prob <= 1.0))
    return "drop_prob must be in [0, 1]";
  if (spec.jitter_spread < 0 || spec.jitter_spread > kMaxSpan)
    return "jitter_spread must be in [0, 2^40]";
  if (spec.drift_step >= 1024) return "drift_step must be < 1024";
  if (spec.drift_bound < 1024 || spec.drift_bound > 1024 * 1024)
    return "drift_bound must be in [1024, 1048576]";
  // Negated so NaN fails too.
  if (!(spec.churn_prob >= 0.0 && spec.churn_prob <= 1.0))
    return "churn_prob must be in [0, 1]";
  if (spec.churn_active()) {
    if (spec.churn_window < 1 || spec.churn_window > kMaxSpan)
      return "churn_window must be in [1, 2^40] when churning";
    if (spec.churn_absence < 1 || spec.churn_absence > kMaxSpan)
      return "churn_absence must be in [1, 2^40] when churning";
    if (spec.churn_mode > 2) return "churn_mode must be 0, 1, or 2";
    if (num_nodes > 0 && spec.churn_spare >= num_nodes)
      return "churn_spare is out of range";
    if (num_nodes == 1) return "churn needs at least 2 nodes";
  }
  if (spec.adv_slow < 1024 || spec.adv_slow > 1024 * 1024)
    return "adv_slow must be in [1024, 1048576]";
  if (spec.adv_active() && num_nodes > 0 && spec.adv_source >= num_nodes)
    return "adv_source is out of range";
  if (spec.seed == 0) return "seed must be nonzero";
  return std::string();
}

DynamicPlan::DynamicPlan(std::size_t num_nodes, std::size_t num_edges,
                         const DynamicSpec& spec)
    : spec_(spec), num_nodes_(num_nodes), drop_start_(spec.fault_seed) {
  const std::string err = dynamic_spec_error(spec, num_nodes);
  if (!err.empty()) throw std::invalid_argument("DynamicPlan: " + err);

  if (spec_.crash_active()) {
    crash_round_.assign(num_nodes, kNever);
    for (const DynamicSpec::Crash& c : spec_.crash_at)
      crash_round_[c.node] = c.round;
    // The draw advances the fault stream; the loss stream starts where
    // it stops.
    std::size_t drawn = 0;
    while (drawn < spec_.crash_count) {
      const auto v = static_cast<NodeId>(drop_start_.uniform(num_nodes));
      if (v == spec_.crash_spare || crash_round_[v] != kNever) continue;
      crash_round_[v] = spec_.crash_round;
      ++drawn;
    }
  }

  if (spec_.churn_active()) {
    churn_.resize(num_nodes);
    std::vector<std::pair<Round, NodeId>> resets;
    for (NodeId u = 0; u < num_nodes; ++u) {
      if (u == spec_.churn_spare) continue;
      Rng rng(spec_.seed ^ (kChurnSalt * (std::uint64_t{u} + 1)));
      const bool leaves = rng.bernoulli(spec_.churn_prob);
      const Round leave =
          1 + static_cast<Round>(
                  rng.uniform(static_cast<std::uint64_t>(spec_.churn_window)));
      const Round absence =
          1 + static_cast<Round>(
                  rng.uniform(static_cast<std::uint64_t>(spec_.churn_absence)));
      const bool reset = spec_.churn_mode == 1 ||
                         (spec_.churn_mode == 2 && rng.bernoulli(0.5));
      if (!leaves) continue;
      churn_[u].leave = leave;
      churn_[u].rejoin = leave + absence;
      churn_[u].reset = reset;
      if (reset) resets.emplace_back(churn_[u].rejoin, u);
    }
    std::sort(resets.begin(), resets.end());
    reset_rounds_.reserve(resets.size());
    reset_nodes_.reserve(resets.size());
    for (const auto& [round, node] : resets) {
      reset_rounds_.push_back(round);
      reset_nodes_.push_back(node);
    }
  }
  if (spec_.drift_active()) drift_.resize(num_edges);
  begin_run();
}

void DynamicPlan::begin_run() {
  drop_rng_ = drop_start_;
  jitter_rng_ = Rng(spec_.jitter_seed);
  if (spec_.adv_active()) {
    touched_.reinit(num_nodes_);
    touched_.set(spec_.adv_source);
  }
  std::fill(drift_.begin(), drift_.end(), DriftState{});
}

std::uint64_t DynamicPlan::drift_factor(EdgeId e, Round r) {
  DriftState& st = drift_[e];
  if (st.round > r) st = DriftState{};  // defensive rewind (never in-run)
  while (st.round < r) {
    ++st.round;
    std::uint64_t h = spec_.seed ^
                      (kDriftEdgeSalt * (std::uint64_t{e} + 1)) ^
                      (static_cast<std::uint64_t>(st.round) * kDriftRoundSalt);
    const bool up = (splitmix64(h) & 1) != 0;
    st.factor = st.factor *
                (up ? kFixedOne + spec_.drift_step
                    : kFixedOne - spec_.drift_step) /
                kFixedOne;
    const std::uint64_t lo = kFixedOne * kFixedOne / spec_.drift_bound;
    st.factor = std::clamp<std::uint64_t>(st.factor, lo, spec_.drift_bound);
  }
  return st.factor;
}

Latency DynamicPlan::adjust_latency(NodeId u, NodeId peer, EdgeId e,
                                    Latency lat, Round r) {
  if (spec_.jitter_spread > 0) {
    lat += jitter_rng_.uniform_int(-spec_.jitter_spread, spec_.jitter_spread);
    if (lat < 1) lat = 1;
  }
  if (!drift_.empty()) {
    const std::uint64_t f = drift_factor(e, r);
    lat = static_cast<Latency>(static_cast<std::uint64_t>(lat) * f / kFixedOne);
    if (lat < 1) lat = 1;
  }
  if (!touched_.empty() && touched_.test(u) != touched_.test(peer)) {
    lat = static_cast<Latency>(static_cast<std::uint64_t>(lat) *
                               spec_.adv_slow / kFixedOne);
  }
  return lat;
}

std::span<const NodeId> DynamicPlan::resets_at(Round r) const {
  const auto [lo, hi] =
      std::equal_range(reset_rounds_.begin(), reset_rounds_.end(), r);
  const auto first = static_cast<std::size_t>(lo - reset_rounds_.begin());
  const auto count = static_cast<std::size_t>(hi - lo);
  return {reset_nodes_.data() + first, count};
}

std::string describe_dynamics(const DynamicSpec& spec) {
  std::ostringstream os;
  if (!spec.any()) return "off";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ' ';
    first = false;
  };
  if (!spec.crash_at.empty()) {
    sep();
    os << "crash=";
    for (std::size_t i = 0; i < spec.crash_at.size(); ++i)
      os << (i > 0 ? "," : "") << spec.crash_at[i].node << "@"
         << spec.crash_at[i].round;
  }
  if (spec.crash_count > 0) {
    sep();
    os << "crash-draw=" << spec.crash_count << "@" << spec.crash_round
       << " crash-spare=" << spec.crash_spare;
  }
  if (spec.drop_active()) {
    sep();
    os << "drop=" << spec.drop_prob;
  }
  if (spec.crash_count > 0 || spec.drop_active()) {
    sep();
    os << "fault-seed=" << spec.fault_seed;
  }
  if (spec.jitter_active()) {
    sep();
    os << "jitter=" << spec.jitter_spread << " jitter-seed=" << spec.jitter_seed;
  }
  if (spec.drift_active()) {
    sep();
    os << "drift=" << spec.drift_step << "/" << spec.drift_bound;
  }
  if (spec.churn_active()) {
    sep();
    static const char* kModes[] = {"retain", "reset", "mixed"};
    os << "churn=" << spec.churn_prob << " window=" << spec.churn_window
       << " absence=" << spec.churn_absence << " mode="
       << kModes[spec.churn_mode <= 2 ? spec.churn_mode : 0]
       << " spare=" << spec.churn_spare;
  }
  if (spec.adv_active()) {
    sep();
    os << "adv=" << spec.adv_slow << " adv-source=" << spec.adv_source;
  }
  sep();
  os << "seed=" << spec.seed;
  return os.str();
}

std::string canonical_dynamics(const DynamicSpec& spec) {
  std::string out;
  auto part = [&](const std::string& text) {
    if (!out.empty()) out += ';';
    out += text;
  };
  auto num = [](auto v) { return std::to_string(v); };
  auto hex = [](double p) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", p);
    return std::string(buf);
  };
  if (!spec.crash_at.empty()) {
    std::string list = "crash=";
    for (std::size_t i = 0; i < spec.crash_at.size(); ++i)
      list += (i > 0 ? "," : "") + num(spec.crash_at[i].node) + "@" +
              num(spec.crash_at[i].round);
    part(list);
  }
  if (spec.crash_count > 0)
    part("crash-draw=" + num(spec.crash_count) + "@" + num(spec.crash_round) +
         "/" + num(spec.crash_spare));
  if (spec.drop_active()) part("drop=" + hex(spec.drop_prob));
  if (spec.crash_count > 0 || spec.drop_active())
    part("fault-seed=" + num(spec.fault_seed));
  if (spec.jitter_active())
    part("jitter=" + num(spec.jitter_spread) + "/" + num(spec.jitter_seed));
  if (spec.drift_active())
    part("drift=" + num(spec.drift_step) + "/" + num(spec.drift_bound));
  if (spec.churn_active())
    part("churn=" + hex(spec.churn_prob) + "/" + num(spec.churn_window) + "/" +
         num(spec.churn_absence) + "/" + num(int{spec.churn_mode}) + "/" +
         num(spec.churn_spare));
  if (spec.adv_active())
    part("adv=" + num(spec.adv_slow) + "/" + num(spec.adv_source));
  // The master seed drives drift and churn only.
  if (spec.drift_active() || spec.churn_active()) part("seed=" + num(spec.seed));
  return out;
}

DynamicSpec parse_dynamics_spec(const std::string& text, std::size_t num_nodes,
                                NodeId source) {
  DynamicSpec spec;
  spec.churn_spare = source;
  spec.adv_source = source;
  bool churn_window_set = false, churn_absence_set = false,
       churn_mode_set = false;

  auto bad = [&](const std::string& why) -> std::invalid_argument {
    return std::invalid_argument("--dynamics: " + why);
  };
  // Every value must be consumed whole and fit its field before it is
  // narrowed; dynamic_spec_error() then checks the semantic ranges.
  auto parse_uint = [&]<typename T>(const std::string& v, const char* key,
                                    T& field) {
    std::uint64_t out = 0;
    const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc() || p != v.data() + v.size())
      throw bad(std::string("bad number for ") + key + ": '" + v + "'");
    if (out > static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
      throw bad(std::string("number out of range for ") + key + ": '" + v +
                "'");
    field = static_cast<T>(out);
  };
  auto parse_prob = [&](const std::string& v, const char* key) {
    double out = 0.0;
    const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc() || p != v.data() + v.size() || !std::isfinite(out))
      throw bad(std::string("bad number for ") + key + ": '" + v + "'");
    return out;
  };

  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string item =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? text.size() : comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) throw bad("expected key=value, got '" + item + "'");
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    if (key == "drift") {
      parse_uint(val, "drift", spec.drift_step);
    } else if (key == "drift-bound") {
      parse_uint(val, "drift-bound", spec.drift_bound);
    } else if (key == "churn") {
      spec.churn_prob = parse_prob(val, "churn");
    } else if (key == "churn-window") {
      parse_uint(val, "churn-window", spec.churn_window);
      churn_window_set = true;
    } else if (key == "churn-absence") {
      parse_uint(val, "churn-absence", spec.churn_absence);
      churn_absence_set = true;
    } else if (key == "churn-mode") {
      if (val == "retain")
        spec.churn_mode = 0;
      else if (val == "reset")
        spec.churn_mode = 1;
      else if (val == "mixed")
        spec.churn_mode = 2;
      else
        throw bad("churn-mode must be retain|reset|mixed, got '" + val + "'");
      churn_mode_set = true;
    } else if (key == "adv") {
      parse_uint(val, "adv", spec.adv_slow);
    } else if (key == "seed") {
      parse_uint(val, "seed", spec.seed);
    } else {
      throw bad("unknown key '" + key + "'");
    }
  }

  if (spec.churn_active()) {
    if (!churn_window_set) spec.churn_window = 16;
    if (!churn_absence_set) spec.churn_absence = 8;
    if (!churn_mode_set) spec.churn_mode = 1;
  }
  const std::string err = dynamic_spec_error(spec, num_nodes);
  if (!err.empty()) throw bad(err);
  return spec;
}

}  // namespace latgossip
