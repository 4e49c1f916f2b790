// latgossip_check — standalone model-conformance fuzzer.
//
// Generates random cases (graph family × latency model × protocol ×
// faults), runs each through the optimized engine AND the reference
// oracle (see src/check/), and stops on the first divergence or
// invariant violation. The failing case is shrunk to a minimal
// counterexample (--shrink, default on) and written to --out as a
// reproducible dump.
//
// Usage:
//   latgossip_check --cases=5000 --seed=42
//   latgossip_check --minutes=10 --shrink --out=counterexample.txt
//
// Flags:
//   --cases=N        stop after N cases (default 5000; ignored when
//                    --minutes is set)
//   --minutes=M      keep fuzzing for M wall-clock minutes
//   --seed=S         base RNG seed (default 1)
//   --max-nodes=N    widen the case profile (default 14)
//   --max-latency=L  widen the latency range (default 9)
//   --no-faults      disable crash/drop injection
//   --no-dynamics    disable dynamic scenarios (latency drift, churn,
//                    adversarial slowdown)
//   --no-composites  only the protocols that take model knobs (no
//                    local broadcasts, unified, EID or T(k))
//   --shrink         shrink a failing case before reporting (default on;
//                    --shrink=0 disables)
//   --out=PATH       write the (shrunk) counterexample dump to PATH
//
// About one composite case in four runs under a small round budget; the
// summary counts composite cases, those with a budget, and those the
// budget cut.
//
// Exit status: 0 = no divergence, 1 = divergence found, 2 = bad usage.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "check/case_gen.h"
#include "check/differential.h"
#include "check/shrink.h"
#include "obs/metrics.h"
#include "util/args.h"
#include "util/rng.h"

namespace {

using namespace latgossip;

int report_failure(const TestCase& tc, const DiffReport& rep, bool do_shrink,
                   const std::string& out_path) {
  std::cerr << "DIVERGENCE on " << describe(tc) << "\n";
  for (const std::string& f : rep.failures) std::cerr << "  " << f << "\n";

  TestCase minimal = tc;
  if (do_shrink) {
    ShrinkStats stats;
    minimal = shrink_case(
        tc, [](const TestCase& c) { return !run_differential(c).ok; },
        &stats);
    std::cerr << "shrunk to " << describe(minimal) << " (" << stats.attempts
              << " attempts, " << stats.accepted << " accepted)\n";
    const DiffReport small_rep = run_differential(minimal);
    for (const std::string& f : small_rep.failures)
      std::cerr << "  " << f << "\n";
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
    } else {
      write_case(out, minimal);
      std::cerr << "counterexample written to " << out_path << "\n";
    }
  } else {
    write_case(std::cerr, minimal);
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  try {
    args.allow_only({"cases", "minutes", "seed", "max-nodes", "max-latency",
                     "no-faults", "no-dynamics", "no-composites", "shrink",
                     "out"});
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  const std::int64_t cases = args.get_int("cases", 5000);
  const std::int64_t minutes = args.get_int("minutes", 0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));
  const bool do_shrink = args.get_bool("shrink", true);
  const std::string out_path = args.get("out", "");

  CaseProfile profile;
  profile.max_nodes =
      static_cast<std::size_t>(args.get_int("max-nodes", 14));
  profile.max_latency = args.get_int("max-latency", 9);
  profile.allow_faults = !args.get_bool("no-faults", false);
  profile.allow_dynamics = !args.get_bool("no-dynamics", false);
  profile.composites = !args.get_bool("no-composites", false);
  if (profile.max_nodes < profile.min_nodes || profile.max_latency < 1) {
    std::cerr << "bad profile bounds\n";
    return 2;
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::minutes(minutes);
  const bool timed = minutes > 0;

  Rng rng(seed);
  std::int64_t ran = 0;
  std::int64_t composites = 0;
  std::int64_t budgeted = 0;
  std::int64_t budget_cut = 0;
  while (timed ? std::chrono::steady_clock::now() < deadline : ran < cases) {
    const TestCase tc = random_case(rng, profile);
    const DiffReport rep = run_differential(tc);
    if (!rep.ok) return report_failure(tc, rep, do_shrink, out_path);
    ++ran;
    if (check_proto_is_composite(tc.proto)) {
      ++composites;
      if (tc.max_rounds != kUnlimitedRounds) ++budgeted;
      if (rep.budget_cut) ++budget_cut;
    }
    if (ran % 1000 == 0)
      std::cout << ran << " cases, no divergence\n" << std::flush;
  }
  std::cout << composites << " composite cases, " << budgeted
            << " with a round budget, " << budget_cut << " cut by it\n";
  std::cout << "checked " << ran << " cases: engine and oracle agree\n";
  return 0;
}
