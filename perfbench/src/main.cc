// pipeline_bench — end-to-end benchmark of the ccsig pipeline.
//
//   pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--inject-mismatch]
//
// Runs in the current directory (its scratch files land there). Builds
// every input from the seed, times the set-up three times, then runs the
// paced daemon sessions and rounds of the offline, replay and grid
// measurements (phases.h), about S seconds in all.
// Human-readable notes go to stdout first; the last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// --inject-mismatch corrupts one expected result of every phase to prove
// the checks fire. Exit status: 0 all outputs correct, 1 some output
// differed from the oracle, 2 usage, 3 error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "phases.h"

namespace {

using namespace perfbench;

// The workloads: one access-link point of the paper's grid each (§3.1).
const LinkPoint* find_workload(const std::string& name) {
  static const LinkPoint kLinks[] = {
      {"link10", 10.0, 20.0, 0.0002, 50.0},
      {"link20", 20.0, 40.0, 0.0005, 100.0},
  };
  for (const LinkPoint& l : kLinks) {
    if (l.name == name) return &l;
  }
  return nullptr;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "pipeline_bench: %s\nusage: pipeline_bench --workload "
               "link10|link20 --seed N --seconds S --trace 0|1 "
               "[--inject-mismatch]\n",
               why);
  return 2;
}

void print_json(const Tally& tally, const MetricSink& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  bool first = true;
  for (const std::string& name : m.order()) {
    const auto& [value, unit] = m.at(name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  bool inject = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--inject-mismatch") {
      inject = true;
      continue;
    }
    if (!(v = value())) return usage(("missing value for " + a).c_str());
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::atoll(v);
    } else if (a == "--seconds") {
      seconds = std::atof(v);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  const LinkPoint* link = find_workload(workload);
  if (!link) return usage("unknown or missing --workload");
  if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage("--seed, --seconds and --trace are required");
  }

  try {
    const Budget budget(seconds);
    std::vector<double> setup_s;
    std::optional<Setup> setup;
    std::optional<ccsig::FlowAnalyzer> analyzer;
    constexpr int kSetups = 3;
    for (int k = 0; k < kSetups; ++k) {
      const std::int64_t t0 = now_ns();
      ccsig::FlowAnalyzer a;  // loads the bundled model
      Setup s = build_setup(*link, static_cast<std::uint64_t>(seed), budget, a);
      setup_s.push_back(seconds_since(t0));
      if (!setup) {
        setup.emplace(std::move(s));
        analyzer.emplace(std::move(a));
      } else if (s.digest != setup->digest) {
        throw std::runtime_error("set-up is not deterministic for this seed");
      }
    }
    // Flush the inputs the set-ups wrote, so their writeback does not land
    // in the middle of the paced sessions that follow.
    ::sync();
    if (inject) {
      for (auto& r : setup->offline_expected) {
        if (r) {
          r->data_packets += 1;
          break;
        }
      }
      for (auto& line : setup->low_lines) {
        if (!line.empty()) {
          line += " (corrupted)";
          break;
        }
      }
      setup->bases[0].row.retransmits += 1;
    }

    Tracer tracer(trace == 1);
    MetricSink e2e, layer;
    Tally tally;
    e2e.set("setup_s", median(setup_s), "s");
    std::printf("workload %s (%.0f Mbit/s, %.0f ms, %.2f%% loss, %.0f ms "
                "buffer), seed %lld, %.0f s\n",
                link->name.c_str(), link->rate_mbps, link->latency_ms,
                link->loss * 100, link->buffer_ms, seed, seconds);
    OfflinePhase offline(*setup, *analyzer, tracer, tally);
    DaemonPhase daemon(*setup, tracer, tally);
    GridPhase grid(*setup, *analyzer, tracer, tally);
    daemon.paced_sessions();
    // Round 0 warms every phase up and is not timed.
    const std::int64_t t0 = now_ns();
    for (int round = 0; round < 4 || seconds_since(t0) < budget.rounds_s;
         ++round) {
      offline.round();
      daemon.replay_round();
      grid.round();
    }
    offline.report(e2e, layer);
    daemon.report(e2e, layer);
    grid.report(e2e);
    if (tracer.enabled()) grid.traced_passes(layer);

    const double failed_share = static_cast<double>(tally.failed) /
                                static_cast<double>(tally.attempted);
    std::printf("failed_share = %.6f (%llu of %llu checked flows and reps)\n",
                failed_share, static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    for (const std::string& f : tally.first_failures) {
      std::fprintf(stderr, "mismatch: %s\n", f.c_str());
    }
    if (tracer.enabled()) {
      tracer.write_json("trace_" + workload + "_" + std::to_string(seed) +
                        ".json");
    }
    print_json(tally, tracer.enabled() ? layer : e2e);
    return tally.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    return 3;
  }
}
