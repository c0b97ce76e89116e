// The benchmark's set-up and its three measured phases. Every run builds
// its inputs from the seed (set-up), then measures:
//
//   offline — one multi-flow capture analysed by the batch analyzer and by
//             the stream engine at jobs 1 and jobs 3;
//   daemon  — ClassificationService tailing a capture that an open-loop
//             generator writes at a low and a high record rate, with a
//             subscriber timing verdicts, then full-speed session replays;
//   grid    — the testbed grid through runtime::parallel_map at jobs 4,
//             self-induced and external reps timed separately.
//
// The paced daemon sessions run first. The throughput measurements then
// run in rounds — one offline iteration, one replay and one grid round
// each — until the run's time is spent, so every throughput metric is
// sampled across the whole run and the reported medians do not hinge on
// one stretch of machine load.
//
// With tracing on, each phase also records spans around its calls into
// the program and reports the per-layer metrics (see RATIONALE.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "corpus.h"
#include "service/service.h"
#include "stream/stream.h"
#include "util.h"

namespace perfbench {

/// Open-loop record rates of the daemon phase (records per second of
/// wall-clock time), and the latency limit a verdict must meet. Verdicts
/// normally arrive within about a millisecond; the limit sits far above
/// the ~100 ms stalls a shared VM can impose and still fails a service
/// whose backlog grows for a second.
inline constexpr double kLowRate = 100'000;
inline constexpr double kHighRate = 1'000'000;
inline constexpr double kLatencyLimitMs = 1000;

/// Tolerance of the traced breakdown: the spans under a pass must cover
/// its wall time to within this share.
inline constexpr double kBreakdownTolerance = 0.05;

/// How a run's --seconds are spent: the two paced sessions, then rounds.
struct Budget {
  double low_s = 0;
  double high_s = 0;
  double rounds_s = 0;
  explicit Budget(double seconds)
      : low_s(0.20 * seconds), high_s(0.10 * seconds), rounds_s(0.70 * seconds) {}
};

struct Setup {
  std::vector<GridSpec> grid;
  std::vector<BaseCapture> bases;  // indexed like grid
  std::uint64_t grid_digest = kFnvBasis;  // reference rows, grid order

  std::string offline_path;        // the merged capture on disk
  std::size_t offline_records = 0;
  std::size_t offline_peak_concurrent = 0;
  /// Expected report by copy id; nullopt where no verdict is expected.
  std::vector<std::optional<ccsig::FlowReport>> offline_expected;

  MergedCapture low, high;         // daemon slices (kept in memory)
  /// Expected verdict lines by copy id; empty where none is expected.
  std::vector<std::string> low_lines, high_lines;

  std::uint64_t digest = 0;        // over all inputs, for determinism
};

/// Builds every input from the seed; the base reps run on 4 threads.
Setup build_setup(const LinkPoint& link, std::uint64_t seed,
                  const Budget& budget, const ccsig::FlowAnalyzer& analyzer);

/// Each phase records its checks in `tally`; report() appends its
/// end-to-end metrics to `e2e` and, in traced runs, its per-layer
/// metrics to `layer`.
class OfflinePhase {
 public:
  OfflinePhase(const Setup& s, const ccsig::FlowAnalyzer& analyzer,
               Tracer& tracer, Tally& tally)
      : s_(s), analyzer_(analyzer), tracer_(tracer), tally_(tally) {}
  /// Batch, stream jobs 1, stream jobs 3. The first round only warms the
  /// page cache and the allocator. In traced runs every round goes through
  /// the staged calls and every second one after the first is traced, so
  /// the tracing overhead compares the same code.
  void round();
  void report(MetricSink& e2e, MetricSink& layer) const;

 private:
  const Setup& s_;
  const ccsig::FlowAnalyzer& analyzer_;
  Tracer& tracer_;
  Tally& tally_;
  int rounds_ = 0;
  std::vector<double> batch_rps_, j1_rps_, j3_rps_, batch_mb_, stream_mb_;
  std::vector<double> untraced_s_, traced_s_;
  // Traced rounds: summed span times (ms) and counts.
  double traced_rounds_ = 0, fill_ms_ = 0, push_j1_ms_ = 0, finish_ms_ = 0,
         fill_j3_ms_ = 0, push_j3_ms_ = 0, read_ms_ = 0, trace_ms_ = 0,
         split_ms_ = 0, analyze_ms_ = 0, analyze_n_ = 0, render_ms_ = 0,
         free_ms_ = 0, worst_gap_ = 0;
  std::vector<ccsig::FlowReport> batch_reports_;
  ccsig::stream::StreamStats stats_j1_;
  double imbalance_ = 0;
};

class DaemonPhase {
 public:
  DaemonPhase(const Setup& s, Tracer& tracer, Tally& tally)
      : s_(s), tracer_(tracer), tally_(tally) {}
  /// The low-rate then the high-rate paced session; the high one is
  /// recorded for replay.
  void paced_sessions();
  /// One full-speed replay of the recorded high-rate session; the first
  /// is checked but not timed.
  void replay_round();
  void report(MetricSink& e2e, MetricSink& layer) const;

  struct Session {
    std::vector<double> latency_ms;  // per flow, due -> verdict received
    double gen_lag_tail_ms = 0;
    double ingest_p50_ms = 0, ingest_tail_ms = 0;
    ccsig::service::ServiceStats stats;
    double pressure_max = 0;
    std::size_t outstanding_max = 0;
    std::vector<std::string> log;
  };

 private:
  const Setup& s_;
  Tracer& tracer_;
  Tally& tally_;
  Session low_, high_;
  int replays_ = 0;
  std::vector<double> replay_rps_;
};

class GridPhase {
 public:
  GridPhase(const Setup& s, const ccsig::FlowAnalyzer& analyzer,
            Tracer& tracer, Tally& tally);
  /// Self passes for a few tenths of a second, then one external pass.
  /// The first round is untimed: it faults fresh heap into every worker.
  void round();
  /// Traced runs: one jobs-4 pass per scenario for the pool's view, then
  /// the whole grid at jobs 1 untraced, traced, and untraced again.
  void traced_passes(MetricSink& layer);
  void report(MetricSink& e2e) const;

 private:
  const Setup& s_;
  const ccsig::FlowAnalyzer& analyzer_;
  Tracer& tracer_;
  Tally& tally_;
  std::vector<GridSpec> self_, external_, self_pass_;
  std::uint64_t self_ref_ = kFnvBasis, ext_ref_ = kFnvBasis;
  int rounds_ = 0;
  std::vector<double> self_rps_, ext_rps_;
};

}  // namespace perfbench
