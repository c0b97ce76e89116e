// Grid phase: the testbed grid through runtime::parallel_map at jobs 4,
// self-induced and external reps in separate, separately timed passes.
// Each rep's row must equal the reference row the set-up produced for
// the same spec, and its features must equal FlowAnalyzer::analyze on the
// rep's server trace. The traced run replays the grid at jobs 1 with a
// span around the experiment's construction, run and analysis.
#include <stdexcept>

#include "obs/metrics.h"
#include "phases.h"
#include "runtime/parallel_map.h"
#include "runtime/progress.h"

namespace perfbench {
namespace {

struct RepOut {
  RepRow row;
  bool analyze_matches = false;
  // Traced (jobs 1) only.
  double construct_ms = 0, run_ms = 0, analyze_ms = 0;
  double events = 0, tail_drops = 0, delivered = 0;
};

RepOut run_rep(const GridSpec& spec, const ccsig::FlowAnalyzer& analyzer,
               Tracer* tr) {
  RepOut out;
  Tracer off(false);
  Tracer& t = tr ? *tr : off;
  ScopedSpan rep(t, "testbed.rep", spec.index);
  auto& reg = ccsig::obs::MetricsRegistry::global();
  ccsig::obs::MetricsSnapshot before;
  if (tr) before = reg.snapshot();
  std::int64_t t0 = now_ns();
  std::optional<ccsig::testbed::TestbedExperiment> exp;
  {
    ScopedSpan sp(t, "testbed.construct", spec.index);
    exp.emplace(spec.config());
  }
  std::int64_t t1 = now_ns();
  {
    ScopedSpan sp(t, "testbed.run", spec.index);
    out.row = row_from(exp->run());
  }
  std::int64_t t2 = now_ns();
  std::vector<ccsig::FlowReport> reports;
  {
    ScopedSpan sp(t, "core.analyze", spec.index);
    reports = analyzer.analyze(exp->server_trace());
  }
  const std::int64_t t3 = now_ns();
  {
    ScopedSpan sp(t, "testbed.destroy", spec.index);
    exp.reset();
  }
  // A rep whose SYN never got through carries no payload: analyze()
  // reports no flow and the rep has no features.
  out.analyze_matches =
      reports.empty() ? !out.row.features
                      : reports.size() == 1 &&
                            same_features(reports[0].features, out.row.features);
  if (tr) {
    const auto after = reg.snapshot();
    out.construct_ms = static_cast<double>(t1 - t0) / 1e6;
    out.run_ms = static_cast<double>(t2 - t1) / 1e6;
    out.analyze_ms = static_cast<double>(t3 - t2) / 1e6;
    const auto delta = [&](const char* name) {
      return static_cast<double>(counter_delta(before, after, name));
    };
    out.events = delta("sim.events_executed");
    out.tail_drops = delta("sim.link.tail_drops");
    out.delivered = delta("sim.link.packets_delivered");
  }
  return out;
}

// Checks a pass's rows against the reference and returns their digest.
std::uint64_t check_pass(const std::vector<GridSpec>& specs,
                         const std::vector<RepOut>& outs, const Setup& s,
                         Tally& tally) {
  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RepRow& ref = s.bases[static_cast<std::size_t>(specs[i].index)].row;
    tally.check(outs[i].row == ref && outs[i].analyze_matches,
                "grid rep " + specs[i].label() +
                    (outs[i].row == ref ? ": features differ from analyze()"
                                        : ": row differs from the reference"));
    h = outs[i].row.digest(h);
  }
  return h;
}

struct PassTiming {
  double seconds = 0;
  std::vector<RepOut> outs;
};

PassTiming timed_pass(const std::vector<GridSpec>& specs,
                      const ccsig::FlowAnalyzer& analyzer, int jobs,
                      ccsig::runtime::ProgressCounter* progress) {
  PassTiming p;
  const std::int64_t t0 = now_ns();
  p.outs = ccsig::runtime::parallel_map(
      specs,
      [&analyzer](const GridSpec& g) { return run_rep(g, analyzer, nullptr); },
      jobs, progress);
  p.seconds = seconds_since(t0);
  return p;
}

}  // namespace

GridPhase::GridPhase(const Setup& s, const ccsig::FlowAnalyzer& analyzer,
                     Tracer& tracer, Tally& tally)
    : s_(s), analyzer_(analyzer), tracer_(tracer), tally_(tally) {
  for (const GridSpec& g : s.grid) (g.external ? external_ : self_).push_back(g);
  // A self rep takes milliseconds, so a self pass runs the self specs
  // kSelfRounds times over to be long enough to time.
  constexpr int kSelfRounds = 4;
  for (int r = 0; r < kSelfRounds; ++r) {
    self_pass_.insert(self_pass_.end(), self_.begin(), self_.end());
  }
  // Reference digests of each pass's rows, in pass order.
  for (const GridSpec& g : self_pass_) {
    self_ref_ = s.bases[g.index].row.digest(self_ref_);
  }
  for (const GridSpec& g : external_) {
    ext_ref_ = s.bases[g.index].row.digest(ext_ref_);
  }
}

namespace {
constexpr int kJobs = 4;
}  // namespace

void GridPhase::round() {
  const bool warmup = rounds_++ == 0;
  const std::int64_t r0 = now_ns();
  do {
    const PassTiming p = timed_pass(self_pass_, analyzer_, kJobs, nullptr);
    tally_.check(check_pass(self_pass_, p.outs, s_, tally_) == self_ref_,
                 "grid self pass digest differs from the reference");
    if (!warmup) {
      self_rps_.push_back(static_cast<double>(self_pass_.size()) / p.seconds);
    }
  } while (!warmup && seconds_since(r0) < 0.3);
  const PassTiming p = timed_pass(external_, analyzer_, kJobs, nullptr);
  tally_.check(check_pass(external_, p.outs, s_, tally_) == ext_ref_,
               "grid external pass digest differs from the reference");
  if (!warmup) {
    ext_rps_.push_back(static_cast<double>(external_.size()) / p.seconds);
  }
}

void GridPhase::report(MetricSink& e2e) const {
  e2e.set("self_reps_per_s", median(self_rps_), "reps/s");
  e2e.set("external_reps_per_s", median(ext_rps_), "reps/s");
  std::printf("grid: %zu self + %zu external reps per pass at jobs %d; %zu "
              "self and %zu external passes; row digest %016llx\n",
              self_pass_.size(), external_.size(), kJobs, self_rps_.size(),
              ext_rps_.size(), static_cast<unsigned long long>(s_.grid_digest));
}

void GridPhase::traced_passes(MetricSink& layer) {
  auto& reg = ccsig::obs::MetricsRegistry::global();

  // Pool view of one jobs-4 pass per scenario: job times from the pool's
  // histogram, queue depth sampled at every job completion.
  double depth_max = 0;
  ccsig::runtime::ProgressCounter progress(
      s_.grid.size(), [&reg, &depth_max](std::size_t, std::size_t) {
        const auto snap = reg.snapshot();
        if (const auto* g = snap.gauge("runtime.pool.queue_depth")) {
          depth_max = std::max(depth_max, g->value);
        }
      });
  const auto before = reg.snapshot();
  timed_pass(self_, analyzer_, kJobs, &progress);
  timed_pass(external_, analyzer_, kJobs, &progress);
  const auto jobs_h =
      histogram_delta(before, reg.snapshot(), "runtime.pool.job_ms");
  layer.set("runtime.pool.job_ms_p50", jobs_h.quantile(0.5), "ms");
  layer.set("runtime.pool.job_ms_max", jobs_h.quantile(1.0), "ms");
  layer.set("runtime.pool.queue_depth", depth_max, "count");

  // Jobs 1, traced: per-rep spans and counter deltas. The same loop run
  // untraced just before and just after it gives the tracing overhead.
  const auto plain_ms = [&] {
    const std::int64_t t0 = now_ns();
    for (const GridSpec& g : s_.grid) run_rep(g, analyzer_, nullptr);
    return static_cast<double>(now_ns() - t0) / 1e6;
  };
  const double plain_before_ms = plain_ms();
  std::vector<RepOut> outs;
  const int pass_span = tracer_.begin("grid.pass_j1");
  for (const GridSpec& g : s_.grid) {
    outs.push_back(run_rep(g, analyzer_, &tracer_));
  }
  tracer_.end(pass_span);
  const double plain_after_ms = plain_ms();
  tally_.check(check_pass(s_.grid, outs, s_, tally_) == s_.grid_digest,
               "grid jobs-1 digest differs from the jobs-4 reference");
  const double wall = tracer_.duration_ms(pass_span);
  const double overhead =
      2.0 * wall / (plain_before_ms + plain_after_ms) - 1.0;
  layer.set("grid.trace_overhead_share", overhead, "ratio");
  std::printf("grid: tracing overhead %+.3f (jobs-1 pass traced %.0f ms, "
              "untraced %.0f ms before and %.0f ms after)\n",
              overhead, wall, plain_before_ms, plain_after_ms);

  // Breakdown: construct + run + analyze + teardown per rep against the
  // pass wall.
  const double parts = tracer_.total_ms("testbed.construct") +
                       tracer_.total_ms("testbed.run") +
                       tracer_.total_ms("core.analyze") +
                       tracer_.total_ms("testbed.destroy");
  const double gap = std::abs(wall - parts) / wall;
  layer.set("grid.breakdown_gap_share", gap, "ratio");
  tally_.check(gap <= kBreakdownTolerance,
               "grid breakdown does not add up to the pass wall time");

  for (const bool ext : {false, true}) {
    double n = 0, events = 0, construct = 0, run = 0, drops = 0, delivered = 0;
    for (std::size_t i = 0; i < outs.size(); ++i) {
      if (s_.grid[i].external != ext) continue;
      n += 1;
      events += outs[i].events;
      construct += outs[i].construct_ms;
      run += outs[i].run_ms;
      drops += outs[i].tail_drops;
      delivered += outs[i].delivered;
    }
    const std::string k = ext ? ".external" : ".self";
    layer.set("sim.events_per_rep" + k, events / n, "count");
    layer.set("sim.ns_per_event" + k, run * 1e6 / events, "ns");
    layer.set("sim.link.tail_drops_per_rep" + k, drops / n, "count");
    layer.set("sim.link.packets_delivered_per_rep" + k, delivered / n, "count");
    layer.set("testbed.construct_ms" + k, construct / n, "ms");
    layer.set("testbed.run_ms" + k, run / n, "ms");
  }
  double analyze = 0, segs = 0, retx = 0;
  for (const RepOut& o : outs) {
    analyze += o.analyze_ms;
    segs += static_cast<double>(o.row.segments_sent);
    retx += static_cast<double>(o.row.retransmits);
  }
  const double reps = static_cast<double>(outs.size());
  layer.set("core.analyze_ms", analyze / reps, "ms");
  layer.set("tcp.segments_sent_per_rep", segs / reps, "count");
  layer.set("tcp.retransmits_per_rep", retx / reps, "count");
}

}  // namespace perfbench
