// Offline phase: the merged capture analysed three ways per round — the
// batch analyzer (what `ccsig_analyze` does by default) and the stream
// engine at jobs 1 and jobs 3 (producer + 3 shard workers).
//
// Untraced runs time the program's own entry points,
// FlowAnalyzer::analyze_pcap_checked and stream::analyze_pcap_stream.
// Traced runs take every pass through the staged public calls those two
// make, one span per call, so that traced and untraced rounds of a traced
// run differ by the spans alone.
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>

#include "analysis/flow_trace.h"
#include "analysis/from_pcap.h"
#include "obs/metrics.h"
#include "pcap/pcap_file.h"
#include "phases.h"
#include "stream/ingest.h"
#include "stream/stream.h"

namespace perfbench {
namespace {

using ccsig::FlowReport;

struct Pass {
  double seconds = 0;
  double rss_mb = 0;
  int span = -1;  // the pass span when traced
  std::vector<FlowReport> reports;
  ccsig::stream::StreamStats stats;
};

// Renders every verdict line, as the tool prints them.
void render_all(const std::vector<FlowReport>& reports, Tracer& tr) {
  ScopedSpan sp(tr, "core.render");
  std::vector<std::string> lines;
  lines.reserve(reports.size());
  for (const FlowReport& r : reports) {
    lines.push_back(ccsig::FlowAnalyzer::render(r));
  }
}

struct RssWindow {
  long base_kb = 0;
  RssWindow() {
    release_free_heap();
    base_kb = current_rss_kb();
    reset_peak_rss();
  }
  double grown_mb() const {
    return static_cast<double>(peak_rss_kb() - base_kb) / 1024.0;
  }
};

Pass batch_pass(const std::string& path, const ccsig::FlowAnalyzer& analyzer,
                bool staged, Tracer& tr) {
  Pass p;
  RssWindow rss;
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan pass(tr, "offline.batch_pass");
    p.span = pass.index();
    if (!staged) {
      ccsig::PcapAnalysis a = analyzer.analyze_pcap_checked(path);
      if (a.error) throw std::runtime_error("corpus capture failed to parse");
      p.reports = std::move(a.reports);
    } else {
      // The same public calls analyze_pcap_checked makes, one span each,
      // with the same lifetimes: the records are freed once decoded, the
      // flows and the trace once every flow is analysed.
      ccsig::pcap::PcapReadResult raw;
      {
        ScopedSpan sp(tr, "pcap.read_all");
        raw = ccsig::pcap::read_all_checked(path);
      }
      if (raw.error) throw std::runtime_error("corpus capture failed to parse");
      ccsig::analysis::Trace trace;
      {
        ScopedSpan sp(tr, "analysis.trace_from_records");
        trace = ccsig::analysis::trace_from_records(raw.records);
      }
      {
        ScopedSpan sp(tr, "batch.free");
        raw = {};
      }
      std::vector<ccsig::analysis::FlowTrace> flows;
      {
        ScopedSpan sp(tr, "analysis.split_flows");
        flows = ccsig::analysis::split_flows(trace);
      }
      p.reports.reserve(flows.size());
      for (const auto& flow : flows) {
        ScopedSpan sp(tr, "core.analyze_flow", copy_of(flow.data_key));
        p.reports.push_back(analyzer.analyze_flow(flow));
      }
      ScopedSpan sp(tr, "batch.free");
      flows = {};
      trace = {};
    }
    render_all(p.reports, tr);
  }
  p.seconds = seconds_since(t0);
  p.rss_mb = rss.grown_mb();
  return p;
}

// The engine's counts over one pass, from deltas of the registry the
// engine publishes into (peak: the gauge finish() sets).
ccsig::stream::StreamStats stream_counts(
    const ccsig::obs::MetricsSnapshot& before) {
  const auto after = ccsig::obs::MetricsRegistry::global().snapshot();
  const auto delta = [&](const char* name) {
    return counter_delta(before, after, name);
  };
  ccsig::stream::StreamStats c;
  c.records = delta("stream.records_total");
  c.flows_opened = delta("stream.flows_opened");
  c.flows_finalized = delta("stream.flows_finalized");
  c.evicted_fin = delta("stream.evicted_fin");
  c.evicted_idle = delta("stream.evicted_idle");
  c.evicted_lru = delta("stream.evicted_lru");
  c.evicted_forced = delta("stream.evicted_forced");
  c.early_classified = delta("stream.early_classified");
  const auto* peak = after.gauge("stream.flows_peak");
  c.peak_active_flows = peak ? static_cast<std::size_t>(peak->value) : 0;
  return c;
}

Pass stream_pass(const std::string& path, const ccsig::FlowAnalyzer& analyzer,
                 unsigned jobs, bool staged, Tracer& tr) {
  Pass p;
  ccsig::stream::StreamConfig cfg;
  cfg.jobs = jobs;
  const auto before = ccsig::obs::MetricsRegistry::global().snapshot();
  RssWindow rss;
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan pass(tr, jobs == 1 ? "offline.stream_pass_j1"
                                  : "offline.stream_pass_j3");
    p.span = pass.index();
    if (!staged) {
      ccsig::PcapAnalysis a =
          ccsig::stream::analyze_pcap_stream(path, analyzer, cfg);
      if (a.error) throw std::runtime_error("corpus capture failed to parse");
      p.reports = std::move(a.reports);
    } else {
      std::optional<ccsig::stream::StreamEngine> engine_slot;
      std::optional<ccsig::stream::BatchedIngest> ingest_slot;
      {
        ScopedSpan sp(tr, "stream.open");
        engine_slot.emplace(analyzer, cfg);
        ingest_slot.emplace(path);
      }
      auto& engine = *engine_slot;
      auto& ingest = *ingest_slot;
      // The loop of stream::analyze_pcap_stream, with a span per call.
      std::vector<ccsig::stream::RoutedRecord> batch;
      batch.reserve(cfg.batch_records);
      for (;;) {
        std::size_t got;
        {
          ScopedSpan sp(tr, "pcap.fill");
          got = ingest.fill(batch, cfg.batch_records);
        }
        if (got == 0) break;
        ScopedSpan sp(tr, "stream.push_batch");
        engine.push_batch(batch);
        batch.clear();
      }
      if (ingest.error()) {
        throw std::runtime_error("corpus capture failed to parse");
      }
      {
        ScopedSpan sp(tr, "stream.finish");
        p.reports = engine.finish();
      }
      ScopedSpan sp(tr, "stream.close");
      ingest_slot.reset();
      engine_slot.reset();
    }
    render_all(p.reports, tr);
  }
  p.seconds = seconds_since(t0);
  p.rss_mb = rss.grown_mb();
  p.stats = stream_counts(before);
  return p;
}

// One verdict per copy, each equal to the oracle.
void check_reports(const Pass& p, const Setup& s, const char* what,
                   Tally& tally) {
  std::vector<char> seen(s.offline_expected.size(), 0);
  for (const FlowReport& r : p.reports) {
    const long c = copy_of(r.data_key);
    if (c < 0 || static_cast<std::size_t>(c) >= seen.size() || seen[c] ||
        !s.offline_expected[c]) {
      tally.check(false, std::string(what) + ": unexpected flow in output");
      continue;
    }
    seen[c] = 1;
    tally.check(same_report(r, *s.offline_expected[c]),
                std::string(what) + ": flow " + std::to_string(c) +
                    " differs from the oracle");
  }
  for (std::size_t c = 0; c < seen.size(); ++c) {
    if (!seen[c] && s.offline_expected[c]) {
      tally.check(false, std::string(what) + ": flow " + std::to_string(c) +
                             " has no verdict");
    }
  }
}

std::string reason_name(ccsig::features::Insufficiency i) {
  using I = ccsig::features::Insufficiency;
  switch (i) {
    case I::kNone: return "none";
    case I::kNoData: return "no_data";
    case I::kNoRetransmission: return "no_retransmission";
    case I::kTooFewRttSamples: return "too_few_rtt_samples";
    case I::kInvalidRtts: return "invalid_rtts";
    case I::kNonMonotonicTimestamps: return "non_monotonic_timestamps";
    case I::kDegenerateStats: return "degenerate_stats";
  }
  return "unknown";
}

double gauge_value(const char* name) {
  const auto snap = ccsig::obs::MetricsRegistry::global().snapshot();
  const auto* g = snap.gauge(name);
  return g ? g->value : 0.0;
}

}  // namespace

void OfflinePhase::round() {
  const bool warmup = rounds_ == 0;
  const bool traced = tracer_.enabled() && !warmup && rounds_ % 2 == 0;
  ++rounds_;
  const bool staged = tracer_.enabled();
  Tracer off(false);
  Tracer& tr = traced ? tracer_ : off;

  Pass b = batch_pass(s_.offline_path, analyzer_, staged, tr);
  check_reports(b, s_, "batch", tally_);
  Pass j1 = stream_pass(s_.offline_path, analyzer_, 1, staged, tr);
  check_reports(j1, s_, "stream jobs 1", tally_);
  imbalance_ = gauge_value("stream.shard_imbalance");
  Pass j3 = stream_pass(s_.offline_path, analyzer_, 3, staged, tr);
  check_reports(j3, s_, "stream jobs 3", tally_);
  const auto& a = j1.stats;
  const auto& c = j3.stats;
  tally_.check(a.records == c.records && a.flows_opened == c.flows_opened &&
                   a.evicted_fin == c.evicted_fin &&
                   a.evicted_lru == c.evicted_lru &&
                   a.evicted_forced == c.evicted_forced &&
                   a.early_classified == c.early_classified &&
                   a.peak_active_flows == c.peak_active_flows &&
                   a.records == s_.offline_records,
               "stream stats differ between jobs 1 and jobs 3");
  if (warmup) return;

  const double records = static_cast<double>(s_.offline_records);
  const double total = b.seconds + j1.seconds + j3.seconds;
  if (!traced) {
    batch_rps_.push_back(records / b.seconds);
    j1_rps_.push_back(records / j1.seconds);
    j3_rps_.push_back(records / j3.seconds);
    batch_mb_.push_back(b.rss_mb);
    stream_mb_.push_back(j1.rss_mb);
    untraced_s_.push_back(total);
    stats_j1_ = j1.stats;
    return;
  }
  traced_s_.push_back(total);
  traced_rounds_ += 1;
  for (const Pass* p : {&b, &j1, &j3}) {
    const double wall = tracer_.duration_ms(p->span);
    worst_gap_ = std::max(
        worst_gap_, std::abs(wall - tracer_.children_ms(p->span)) / wall);
  }
  fill_ms_ += tracer_.total_ms("pcap.fill", j1.span);
  push_j1_ms_ += tracer_.total_ms("stream.push_batch", j1.span);
  finish_ms_ += tracer_.total_ms("stream.finish", j1.span);
  fill_j3_ms_ += tracer_.total_ms("pcap.fill", j3.span);
  push_j3_ms_ += tracer_.total_ms("stream.push_batch", j3.span);
  read_ms_ += tracer_.total_ms("pcap.read_all", b.span);
  trace_ms_ += tracer_.total_ms("analysis.trace_from_records", b.span);
  split_ms_ += tracer_.total_ms("analysis.split_flows", b.span);
  analyze_ms_ += tracer_.total_ms("core.analyze_flow", b.span);
  analyze_n_ += static_cast<double>(tracer_.count("core.analyze_flow", b.span));
  render_ms_ += tracer_.total_ms("core.render", b.span);
  free_ms_ += tracer_.total_ms("batch.free", b.span);
  batch_reports_ = std::move(b.reports);
}

void OfflinePhase::report(MetricSink& e2e, MetricSink& layer) const {
  e2e.set("batch_records_per_s", median(batch_rps_), "records/s");
  e2e.set("stream_records_per_s_j1", median(j1_rps_), "records/s");
  e2e.set("batch_peak_rss_mb", median(batch_mb_), "MB");
  e2e.set("stream_peak_rss_mb", median(stream_mb_), "MB");
  // Jobs 3 is a note and a per-layer metric, not an end-to-end one: it
  // keeps all four vCPUs busy, and its ten-seed spread exceeds the largest
  // bound a metric may have (RATIONALE.md).
  std::printf("offline: %zu records, %zu flows, peak %zu open; %zu timed "
              "rounds of batch, stream jobs 1 and stream jobs 3; jobs 3 "
              "%.0f records/s, %.2fx jobs 1\n",
              s_.offline_records, s_.offline_expected.size(),
              s_.offline_peak_concurrent, batch_rps_.size(), median(j3_rps_),
              median(j3_rps_) / median(j1_rps_));
  if (!tracer_.enabled()) return;
  layer.set("stream.records_per_s_j3", median(j3_rps_), "records/s");

  const double n = traced_rounds_;
  const double records = static_cast<double>(s_.offline_records);
  layer.set("pcap.fill_ns_per_record", fill_ms_ * 1e6 / (n * records), "ns");
  layer.set("stream.push_ns_per_record_j1", push_j1_ms_ * 1e6 / (n * records),
            "ns");
  layer.set("stream.finish_ms", finish_ms_ / n, "ms");
  layer.set("stream.push_wait_share_j3",
            push_j3_ms_ / (push_j3_ms_ + fill_j3_ms_), "ratio");
  layer.set("pcap.read_all_ms", read_ms_ / n, "ms");
  layer.set("analysis.trace_ms", trace_ms_ / n, "ms");
  layer.set("analysis.split_flows_ms", split_ms_ / n, "ms");
  layer.set("core.analyze_flow_us", analyze_ms_ * 1e3 / analyze_n_, "us");
  layer.set("core.render_ms", render_ms_ / n, "ms");
  layer.set("batch.free_ms", free_ms_ / n, "ms");
  layer.set("offline.breakdown_gap_share", worst_gap_, "ratio");
  tally_.check(worst_gap_ <= kBreakdownTolerance,
               "offline breakdown does not add up to the pass wall time");
  // Each traced round against the untraced round just before it, so the
  // host's drift over the run cancels; the spread of the untraced rounds
  // among themselves is the noise floor of that comparison.
  std::vector<double> ratios;
  for (std::size_t i = 0; i < traced_s_.size() && i < untraced_s_.size();
       ++i) {
    ratios.push_back(traced_s_[i] / untraced_s_[i]);
  }
  const double overhead = median(ratios) - 1.0;
  layer.set("offline.trace_overhead_share", overhead, "ratio");
  std::printf("offline: tracing overhead %+.3f (median of %zu traced / "
              "untraced round pairs); untraced rounds %.3f-%.3f s\n",
              overhead, ratios.size(),
              *std::min_element(untraced_s_.begin(), untraced_s_.end()),
              *std::max_element(untraced_s_.begin(), untraced_s_.end()));

  const auto count = [&](const char* name, std::uint64_t v) {
    layer.set(name, static_cast<double>(v), "count");
  };
  count("stream.flows_opened", stats_j1_.flows_opened);
  count("stream.evicted_fin", stats_j1_.evicted_fin);
  count("stream.evicted_idle", stats_j1_.evicted_idle);
  count("stream.evicted_lru", stats_j1_.evicted_lru);
  count("stream.evicted_forced", stats_j1_.evicted_forced);
  count("stream.early_classified", stats_j1_.early_classified);
  count("stream.peak_active_flows", stats_j1_.peak_active_flows);
  layer.set("stream.shard_imbalance", imbalance_, "ratio");

  // Share of flows that reached a congestion label, against the oracle's,
  // and why the others did not.
  std::map<std::string, double> reasons;
  using I = ccsig::features::Insufficiency;
  for (I i : {I::kNoData, I::kNoRetransmission, I::kTooFewRttSamples,
              I::kInvalidRtts, I::kNonMonotonicTimestamps,
              I::kDegenerateStats}) {
    reasons[reason_name(i)] = 0;
  }
  std::size_t labelled = 0, oracle_labelled = 0;
  std::vector<std::pair<double, double>> pairs;
  for (const FlowReport& r : batch_reports_) {
    if (r.classification) {
      ++labelled;
      pairs.emplace_back(r.features->norm_diff, r.features->cov);
    } else {
      reasons[reason_name(r.insufficiency)] += 1;
    }
  }
  for (const auto& r : s_.offline_expected) {
    if (r && r->classification) ++oracle_labelled;
  }
  const double flows = static_cast<double>(s_.offline_expected.size());
  layer.set("core.labelled_share", static_cast<double>(labelled) / flows,
            "ratio");
  tally_.check(labelled == oracle_labelled && labelled > 0,
               "labelled share differs from the oracle's");
  for (const auto& [name, n_flows] : reasons) {
    layer.set("features.insufficient." + name, n_flows, "count");
  }

  // ml: re-classify the run's (NormDiff, CoV) pairs, about 2M calls.
  const ccsig::CongestionClassifier& clf = analyzer_.classifier();
  const std::size_t reps = pairs.empty() ? 0 : 2'000'000 / pairs.size() + 1;
  int sink = 0;
  const std::int64_t c0 = now_ns();
  for (std::size_t k = 0; k < reps; ++k) {
    for (const auto& [nd, cov] : pairs) {
      sink += static_cast<int>(clf.classify(nd, cov).verdict);
    }
  }
  const double calls = static_cast<double>(reps * pairs.size());
  layer.set("ml.classify_ns",
            calls > 0 ? static_cast<double>(now_ns() - c0) / calls : 0.0, "ns");
  if (sink < 0) std::printf("%d\n", sink);
}

}  // namespace perfbench
