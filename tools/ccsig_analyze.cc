// ccsig_analyze — command-line flow diagnosis for pcap captures.
//
// Usage:
//   ccsig_analyze <capture.pcap> [--model FILE] [--min-samples N] [--verbose]
//                 [--metrics-out FILE] [--metrics-prom FILE]
//                 [--trace-out FILE] [--flow-telemetry FILE]
//                 [--stream] [--mmap] [--jobs N] [--shards N] [--max-flows N]
//                 [--idle-timeout SECONDS]
//
// Prints one line per TCP flow found in the capture: throughput, the
// slow-start congestion signature, and the classifier's verdict.
//
// --stream analyzes the capture in a single pass with bounded memory
// (src/stream/): same output, byte for byte, as the default batch path on
// time-ordered captures. --mmap reads the capture through the zero-copy
// mmap backend (pcap::CursorMode::kMmap; implies --stream, output-
// identical to the buffered reader). --jobs sets worker threads
// (output-invariant),
// --shards/--max-flows/--idle-timeout control the flow table's eviction
// policy (these CAN change the output by evicting long-lived flows early).
//
// Observability side files (see src/obs/): --metrics-out writes the final
// metrics snapshot JSON, --metrics-prom the same snapshot in Prometheus
// text exposition format, --trace-out writes Chrome trace JSON, and
// --flow-telemetry writes one CSV row per RTT sample of every flow in the
// capture (flow index, ports, ACK arrival time, RTT, acked offset).
//
// Exit codes: 0 success, 1 no classifiable flows, 2 usage error,
// 3 unreadable or malformed input, 4 internal error.
#include <cstdio>
#include <cstring>
#include <ios>
#include <sstream>
#include <string>
#include <utility>

#include "analysis/flow_trace.h"
#include "analysis/from_pcap.h"
#include "analysis/rtt_estimator.h"
#include "core/ccsig.h"
#include "obs/tool_obs.h"
#include "pcap/cursor.h"
#include "stream/stream.h"
#include "obs/trace.h"
#include "runtime/atomic_file.h"
#include "runtime/parse_error.h"

namespace {

/// Renders every flow's RTT sample series as one CSV (times and RTTs in
/// seconds, repo-wide precision-17 convention).
std::string rtt_telemetry_csv(const std::vector<ccsig::analysis::FlowTrace>&
                                  flows) {
  std::ostringstream out;
  out.precision(17);
  out << "flow,src_port,dst_port,time_s,rtt_s,acked_seq\n";
  for (std::size_t i = 0; i < flows.size(); ++i) {
    for (const auto& s : ccsig::analysis::extract_rtt_samples(flows[i])) {
      out << i << ',' << flows[i].data_key.src_port << ','
          << flows[i].data_key.dst_port << ',' << ccsig::sim::to_seconds(s.at)
          << ',' << ccsig::sim::to_seconds(s.rtt) << ',' << s.acked_seq
          << '\n';
    }
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string pcap_path;
  std::string model_path;
  std::string metrics_path;
  std::string metrics_prom_path;
  std::string trace_path;
  std::string telemetry_path;
  ccsig::features::ExtractOptions extract;
  bool verbose = false;
  bool use_stream = false;
  ccsig::pcap::CursorMode cursor_mode = ccsig::pcap::CursorMode::kStream;
  ccsig::stream::StreamConfig stream_cfg;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc) {
      model_path = argv[++i];
    } else if (std::strcmp(argv[i], "--min-samples") == 0 && i + 1 < argc) {
      extract.min_rtt_samples =
          static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else if (std::strcmp(argv[i], "--stream") == 0) {
      use_stream = true;
    } else if (std::strcmp(argv[i], "--mmap") == 0) {
      use_stream = true;
      cursor_mode = ccsig::pcap::CursorMode::kMmap;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      stream_cfg.jobs = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      stream_cfg.shards = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-flows") == 0 && i + 1 < argc) {
      stream_cfg.max_active_flows =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--idle-timeout") == 0 && i + 1 < argc) {
      stream_cfg.idle_timeout =
          ccsig::sim::from_seconds(std::atof(argv[++i]));
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-prom") == 0 && i + 1 < argc) {
      metrics_prom_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--flow-telemetry") == 0 && i + 1 < argc) {
      telemetry_path = argv[++i];
    } else if (argv[i][0] != '-' && pcap_path.empty()) {
      pcap_path = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: %s <capture.pcap> [--model FILE] "
                   "[--min-samples N] [--verbose] [--metrics-out FILE] "
                   "[--metrics-prom FILE] "
                   "[--trace-out FILE] [--flow-telemetry FILE] [--stream] "
                   "[--mmap] [--jobs N] [--shards N] [--max-flows N] "
                   "[--idle-timeout SECONDS]\n",
                   argv[0]);
      return 2;
    }
  }
  if (pcap_path.empty()) {
    std::fprintf(stderr, "usage: %s <capture.pcap> [--model FILE]\n", argv[0]);
    return 2;
  }

  try {
    ccsig::obs::ToolObs tool_obs(metrics_path, trace_path, "ccsig_analyze",
                                 metrics_prom_path);
    ccsig::CongestionClassifier model;
    if (!model_path.empty()) {
      try {
        model = ccsig::CongestionClassifier::load(model_path);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 3;
      }
    }
    ccsig::FlowAnalyzer analyzer = model_path.empty()
                                       ? ccsig::FlowAnalyzer()
                                       : ccsig::FlowAnalyzer(std::move(model));
    if (verbose) {
      std::printf("model decision logic:\n%s\n",
                  analyzer.classifier().describe().c_str());
    }
    stream_cfg.extract = extract;
    const auto analysis =
        use_stream
            ? ccsig::stream::analyze_pcap_stream(pcap_path, analyzer,
                                                 stream_cfg, cursor_mode)
            : analyzer.analyze_pcap_checked(pcap_path, extract);
    if (!telemetry_path.empty()) {
      // Decoded separately from the analyzer pass: the reports keep only
      // features, while telemetry wants the raw per-ACK RTT series.
      ccsig::obs::TraceSpan span("analyze.flow_telemetry", "analyze");
      const auto flows =
          ccsig::analysis::flows_from_pcap_checked(pcap_path).flows;
      ccsig::runtime::write_file_atomic(telemetry_path,
                                        rtt_telemetry_csv(flows));
      std::fprintf(stderr, "flow telemetry written to %s (%zu flows)\n",
                   telemetry_path.c_str(), flows.size());
    }
    if (analysis.error) {
      std::fprintf(stderr, "error: %s\n",
                   analysis.error->to_string().c_str());
      if (analysis.reports.empty()) return 3;
      std::fprintf(stderr,
                   "analyzing the %zu flow(s) decoded before the error\n",
                   analysis.reports.size());
    }
    const auto& reports = analysis.reports;
    if (reports.empty()) {
      std::fprintf(stderr, "no TCP flows with payload found in %s\n",
                   pcap_path.c_str());
      return 1;
    }
    int classified = 0;
    for (const auto& report : reports) {
      std::printf("%s\n", ccsig::FlowAnalyzer::render(report).c_str());
      if (verbose && report.features) {
        std::printf(
            "    slow-start: %zu RTT samples, min %.1f ms, max %.1f ms, "
            "late delivery %.2f Mbps%s\n",
            report.features->rtt_samples, report.features->min_rtt_ms,
            report.features->max_rtt_ms,
            report.features->slow_start_throughput_bps / 1e6,
            report.features->slow_start_ended_by_retransmission
                ? ""
                : " (no retransmission observed)");
      }
      classified += report.classification ? 1 : 0;
    }
    if (analysis.error) return 3;
    return classified > 0 ? 0 : 1;
  } catch (const ccsig::runtime::ParseException& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  } catch (const std::ios_base::failure& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 4;
  }
}
