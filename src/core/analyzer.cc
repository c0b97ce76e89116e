#include "core/analyzer.h"

#include <sstream>

#include "analysis/from_pcap.h"
#include "analysis/slow_start.h"

namespace ccsig {

FlowReport FlowAnalyzer::report_from_extract(
    const sim::FlowKey& data_key, features::ExtractResult extracted,
    double throughput_bps, sim::Duration duration,
    std::size_t data_packets) const {
  FlowReport report;
  report.data_key = data_key;
  report.duration = duration;
  report.data_packets = data_packets;
  report.throughput_bps = throughput_bps;
  report.features = std::move(extracted.features);
  report.insufficiency = extracted.insufficiency;
  if (report.features) {
    report.classification = classifier_.classify(*report.features);
    if (report.classification->verdict == Verdict::kSelfInducedCongestion) {
      report.estimated_capacity_bps =
          report.features->slow_start_throughput_bps;
    }
  }
  return report;
}

FlowReport FlowAnalyzer::analyze_flow(const analysis::FlowTrace& flow,
                                      const features::ExtractOptions& opt) const {
  return report_from_extract(
      flow.data_key, features::extract_features_checked(flow, opt),
      analysis::flow_throughput_bps(flow).value_or(0.0), flow.duration(),
      flow.data.size());
}

std::vector<FlowReport> FlowAnalyzer::analyze(
    const analysis::Trace& trace, const features::ExtractOptions& opt) const {
  return analyze_flows(analysis::split_flows(trace), opt);
}

std::vector<FlowReport> FlowAnalyzer::analyze_flows(
    const std::vector<analysis::FlowTrace>& flows,
    const features::ExtractOptions& opt) const {
  std::vector<FlowReport> reports;
  reports.reserve(flows.size());
  for (const analysis::FlowTrace& flow : flows) {
    reports.push_back(analyze_flow(flow, opt));
  }
  return reports;
}

std::vector<FlowReport> FlowAnalyzer::analyze_pcap(
    const std::string& path, const features::ExtractOptions& opt) const {
  PcapAnalysis out = analyze_pcap_checked(path, opt);
  if (out.error) throw runtime::ParseException(std::move(*out.error));
  return std::move(out.reports);
}

PcapAnalysis FlowAnalyzer::analyze_pcap_checked(
    const std::string& path, const features::ExtractOptions& opt) const {
  analysis::FlowsReadResult raw = analysis::flows_from_pcap_checked(path);
  PcapAnalysis out;
  out.reports = analyze_flows(raw.flows, opt);
  out.error = std::move(raw.error);
  return out;
}

std::string FlowAnalyzer::render(const FlowReport& r) {
  std::ostringstream os;
  os.precision(3);
  os << r.data_key.src_addr << ":" << r.data_key.src_port << " -> "
     << r.data_key.dst_addr << ":" << r.data_key.dst_port << "  "
     << r.throughput_bps / 1e6 << " Mbps over "
     << sim::to_seconds(r.duration) << " s";
  if (r.classification) {
    os << "  => " << to_string(r.classification->verdict) << " (confidence "
       << r.classification->confidence << ", norm_diff "
       << r.features->norm_diff << ", cov " << r.features->cov << ")";
  } else {
    os << "  => " << to_string(Verdict::kInsufficientData) << " ("
       << features::to_string(r.insufficiency) << ")";
  }
  return os.str();
}

}  // namespace ccsig
