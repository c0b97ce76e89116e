#include "analysis/rtt_estimator.h"

#include <limits>
#include <vector>

#include "analysis/outstanding_window.h"

namespace ccsig::analysis {

std::vector<RttSample> extract_rtt_samples(const FlowTrace& flow,
                                           sim::Time cutoff) {
  // Merge the two directions into one time-ordered walk. Both vectors are
  // individually time-sorted (capture order); on equal timestamps data
  // goes first.
  std::vector<RttSample> samples;
  OutstandingWindow window;
  std::size_t di = 0, ai = 0;
  while (di < flow.data.size() || ai < flow.acks.size()) {
    const bool take_data =
        ai >= flow.acks.size() ||
        (di < flow.data.size() && flow.data[di].time <= flow.acks[ai].time);
    if (take_data) {
      const TraceRecord& d = flow.data[di++];
      if (d.payload_bytes == 0) continue;  // SYN / pure control
      window.on_send(d.seq + d.payload_bytes, d.time);
      continue;
    }
    const TraceRecord& a = flow.acks[ai++];
    if (!a.flags.ack || a.flags.syn) continue;
    if (a.time > cutoff) break;
    if (const auto s = window.on_ack(a.ack, a.time)) samples.push_back(*s);
  }
  return samples;
}

std::vector<RttSample> extract_rtt_samples(const FlowTrace& flow) {
  return extract_rtt_samples(flow, std::numeric_limits<sim::Time>::max());
}

}  // namespace ccsig::analysis
