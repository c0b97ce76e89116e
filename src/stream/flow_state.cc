#include "stream/flow_state.h"

#include <limits>

namespace ccsig::stream {

// ---------------------------------------------------------------------------
// Hypothesis: one direction assignment, run incrementally.
// ---------------------------------------------------------------------------

void FlowState::Hypothesis::process_deferred(const DeferredAck& a) {
  // Mirrors the ACK arm of extract_rtt_samples' merged walk, one step.
  if (ss_closed && a.time > ss_end) {
    stopped = true;  // caller frees the window + remaining FIFO
    return;
  }
  if (const auto s = window.on_ack(a.ack, a.time)) samples.push_back(*s);
}

void FlowState::Hypothesis::prune_advances(sim::Time bound_end,
                                           sim::Time flow_start) {
  // `bound_end` is a lower bound on the final slow-start end time, so
  // `bound` is a lower bound on the final window midpoint (integer division
  // is monotone). Advances at or before the midpoint only matter through
  // their maximum, which is the last one — everything before it can go.
  const sim::Time bound = flow_start + (bound_end - flow_start) / 2;
  while (advances.size() >= 2 && advances[1].time <= bound) {
    advances.pop_front();
  }
}

void FlowState::Hypothesis::compute_ss_stats(sim::Time flow_start,
                                             sim::Time end,
                                             bool by_retransmission) {
  ss_done = true;
  ss_acked_raw = adv_max > 1 ? adv_max - 1 : 0;
  analysis::SlowStartInfo info;
  info.end_time = end;
  info.ended_by_retransmission = by_retransmission;
  info.acked_bytes = ss_acked_raw;
  const std::vector<analysis::AckAdvance> v(advances.begin(), advances.end());
  ss_throughput =
      analysis::slow_start_throughput_from_advances(flow_start, info, v);
  std::deque<analysis::AckAdvance>().swap(advances);
}

// ---------------------------------------------------------------------------
// FlowState
// ---------------------------------------------------------------------------

FinalizedFlow FlowState::finalize(const features::ExtractOptions& opt) {
  FinalizedFlow out;
  if (payload_[0] == 0 && payload_[1] == 0) return out;  // split_flows drops
  out.has_payload = true;
  const int data_dir = payload_majority_dir();
  const int ack_dir = 1 - data_dir;
  out.data_key = data_dir == 0 ? canonical_ : canonical_.reversed();

  const sim::Time start = start_time();
  const sim::Time end = end_time();
  out.start_time = start;
  out.duration = end - start;
  out.data_packets = count_[data_dir];

  // Whole-flow goodput, FlowTrace::acked_bytes convention (highest ACK − 1
  // for the ISN-0 framing).
  const std::uint64_t max_ack = max_ack_[ack_dir];
  const std::uint64_t acked = max_ack > 1 ? max_ack - 1 : 0;
  const std::optional<double> flow_tput =
      analysis::throughput_bps(acked, out.duration);
  out.throughput_bps = flow_tput.value_or(0.0);

  Hypothesis& h = hyp_[data_dir];
  // Any ACKs still deferred can no longer tie with data (there is none
  // left); process them — the tail of the batch merge walk.
  h.flush_before(std::numeric_limits<sim::Time>::max());
  if (!h.ss_done) {
    // No ACK-direction record ever passed the slow-start end, so every
    // advance was retained; close the window exactly as detect_slow_start
    // does when no retransmission (or no later record) exists.
    h.compute_ss_stats(start, h.ss_closed ? h.ss_end : end, h.ss_closed);
  }
  analysis::SlowStartInfo ss;
  ss.end_time = h.ss_closed ? h.ss_end : end;
  ss.ended_by_retransmission = h.ss_closed;
  ss.acked_bytes = h.ss_acked_raw;

  if (count_[data_dir] == 0 || count_[ack_dir] == 0) {
    out.extracted.insufficiency = features::Insufficiency::kNoData;
  } else {
    out.extracted = features::features_from_slow_start(
        h.samples, ss, h.ss_throughput, flow_tput, out.duration, opt);
  }
  return out;
}

}  // namespace ccsig::stream
