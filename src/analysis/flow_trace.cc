#include "analysis/flow_trace.h"

#include <algorithm>

namespace ccsig::analysis {

std::uint64_t FlowTrace::acked_bytes() const {
  std::uint64_t max_ack = 0;
  for (const auto& r : acks) max_ack = std::max(max_ack, r.ack);
  // Wire sequence 0 is the SYN; payload starts at 1.
  return max_ack > 1 ? max_ack - 1 : 0;
}

sim::Time FlowTrace::start_time() const {
  sim::Time t = INT64_MAX;
  if (!data.empty()) t = std::min(t, data.front().time);
  if (!acks.empty()) t = std::min(t, acks.front().time);
  return t == INT64_MAX ? 0 : t;
}

sim::Time FlowTrace::end_time() const {
  sim::Time t = 0;
  if (!data.empty()) t = std::max(t, data.back().time);
  if (!acks.empty()) t = std::max(t, acks.back().time);
  return t;
}

std::vector<FlowTrace> FlowSplitter::finish() {
  append_staged();
  std::vector<FlowTrace> out;
  out.reserve(flows_.size());
  for (auto& [canonical, h] : flows_) {
    if (h.forward.payload == 0 && h.backward.payload == 0) continue;
    const bool forward_data = h.forward.payload >= h.backward.payload;
    FlowTrace ft;
    ft.data_key = forward_data ? canonical : canonical.reversed();
    ft.data = std::move(forward_data ? h.forward : h.backward).records;
    ft.acks = std::move(forward_data ? h.backward : h.forward).records;
    out.push_back(std::move(ft));
  }
  flows_.clear();
  // Deterministic order: by first activity, key tie-break (equal start
  // times would otherwise surface unordered_map iteration order).
  std::sort(out.begin(), out.end(), [](const FlowTrace& a, const FlowTrace& b) {
    return flow_order_less(a.start_time(), a.data_key, b.start_time(),
                           b.data_key);
  });
  return out;
}

std::vector<FlowTrace> split_flows(const Trace& trace) {
  FlowSplitter splitter;
  for (const auto& r : trace) splitter.add(r);
  return splitter.finish();
}

FlowTrace extract_flow(const Trace& trace, const sim::FlowKey& data_key) {
  FlowTrace ft;
  ft.data_key = data_key;
  const sim::FlowKey rev = data_key.reversed();
  for (const auto& r : trace) {
    if (r.key == data_key) {
      ft.data.push_back(r);
    } else if (r.key == rev) {
      ft.acks.push_back(r);
    }
  }
  return ft;
}

}  // namespace ccsig::analysis
