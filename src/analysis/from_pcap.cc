#include "analysis/from_pcap.h"

#include <unordered_map>

#include "pcap/cursor.h"

namespace ccsig::analysis {

Trace trace_from_records(const std::vector<pcap::PcapRecord>& records) {
  Trace out;
  out.reserve(records.size());
  struct DirState {
    SeqUnwrapper seq;
    SeqUnwrapper ack;
  };
  std::unordered_map<sim::FlowKey, DirState, sim::FlowKeyHash> dirs;

  for (const auto& rec : records) {
    const auto w = wire_record_from_frame(rec.timestamp, rec.data);
    if (!w) continue;
    DirState& st = dirs[w->key];
    out.push_back(unwrap_record(*w, st.seq, st.ack));
  }
  return out;
}

FlowsReadResult flows_from_pcap_checked(const std::string& path) {
  FlowSplitter splitter;
  FlowsReadResult out;
  try {
    // Buffered, not mapped: mapped file pages would count toward peak RSS.
    pcap::PcapCursor cursor(path, pcap::CursorMode::kStream);
    while (const auto rec = cursor.next()) {
      if (const auto w = wire_record_from_frame(rec->timestamp, rec->data)) {
        splitter.add(*w);
      }
    }
  } catch (const runtime::ParseException& e) {
    out.error = e.error();
  }
  out.flows = splitter.finish();
  return out;
}

}  // namespace ccsig::analysis
