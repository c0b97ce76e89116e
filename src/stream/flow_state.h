// Incremental per-flow analysis state for the streaming engine.
//
// A FlowState consumes one connection's records in capture order and
// reproduces, field for field, what the batch pipeline computes from the
// fully materialized FlowTrace:
//
//   split_flows        -> per-direction payload/record/time accounting; the
//                         data direction is decided at finalize by payload
//                         majority, so BOTH direction hypotheses run
//                         incrementally (the losing one is nearly free: its
//                         "data" records carry no payload, so its
//                         outstanding window and sample vector stay
//                         empty).
//   detect_slow_start  -> first-retransmission cutoff + cumulative-ACK
//                         bookkeeping, updated per record.
//   extract_rtt_samples-> the same analysis::OutstandingWindow matches
//                         ACKs to segments; the merged two-pointer walk
//                         over data[] and acks[] that feeds it is
//                         emulated exactly with a deferred-ACK
//                         FIFO: ACKs queue on arrival and are flushed once
//                         a record with a strictly later timestamp proves
//                         no more data can tie with them (the batch walk
//                         processes data first on timestamp ties, even
//                         when the ACK was captured first). The FIFO
//                         therefore only ever holds ACKs from the flow's
//                         single latest timestamp.
//   slow_start_throughput_bps -> the cumulative-ACK advance sequence is
//                         retained (pruned) and fed to the same scalar
//                         helper, so the division happens on identical
//                         integers.
//
// Equality holds for captures whose records are time-ordered (any real
// tap; every simulator capture). Two documented divergences: a 4-tuple
// reused after FIN/idle eviction starts a fresh flow here but is merged by
// the batch splitter, and captures with backwards-jumping timestamps may
// bucket ACKs differently (the batch feature extractor rejects those flows
// as kNonMonotonicTimestamps anyway).
//
// Memory: O(in-flight segments + slow-start RTT samples) per flow. The
// outstanding window holds at most max(2 * peak in-flight, 16) entries:
// an ACK that drains it clears it in place, and a full vector drops its
// consumed prefix in place or regrows from its live entries only
// (sim/fifo_vector.h). Once the first
// slow-start period closes and the sampler passes its cutoff, every
// per-record structure is freed and further records touch only scalar
// counters — the bench_stream_ingest allocs_per_packet=0 bound.
// The one exception is a flow that never retransmits: its slow-start
// window extends to the end of the flow, whose midpoint is unknown until
// then, so the cumulative-ACK advances of the trailing half must be kept
// (16 bytes per advance; the LRU cap bounds the total). Until its slow
// start closes, a flow allocates only amortized growth of its sample
// vector and advance ledger (BM_StreamIngestSlowStart bounds it).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "analysis/outstanding_window.h"
#include "analysis/rtt_estimator.h"
#include "analysis/seq_unwrap.h"
#include "analysis/slow_start.h"
#include "features/extractor.h"
#include "sim/packet.h"
#include "sim/time.h"

namespace ccsig::stream {

/// Everything the engine needs to build the flow's FlowReport, produced
/// exactly once when the flow is finalized (FIN, idle, LRU, or end of
/// capture).
struct FinalizedFlow {
  bool has_payload = false;  // false: batch split_flows drops it too
  sim::FlowKey data_key;
  sim::Time start_time = 0;
  sim::Duration duration = 0;
  std::size_t data_packets = 0;
  double throughput_bps = 0;
  features::ExtractResult extracted;
};

class FlowState {
 public:
  explicit FlowState(const sim::FlowKey& canonical) : canonical_(canonical) {
    hyp_[0].data_dir = 0;
    hyp_[1].data_dir = 1;
  }

  /// Consumes one record of this connection (either direction).
  /// `w.key` must equal the canonical key or its reverse. Inline (defined
  /// below): this is the engine's per-record hot path, and for a quiescent
  /// flow it must compile down to scalar updates with no out-of-line call.
  void ingest(const analysis::WireRecord& w);

  /// Both directions sent a FIN and both FINs are acknowledged: no more
  /// records can belong to this flow, it can be finalized immediately.
  bool complete() const { return fin_acked(0) && fin_acked(1); }

  /// The first slow-start period of the (current payload-majority) data
  /// direction has closed — the flow is eligible for LRU eviction without
  /// losing its signature.
  bool slow_start_closed() const {
    return hyp_[payload_majority_dir()].ss_closed;
  }

  /// The flow's verdict inputs are frozen (slow start closed, sampler past
  /// its cutoff, throughput window computed): it could be classified now,
  /// before the flow ends. Basis of the stream.early_classified counter.
  bool early_ready() const {
    const Hypothesis& h = hyp_[payload_majority_dir()];
    return h.stopped && h.ss_done;
  }

  sim::Time last_seen() const { return last_seen_; }

  /// Finalizes: flushes deferred ACKs, closes the slow-start window if the
  /// flow never retransmitted, and extracts features. Call at most once.
  FinalizedFlow finalize(const features::ExtractOptions& opt);

 private:
  /// A queued ACK-flagged, non-SYN record (the walk ignores the others).
  struct DeferredAck {
    sim::Time time;
    std::uint64_t ack;
  };

  /// One direction-assignment hypothesis: `data_dir` is the data side.
  struct Hypothesis {
    int data_dir = 0;

    // RTT sampler (exact emulation of extract_rtt_samples' merged walk).
    analysis::OutstandingWindow window;
    std::vector<analysis::RttSample> samples;
    // Deferred-ACK FIFO as vector + head cursor: once drained it resets to
    // reuse its capacity, so the steady state allocates nothing.
    std::vector<DeferredAck> fifo;
    std::size_t fifo_head = 0;
    bool stopped = false;  // batch walk would have hit `break`

    // Slow-start boundary (detect_slow_start, data side).
    bool ss_closed = false;
    sim::Time ss_end = 0;

    // Slow-start ACK bookkeeping (detect_slow_start ack scan + the
    // throughput advance window), updated on ACK *arrival* — the batch
    // scans run over the raw acks vector, not the merged walk.
    std::uint64_t adv_max = 0;  // running max cumulative ACK
    std::deque<analysis::AckAdvance> advances;
    bool ss_done = false;  // ss stats computed, advances freed
    std::uint64_t ss_acked_raw = 0;
    std::optional<double> ss_throughput;

    void on_data(const analysis::TraceRecord& r);
    void on_ack(const analysis::TraceRecord& r, sim::Time flow_start);
    void flush_before(sim::Time t);
    void process_deferred(const DeferredAck& a);
    void prune_advances(sim::Time bound_end, sim::Time flow_start);
    void compute_ss_stats(sim::Time flow_start, sim::Time end,
                          bool by_retransmission);
  };

  int dir_of(const sim::FlowKey& key) const {
    return key == canonical_ ? 0 : 1;
  }

  /// The data direction the batch splitter would pick right now
  /// (`fwd_payload >= bwd_payload` keeps the canonical direction).
  int payload_majority_dir() const {
    return payload_[0] >= payload_[1] ? 0 : 1;
  }

  bool fin_acked(int dir) const {
    return fin_seen_[dir] && max_ack_[1 - dir] > fin_seq_end_[dir];
  }

  sim::Time start_time() const;
  sim::Time end_time() const;

  sim::FlowKey canonical_;
  struct DirUnwrap {
    analysis::SeqUnwrapper seq;
    analysis::SeqUnwrapper ack;
  };
  DirUnwrap unwrap_[2];

  // Per-direction accounting (dir 0 = canonical direction).
  std::uint64_t payload_[2] = {0, 0};
  std::uint64_t count_[2] = {0, 0};
  sim::Time first_time_[2] = {0, 0};
  sim::Time last_time_[2] = {0, 0};
  std::uint64_t max_ack_[2] = {0, 0};  // max r.ack among records OF dir
  bool fin_seen_[2] = {false, false};
  std::uint64_t fin_seq_end_[2] = {0, 0};
  sim::Time last_seen_ = 0;

  Hypothesis hyp_[2];
};

// ---------------------------------------------------------------------------
// Hot-path definitions, inline so the streaming engine's per-record loop
// sees through them. The cold helpers (process_deferred, compute_ss_stats,
// prune_advances, finalize) stay out of line in flow_state.cc.
// ---------------------------------------------------------------------------

inline void FlowState::Hypothesis::flush_before(sim::Time t) {
  while (fifo_head < fifo.size() && fifo[fifo_head].time < t) {
    // With nothing outstanding and slow start still open, an ACK can
    // neither sample nor stop the sampler: skip it without the call. This
    // is every ACK of the payload-less hypothesis.
    if (ss_closed || !window.empty()) {
      process_deferred(fifo[fifo_head]);
      if (stopped) {
        // The batch walk's `break`: everything still queued is discarded
        // and nothing is retained for later records.
        std::vector<DeferredAck>().swap(fifo);
        fifo_head = 0;
        window.release();
        return;
      }
    }
    ++fifo_head;
  }
  if (fifo_head == fifo.size()) {
    fifo.clear();  // keeps capacity: the steady state re-queues for free
    fifo_head = 0;
  }
}

inline void FlowState::Hypothesis::on_data(const analysis::TraceRecord& r) {
  if (stopped) return;
  flush_before(r.time);
  if (stopped) return;  // a flushed ACK hit the cutoff; batch skips the rest
  if (r.payload_bytes == 0) return;
  const bool is_retx = window.on_send(r.seq + r.payload_bytes, r.time);
  if (is_retx && !ss_closed) {
    ss_closed = true;
    ss_end = r.time;
  }
}

inline void FlowState::Hypothesis::on_ack(const analysis::TraceRecord& r,
                                          sim::Time flow_start) {
  // Slow-start ACK bookkeeping runs in raw arrival order with no flag
  // filter: both batch scans (detect_slow_start's acked_bytes and the
  // throughput advance builder) walk the acks vector directly and stop at
  // the first record past the slow-start end.
  if (!ss_done) {
    if (ss_closed && r.time > ss_end) {
      compute_ss_stats(flow_start, ss_end, /*by_retransmission=*/true);
    } else if (r.ack > adv_max) {
      adv_max = r.ack;
      advances.push_back(analysis::AckAdvance{r.time, r.ack});
      prune_advances(ss_closed ? ss_end : r.time, flow_start);
    }
  }
  // RTT sampler: this ACK may still tie with not-yet-captured data records
  // (which the batch walk would order first), so defer it; but any queued
  // ACK from a strictly earlier timestamp can no longer tie with future
  // data and is safe to process now.
  if (stopped) return;
  flush_before(r.time);
  if (stopped) return;
  if (!r.flags.ack || r.flags.syn) return;  // the walk ignores these anyway
  fifo.push_back(DeferredAck{r.time, r.ack});
}

inline sim::Time FlowState::start_time() const {
  sim::Time t = std::numeric_limits<sim::Time>::max();
  if (count_[0] > 0) t = std::min(t, first_time_[0]);
  if (count_[1] > 0) t = std::min(t, first_time_[1]);
  return t == std::numeric_limits<sim::Time>::max() ? 0 : t;
}

inline sim::Time FlowState::end_time() const {
  sim::Time t = 0;
  if (count_[0] > 0) t = std::max(t, last_time_[0]);
  if (count_[1] > 0) t = std::max(t, last_time_[1]);
  return t;
}

inline void FlowState::ingest(const analysis::WireRecord& w) {
  const int dir = dir_of(w.key);
  const analysis::TraceRecord r =
      analysis::unwrap_record(w, unwrap_[dir].seq, unwrap_[dir].ack);

  if (count_[dir] == 0) first_time_[dir] = r.time;
  ++count_[dir];
  last_time_[dir] = r.time;
  payload_[dir] += r.payload_bytes;
  if (r.ack > max_ack_[dir]) max_ack_[dir] = r.ack;
  if (r.flags.fin && !fin_seen_[dir]) {
    fin_seen_[dir] = true;
    fin_seq_end_[dir] = r.seq + r.payload_bytes;
  }
  last_seen_ = r.time;

  const sim::Time start = start_time();
  if (dir == 0) {
    hyp_[0].on_data(r);
    hyp_[1].on_ack(r, start);
  } else {
    hyp_[0].on_ack(r, start);
    hyp_[1].on_data(r);
  }
}

}  // namespace ccsig::stream
