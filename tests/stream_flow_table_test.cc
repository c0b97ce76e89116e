// Property tests for the streaming flow table's lifecycle and eviction
// semantics, driven by hand-built WireRecords (shards=1 so LRU order is
// the push order). Covers the contracts DESIGN.md §10 states:
//   - the LRU cap is never exceeded (peak_active_flows <= cap);
//   - under cap pressure, flows whose first slow start has closed are
//     evicted before flows still in slow start;
//   - a flow is force-dropped only when no slow-start-complete victim
//     exists, and the drop is tallied as evicted_forced;
//   - a 4-tuple reused after a completed FIN handshake starts a fresh
//     flow (two reports, not one merged flow);
//   - idle flows are evicted on capture-time gaps, and evicted flows
//     still produce reports.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/seq_unwrap.h"
#include "core/analyzer.h"
#include "obs/metrics.h"
#include "sim/time.h"
#include "stream/stream.h"

namespace ccsig::stream {
namespace {

sim::FlowKey key_for(std::uint32_t i) {
  return sim::FlowKey{10, 20, static_cast<sim::Port>(5001 + 2 * i),
                      static_cast<sim::Port>(5002 + 2 * i)};
}

analysis::WireRecord data(const sim::FlowKey& key, sim::Time t,
                          std::uint32_t seq, std::uint32_t payload,
                          bool fin = false) {
  analysis::WireRecord w;
  w.time = t;
  w.key = key;
  w.seq32 = seq;
  w.payload_bytes = payload;
  w.flags.fin = fin;
  return w;
}

analysis::WireRecord ack(const sim::FlowKey& data_key, sim::Time t,
                         std::uint32_t acked, bool fin = false) {
  analysis::WireRecord w;
  w.time = t;
  w.key = data_key.reversed();
  w.seq32 = 1;
  w.ack32 = acked;
  w.flags.ack = true;
  w.flags.fin = fin;
  return w;
}

StreamConfig one_shard(std::size_t cap) {
  StreamConfig cfg;
  cfg.jobs = 1;
  cfg.shards = 1;
  cfg.max_active_flows = cap;
  return cfg;
}

TEST(StreamFlowTable, LruCapIsNeverExceeded) {
  const FlowAnalyzer analyzer;
  StreamEngine engine(analyzer, one_shard(4));

  // 16 concurrent flows, each pushing a data segment per round: resident
  // count would be 16 without the cap.
  constexpr std::uint32_t kFlows = 16;
  sim::Time t = 0;
  for (std::uint32_t round = 0; round < 8; ++round) {
    for (std::uint32_t f = 0; f < kFlows; ++f) {
      engine.push(data(key_for(f), t, 1 + 1000 * round, 1000));
      engine.push(ack(key_for(f), t + sim::kMillisecond,
                      1 + 1000 * (round + 1)));
      t += 2 * sim::kMillisecond;
    }
  }
  const auto reports = engine.finish();
  const StreamStats& st = engine.stats();

  EXPECT_LE(st.peak_active_flows, 4u);
  // None of these flows ever retransmitted, so every cap eviction had to
  // fall back to dropping the LRU head outright.
  EXPECT_GT(st.evicted_forced, 0u);
  EXPECT_EQ(st.evicted_lru, 0u);
  EXPECT_FALSE(reports.empty());

  // The same bound, read back through the published obs gauge (the
  // acceptance check: peak flow state is provably bounded by the cap).
  const auto snap = obs::MetricsRegistry::global().snapshot();
  if (const auto* g = snap.gauge("stream.flows_peak")) {
    EXPECT_LE(g->value, 4.0);
  }
}

TEST(StreamFlowTable, EvictionPrefersSlowStartClosedFlows) {
  const FlowAnalyzer analyzer;
  StreamEngine engine(analyzer, one_shard(2));

  const sim::FlowKey young = key_for(0);  // still in slow start, LRU head
  const sim::FlowKey done = key_for(1);   // will close its slow start
  const sim::FlowKey fresh = key_for(2);  // arrival forces an eviction

  // `young`: one segment, no retransmission — slow start still open.
  engine.push(data(young, 0, 1, 1000));

  // `done`: two segments then a retransmission of the first -> slow start
  // closed by retransmission. All touches after `young`, so the LRU order
  // is young (oldest), done — a naive oldest-first eviction would drop
  // `young`.
  engine.push(data(done, sim::kMillisecond, 1, 1000));
  engine.push(data(done, 2 * sim::kMillisecond, 1001, 1000));
  engine.push(ack(done, 3 * sim::kMillisecond, 1001));
  engine.push(data(done, 4 * sim::kMillisecond, 1, 1000));  // retx

  // Third flow arrives: the table must skip the pre-slow-start-close LRU
  // head and evict `done`, the first slow-start-complete flow in LRU
  // order.
  engine.push(data(fresh, 5 * sim::kMillisecond, 1, 1000));

  const auto reports = engine.finish();
  const StreamStats& st = engine.stats();
  EXPECT_EQ(st.evicted_lru, 1u);
  EXPECT_EQ(st.evicted_forced, 0u);
  ASSERT_EQ(reports.size(), 3u);
  // `young` survived to end-of-capture with all its packets intact.
  for (const auto& r : reports) {
    if (r.data_key == young) {
      EXPECT_EQ(r.data_packets, 1u);
    }
    if (r.data_key == done) {
      EXPECT_EQ(r.data_packets, 3u);
    }
  }
}

TEST(StreamFlowTable, ForcedEvictionOnlyWhenNoEligibleVictim) {
  const FlowAnalyzer analyzer;
  StreamEngine engine(analyzer, one_shard(2));

  // Two flows, both still in slow start, then a third arrives: nothing is
  // eligible, so the oldest is dropped and the drop is tallied as forced.
  engine.push(data(key_for(0), 0, 1, 1000));
  engine.push(data(key_for(1), sim::kMillisecond, 1, 1000));
  engine.push(data(key_for(2), 2 * sim::kMillisecond, 1, 1000));

  engine.finish();
  const StreamStats& st = engine.stats();
  EXPECT_EQ(st.evicted_lru, 0u);
  EXPECT_EQ(st.evicted_forced, 1u);
}

TEST(StreamFlowTable, TupleReusedAfterFinStartsFreshFlow) {
  const FlowAnalyzer analyzer;
  StreamEngine engine(analyzer, one_shard(16));
  const sim::FlowKey k = key_for(0);

  // First incarnation: data, ack, then a full bidirectional FIN handshake.
  engine.push(data(k, 0, 1, 1000));
  engine.push(ack(k, sim::kMillisecond, 1001));
  engine.push(data(k, 2 * sim::kMillisecond, 1001, 0, /*fin=*/true));
  // Reverse direction FINs (seq 1, no payload) and acks past our FIN...
  engine.push(ack(k, 3 * sim::kMillisecond, 1002, /*fin=*/true));
  // ...and we ack theirs: FIN handshake complete, flow finalized now.
  {
    analysis::WireRecord w = data(k, 4 * sim::kMillisecond, 1002, 0);
    w.flags.ack = true;
    w.ack32 = 2;
    engine.push(w);
  }

  // Second incarnation on the very same 4-tuple, later in the capture.
  engine.push(data(k, sim::kSecond, 1, 2000));
  engine.push(ack(k, sim::kSecond + sim::kMillisecond, 2001));

  const auto reports = engine.finish();
  const StreamStats& st = engine.stats();
  EXPECT_EQ(st.evicted_fin, 1u);
  EXPECT_EQ(st.flows_opened, 2u);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].data_key, k);
  EXPECT_EQ(reports[1].data_key, k);
  // Reports are in batch (start-time) order: the first incarnation first,
  // and neither flow absorbed the other's packets. (data_packets counts
  // every data-direction record — segment, FIN, and the final ack of the
  // peer's FIN for the first incarnation, matching flow.data.size() in the
  // batch splitter.)
  EXPECT_EQ(reports[0].data_packets, 3u);
  EXPECT_EQ(reports[1].data_packets, 1u);
  EXPECT_LT(reports[0].duration, sim::kSecond);
}

TEST(StreamFlowTable, IdleFlowsAreEvictedOnCaptureTimeGaps) {
  const FlowAnalyzer analyzer;
  StreamConfig cfg = one_shard(16);
  cfg.idle_timeout = sim::kSecond;
  StreamEngine engine(analyzer, cfg);

  engine.push(data(key_for(0), 0, 1, 1000));
  engine.push(ack(key_for(0), sim::kMillisecond, 1001));
  // Ten capture seconds later another flow shows up in the same shard:
  // flow 0 has been idle past the timeout and must be evicted (but still
  // reported).
  engine.push(data(key_for(1), 10 * sim::kSecond, 1, 1000));

  const auto reports = engine.finish();
  const StreamStats& st = engine.stats();
  EXPECT_EQ(st.evicted_idle, 1u);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].data_key, key_for(0));
  EXPECT_EQ(reports[0].data_packets, 1u);
}

}  // namespace
}  // namespace ccsig::stream
