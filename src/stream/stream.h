// Single-pass, bounded-memory streaming flow analysis.
//
// The batch path decodes the whole capture into per-flow record vectors
// before it analyzes any flow — O(capture) memory, one TraceRecord per
// record (analysis::flows_from_pcap_checked). StreamEngine instead
// pushes records through a sharded flow table of incremental FlowStates
// and emits each flow's FlowReport the moment the flow ends (FIN handshake
// completed, idle timeout, LRU pressure, or end of capture) — O(active
// flows) memory regardless of capture size.
//
// Threading model (jobs > 1): each shard is owned by exactly one worker
// thread — a single writer — and record batches travel from the pushing
// thread to that worker over a lock-free SPSC ring (runtime/spsc_queue.h).
// There are no mutexes, no shared flow-table state, and no cross-shard
// contention anywhere on the hot path; batch buffers are recycled over a
// second SPSC ring, so steady-state ingest performs zero allocations.
//
// Determinism contract: records are routed to a shard by the hash of their
// canonical flow key, each shard processes its records strictly in push
// (capture) order (its ring is FIFO and it has one consumer), and the
// final report list is sorted with the same comparator as the batch
// splitter. The shard count — which defines the eviction partition — is a
// config value independent of `jobs`, so the output is byte-identical at
// any worker count, including jobs=1 inline. On time-ordered captures it
// is also byte-identical to FlowAnalyzer::analyze_pcap_checked (see
// flow_state.h for the exact equivalence argument and the two documented
// divergences).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/seq_unwrap.h"
#include "core/analyzer.h"
#include "features/extractor.h"
#include "obs/metrics.h"
#include "pcap/cursor.h"
#include "stream/ingest.h"
#include "sim/time.h"

namespace ccsig::stream {

struct StreamConfig {
  /// Worker threads. 1 processes inline on the pushing thread; 0 means
  /// runtime::default_jobs(). The output does not depend on this value.
  unsigned jobs = 1;
  /// Flow-table shards. The shard is part of the eviction semantics (the
  /// LRU cap is divided across shards), so this is NOT tied to `jobs`;
  /// 0 means kDefaultShards.
  unsigned shards = 0;
  static constexpr unsigned kDefaultShards = 8;
  /// Upper bound on simultaneously resident flows, divided evenly across
  /// shards (at least 1 each). 0 disables the cap.
  std::size_t max_active_flows = 65536;
  /// Evict flows with no activity for this long in *capture* time (so the
  /// result is a function of the capture, not of wall-clock scheduling).
  /// <= 0 disables idle eviction.
  sim::Duration idle_timeout = 0;
  /// Records per cross-thread batch when jobs > 1.
  std::size_t batch_records = 512;
  /// Batch buffers in circulation per shard when jobs > 1: one being
  /// filled by the producer, the rest queued or draining. Bounded, so a
  /// slow shard backpressures the pusher instead of growing a queue; the
  /// fill fraction of the fullest shard is what pressure() reports.
  /// Values below 2 are clamped to 2.
  std::size_t batches_per_shard = 4;
  /// Ordered incremental emission for the service layer. Every pushed
  /// record is stamped with a global arrival sequence number, finalized
  /// flows are queued per shard instead of held until finish(), and
  /// drain_ready() hands them out in an order that is a pure function of
  /// the pushed record sequence — byte-identical at any `jobs`. The
  /// batch-shaped finish() must not be used on an ordered engine (use
  /// finish_ordered()).
  bool ordered_drain = false;
  features::ExtractOptions extract;
};

/// Per-run tallies, valid after finish(). The same values are published to
/// obs::MetricsRegistry::global() under stream.* names; tests prefer this
/// struct because the global registry accumulates across runs.
struct StreamStats {
  std::uint64_t records = 0;
  std::uint64_t flows_opened = 0;
  std::uint64_t flows_finalized = 0;
  std::uint64_t evicted_fin = 0;
  std::uint64_t evicted_idle = 0;
  std::uint64_t evicted_lru = 0;
  /// LRU-cap evictions that found no slow-start-complete victim and had to
  /// drop the oldest flow regardless. Nonzero means max_active_flows is
  /// too small for the capture's concurrency.
  std::uint64_t evicted_forced = 0;
  /// Flows whose verdict inputs were frozen before the flow ended.
  std::uint64_t early_classified = 0;
  /// Sum over shards of each shard's peak resident flow count — the value
  /// the LRU cap bounds.
  std::size_t peak_active_flows = 0;
};

/// One flow verdict emitted by an ordered-drain engine, tagged with its
/// deterministic position in the emission order: `seq` is the global
/// arrival index of the record (or force-evict command) that triggered the
/// finalization, `emit_idx` breaks ties among the finalizations one record
/// triggers inside its shard (a record only ever finalizes flows in its
/// own shard, so (seq, emit_idx) is a total order). End-of-capture
/// finalizations share the first never-assigned seq and are emit_idx'd in
/// flow_order_less order.
struct ReadyReport {
  std::uint64_t seq = 0;
  std::uint32_t emit_idx = 0;
  sim::Time start = 0;
  /// Latency freight from the record that triggered this finalization:
  /// its service ingest stamp (0 = untracked, e.g. an end-of-capture or
  /// force-evict finalization) and its capture timestamp. The service
  /// layer turns these into ingest->verdict / capture->verdict latency
  /// histograms at emission; they never affect verdict bytes or order.
  std::int64_t trigger_ingest_ns = 0;
  sim::Time trigger_time = 0;
  FlowReport report;
};

class StreamEngine {
 public:
  /// `analyzer` must outlive the engine.
  explicit StreamEngine(const FlowAnalyzer& analyzer, StreamConfig cfg = {});
  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;
  ~StreamEngine();

  /// Ingests one decoded record. Records must arrive in capture order.
  void push(const analysis::WireRecord& w);

  /// Ingests a batch of routed records (capture order within the span).
  /// The fast path: canonical keys and hashes were computed at decode
  /// time and are never recomputed.
  void push_batch(std::span<const RoutedRecord> batch);

  /// Flushes and finalizes every remaining flow and returns all reports in
  /// batch order (flow_order_less). Call exactly once; push() must not be
  /// called afterwards.
  std::vector<FlowReport> finish();

  /// Valid after finish() / finish_ordered().
  const StreamStats& stats() const { return final_stats_; }

  // -- Ordered-drain interface (cfg.ordered_drain, single control thread) --
  // The service layer pushes records, periodically drains whatever has
  // become safely emittable, and finish_ordered()s at drain time. All of
  // these must be called from the one thread that also pushes.

  /// Injects an in-band force-evict command: the chosen shard's worker
  /// force-finalizes one resident flow (evict_for_cap policy) at this
  /// exact position in its record stream, so a replayed session sheds the
  /// same flow at the same point. `shard` past the shard count is taken
  /// modulo (callers round-robin without knowing the count). Returns the
  /// shard actually targeted, which the service records in the session.
  std::size_t push_force_evict(std::size_t shard);

  /// Appends every finalized flow whose emission position is already
  /// determined — no record still in flight can precede it — in (seq,
  /// emit_idx) order. Across calls the concatenated output is a pure
  /// function of the pushed record sequence, independent of `jobs` and of
  /// when drains happen.
  void drain_ready(std::vector<ReadyReport>& out);

  /// Ordered-drain finish: flushes workers, drains every queued emission,
  /// then finalizes still-resident flows in flow_order_less order (the
  /// end-of-capture tail of the emission order). Call exactly once.
  void finish_ordered(std::vector<ReadyReport>& out);

  /// Fill fraction [0, 1] of the fullest shard inbox — the engine-side
  /// overload signal the service's shed ladder keys on. Always 0 when
  /// inline (jobs == 1): pushes process synchronously and cannot lag.
  double pressure() const;

  /// Currently-resident flow count summed over shards (live flow-table
  /// occupancy for statusz). Each shard's worker publishes its table size
  /// with one relaxed store per open/finalize, so this read is cheap,
  /// lock-free, and at worst one flow stale per shard.
  std::size_t resident_flows() const;

  std::size_t shard_count() const { return nshards_; }

 private:
  struct Shard;
  enum class Evict { kFin, kIdle, kLru, kForced, kEndOfCapture };

  void route(RoutedRecord r);
  void enqueue_to_shard(std::size_t idx, const RoutedRecord& r);
  void flush_pending(std::size_t idx);
  void worker_loop(unsigned worker_id, unsigned nworkers);
  void process_record(Shard& s, const RoutedRecord& r);
  void evict_for_cap(Shard& s);
  void finalize_flow(Shard& s, const sim::FlowKey& canonical, Evict reason);
  void stop_workers();
  /// Exclusive seq bound below which every emission is already queued.
  std::uint64_t safe_threshold() const;
  /// Moves queued emissions with seq < `threshold` to `out`, sorted.
  void extract_ready(std::uint64_t threshold, std::vector<ReadyReport>& out);

  const FlowAnalyzer& analyzer_;
  const StreamConfig cfg_;
  std::size_t nshards_ = 1;
  std::size_t shard_mask_ = 0;  // nshards_ - 1 when a power of two, else 0
  std::size_t per_shard_cap_ = 0;  // 0 = unlimited
  std::size_t batches_per_shard_ = 4;
  // Next global arrival index (ordered_drain). Starts at 1 so the
  // watermark value 0 unambiguously means "nothing processed yet".
  std::uint64_t seq_next_ = 1;
  // End-of-capture phase: workers are stopped and finalize_flow routes to
  // the batch-shaped done list even on an ordered engine.
  bool eoc_phase_ = false;

  std::vector<std::unique_ptr<Shard>> shards_;
  // Producer-side per-shard batch being filled (untouched when inline).
  std::vector<std::vector<RoutedRecord>*> pending_;
  // seq of pending_[i]'s first record (meaningful while it is non-empty);
  // owned by the control thread like pending_ itself.
  std::vector<std::uint64_t> pending_first_seq_;
  // Owns every batch buffer circulating through the rings.
  std::vector<std::unique_ptr<std::vector<RoutedRecord>>> batch_pool_;

  obs::Counter records_ctr_, opened_ctr_, finalized_ctr_;
  obs::Counter evicted_fin_ctr_, evicted_idle_ctr_, evicted_lru_ctr_,
      evicted_forced_ctr_, early_ctr_;
  obs::Gauge active_g_, peak_g_, imbalance_g_;

  StreamStats final_stats_;
  bool finished_ = false;

  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
};

/// Streaming equivalent of FlowAnalyzer::analyze_pcap_checked: analyzes the
/// longest clean record prefix of `path` in one pass and reports the parse
/// error that stopped reading, if any. `mode` selects the capture input
/// backend (mmap, buffered reads, or auto); the output is byte-identical
/// across backends.
PcapAnalysis analyze_pcap_stream(const std::string& path,
                                 const FlowAnalyzer& analyzer,
                                 const StreamConfig& cfg = {},
                                 pcap::CursorMode mode =
                                     pcap::CursorMode::kStream);

}  // namespace ccsig::stream
