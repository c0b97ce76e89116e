// The TCP data sender (server side of a download).
//
// A CC-agnostic transport core: connection setup (SYN / SYN-ACK / ACK),
// the ACK clock, duplicate-ACK fast retransmit with NewReno partial-ACK
// handling, RFC 6298 retransmission timeouts, optional pacing, and
// Web100-style accounting of what limited the sender. Sequence-range
// bookkeeping (which bytes are outstanding / SACKed / presumed lost)
// lives in SackScoreboard; every congestion decision lives behind the
// CongestionControl hook interface (congestion_control.h), so adding a
// sender variant never touches this file.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "obs/flow_telemetry.h"
#include "sim/node.h"
#include "sim/packet.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "tcp/congestion_control.h"
#include "tcp/rto.h"
#include "tcp/scoreboard.h"
#include "tcp/tcp_types.h"

namespace ccsig::tcp {

class TcpSource {
 public:
  struct Config {
    sim::FlowKey key;                  // src must be the local node's address
    std::uint32_t mss = kDefaultMss;
    std::string congestion_control = "reno";
    RtoEstimator::Config rto;
    /// Total application bytes to transfer; 0 means unbounded (run until
    /// `stop_sending()`), which models a netperf/NDT-style timed test.
    std::uint64_t bytes_to_send = 0;
    bool enable_pacing = true;  // honored only if the CC module paces
    /// Fixed sender pacing in bits/s regardless of the CC module; 0 = off.
    /// Models a sender whose emission rate is capped elsewhere (e.g. a
    /// video CDN fetch capped by the subscriber's own downstream path).
    double fixed_pacing_bps = 0;
    /// Quota mode: the application only offers bytes explicitly handed over
    /// via release_app_bytes() (video-segment style). Without this flag the
    /// source is bulk until told otherwise.
    bool quota_mode = false;
    /// Application data release rate in bits/s; 0 = unlimited (bulk).
    /// Models rate-limited sources (video streams) that only congest a link
    /// in aggregate — used by the M-Lab campaign's diurnal load model.
    double app_rate_bps = 0;
    /// For rate-limited sources: the maximum backlog the application keeps
    /// when the network falls behind. Like a live stream, data older than
    /// this is skipped, so congested-aggregate demand stays near the
    /// nominal rate instead of compounding without bound.
    std::uint64_t app_backlog_limit_bytes = 512 * 1024;
    /// SACK-based loss recovery (RFC 6675-style scoreboard). When false,
    /// the sender falls back to NewReno partial-ACK recovery — much slower
    /// through burst losses, kept for the recovery ablation.
    bool use_sack = true;
    /// RFC 2861-style congestion-window restart: when the connection has
    /// been idle (nothing in flight) for at least one RTO, the CC module's
    /// after_idle hook runs before the next transmission. Off by default —
    /// bulk testbed flows never go idle, and existing experiment output is
    /// byte-stable without the extra hook.
    bool cwnd_restart_after_idle = false;
    /// Optional passive telemetry sink: receives cwnd/ssthresh/srtt/pipe on
    /// every new ACK plus retransmit/timeout/recovery events. Purely
    /// observational — attaching one never changes sender behavior. Must
    /// outlive the source. nullptr = disabled.
    obs::FlowTelemetryRecorder* telemetry = nullptr;
  };

  /// Web100-style counters exposed after (or during) the test.
  struct Stats {
    std::uint64_t bytes_sent = 0;         // unique payload bytes sent
    std::uint64_t bytes_acked = 0;
    std::uint64_t segments_sent = 0;      // data segments incl. retx
    std::uint64_t retransmits = 0;
    std::uint64_t fast_retransmits = 0;   // loss events via 3 dupacks
    std::uint64_t timeouts = 0;           // loss events via RTO
    sim::Duration time_congestion_limited = 0;
    sim::Duration time_receiver_limited = 0;
    sim::Duration time_application_limited = 0;
    sim::Duration min_rtt = 0;
    sim::Duration smoothed_rtt = 0;
    std::uint64_t cwnd_bytes = 0;
    std::uint64_t ssthresh_bytes = 0;
    sim::Time established_at = -1;
    sim::Time completed_at = -1;          // all data acked (finite transfers)
  };

  TcpSource(sim::Simulator& sim, sim::Node* local, Config cfg);
  ~TcpSource();
  TcpSource(const TcpSource&) = delete;
  TcpSource& operator=(const TcpSource&) = delete;

  /// Initiates the handshake at the current simulation time.
  void start();

  /// Stops offering new application data (the connection stays open to
  /// drain in-flight segments). Used to end timed tests.
  void stop_sending();

  /// Changes the application release rate (rate-limited sources only).
  /// Past releases are preserved; the new rate applies from now on. Models
  /// adaptive-bitrate quality switches.
  void set_app_rate(double bps);
  double app_rate() const { return cfg_.app_rate_bps; }

  /// Quota mode (Config::quota_mode): hands the transport an explicit chunk
  /// of application data (video-segment style). Combines with
  /// `bytes_to_send`/`app_rate_bps` limits if those are set too.
  void release_app_bytes(std::uint64_t bytes);

  /// Bytes handed over via release_app_bytes but not yet sent.
  std::uint64_t app_backlog() const;

  /// Fires once all application data has been acknowledged (finite
  /// transfers only).
  void set_on_complete(std::function<void()> cb) { on_complete_ = std::move(cb); }

  Stats stats() const;
  bool established() const { return state_ == State::kEstablished; }
  const CongestionControl& congestion() const { return *cc_; }

 private:
  enum class State { kClosed, kSynSent, kEstablished, kStopped };

  void on_packet(const sim::Packet& p);
  void on_ack_packet(const sim::Packet& p);
  void handle_new_ack(std::uint64_t ack);
  void handle_dup_ack();
  void enter_recovery();
  void recovery_send();
  void send_syn();
  void try_send();
  void emit_segment(std::uint64_t seq, std::uint32_t len, bool retransmission);
  void retransmit_head();
  void arm_rto();
  void disarm_rto();
  void on_rto_fired();
  void note_limit(SendLimit limit);
  void telemetry_record(obs::FlowEvent event);
  std::uint64_t flight_bytes() const { return snd_nxt_ - snd_una_; }
  std::uint64_t effective_window() const;
  std::uint64_t app_bytes_remaining() const;

  sim::Simulator& sim_;
  sim::Node* local_;
  Config cfg_;
  std::unique_ptr<CongestionControl> cc_;
  RtoEstimator rto_;
  // The SYN retransmission timer until established, the RTO after.
  sim::Timer rto_timer_;
  sim::Timer pace_timer_;        // pacing gate reopens
  sim::Timer app_wakeup_timer_;  // a rate-limited app releases more data

  State state_ = State::kClosed;
  bool app_open_ = true;  // stop_sending() closes the application tap

  // Wire sequence space: SYN = seq 0; payload byte k = wire seq k + 1.
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t peer_rwnd_ = 1 << 30;
  SackScoreboard scoreboard_;

  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_seq_ = 0;
  std::uint64_t recovery_inflation_ = 0;  // NewReno (non-SACK) mode only

  // Whether the RTO (not the SYN timer) is running. Unlike
  // rto_timer_.armed() it stays set while the RTO handler retransmits, so
  // emit_segment() leaves the re-arm to the handler.
  bool rto_armed_ = false;
  sim::Time syn_sent_at_ = 0;
  // Last data transmission, for the idle-restart check (RFC 2861); only
  // consulted when Config::cwnd_restart_after_idle is on.
  sim::Time last_emit_at_ = -1;

  // Pacing gate.
  sim::Time next_pace_time_ = 0;
  // Rate-release integration (supports mid-flow rate changes).
  double released_accum_bytes_ = 0;
  sim::Time released_stamp_ = -1;
  // Quota mode (release_app_bytes).
  std::uint64_t app_quota_bytes_ = 0;

  // Web100-style limit accounting.
  SendLimit current_limit_ = SendLimit::kApplication;
  sim::Time limit_since_ = 0;
  sim::Duration limit_accum_[3] = {0, 0, 0};

  Stats stats_;
  std::function<void()> on_complete_;
  std::uint64_t next_packet_id_ = 1;
};

}  // namespace ccsig::tcp
