#include "tcp/tcp_source.h"

#include <algorithm>
#include <cassert>

namespace ccsig::tcp {

TcpSource::TcpSource(sim::Simulator& sim, sim::Node* local, Config cfg)
    : sim_(sim),
      local_(local),
      cfg_(std::move(cfg)),
      cc_(congestion_control_by_name(cfg_.congestion_control)(cfg_.mss)),
      rto_(cfg_.rto),
      rto_timer_(sim, [this] { on_rto_fired(); }),
      pace_timer_(sim, [this] { try_send(); }),
      app_wakeup_timer_(sim, [this] { try_send(); }) {
  local_->register_endpoint(cfg_.key.src_port,
                            [this](const sim::Packet& p) { on_packet(p); });
}

TcpSource::~TcpSource() { local_->unregister_endpoint(cfg_.key.src_port); }

void TcpSource::start() {
  assert(state_ == State::kClosed);
  state_ = State::kSynSent;
  limit_since_ = sim_.now();
  send_syn();
}

void TcpSource::stop_sending() { app_open_ = false; }

void TcpSource::release_app_bytes(std::uint64_t bytes) {
  app_quota_bytes_ += bytes;
  try_send();
}

std::uint64_t TcpSource::app_backlog() const {
  if (!cfg_.quota_mode) return 0;
  const std::uint64_t sent_payload = snd_nxt_ > 0 ? snd_nxt_ - 1 : 0;
  return app_quota_bytes_ > sent_payload ? app_quota_bytes_ - sent_payload : 0;
}

void TcpSource::set_app_rate(double bps) {
  // Fold releases accrued at the old rate into the accumulator.
  const sim::Time since = released_stamp_ >= 0 ? released_stamp_
                                               : stats_.established_at;
  if (cfg_.app_rate_bps > 0 && since >= 0) {
    released_accum_bytes_ +=
        cfg_.app_rate_bps / 8.0 * sim::to_seconds(sim_.now() - since);
  }
  released_stamp_ = sim_.now();
  cfg_.app_rate_bps = bps;
  try_send();
}

void TcpSource::send_syn() {
  syn_sent_at_ = sim_.now();
  sim::Packet syn;
  syn.key = cfg_.key;
  syn.seq = 0;
  syn.flags.syn = true;
  syn.payload_bytes = 0;
  syn.id = next_packet_id_++;
  local_->send(syn);
  rto_timer_.arm_in(rto_.rto());  // SYN retransmission safety net
}

std::uint64_t TcpSource::app_bytes_remaining() const {
  if (!app_open_) return 0;
  const std::uint64_t sent_payload = snd_nxt_ > 0 ? snd_nxt_ - 1 : 0;
  std::uint64_t remaining = 1ull << 40;  // effectively unbounded
  if (cfg_.quota_mode) {
    remaining = app_quota_bytes_ > sent_payload
                    ? app_quota_bytes_ - sent_payload
                    : 0;
  }
  if (cfg_.bytes_to_send != 0) {
    remaining = std::min(remaining, cfg_.bytes_to_send > sent_payload
                                        ? cfg_.bytes_to_send - sent_payload
                                        : 0);
  }
  if (cfg_.app_rate_bps > 0 && stats_.established_at >= 0) {
    // Rate-limited source: the application has only released rate*t bytes
    // (integrated across any set_app_rate changes), and keeps at most
    // `app_backlog_limit_bytes` of backlog (older data is skipped,
    // live-stream style).
    const sim::Time since = released_stamp_ >= 0 ? released_stamp_
                                                 : stats_.established_at;
    const double released =
        released_accum_bytes_ +
        cfg_.app_rate_bps / 8.0 * sim::to_seconds(sim_.now() - since);
    auto released_u = static_cast<std::uint64_t>(released);
    released_u =
        std::min(released_u, sent_payload + cfg_.app_backlog_limit_bytes);
    remaining = std::min(
        remaining, released_u > sent_payload ? released_u - sent_payload : 0);
  }
  return remaining;
}

std::uint64_t TcpSource::effective_window() const {
  return std::min<std::uint64_t>(cc_->cwnd_bytes() + recovery_inflation_,
                                 peer_rwnd_);
}

void TcpSource::note_limit(SendLimit limit) {
  if (limit == current_limit_) return;
  limit_accum_[static_cast<int>(current_limit_)] += sim_.now() - limit_since_;
  current_limit_ = limit;
  limit_since_ = sim_.now();
}

void TcpSource::telemetry_record(obs::FlowEvent event) {
  if (!cfg_.telemetry) return;
  obs::FlowSample s;
  s.at = sim_.now();
  s.event = event;
  s.cwnd_bytes = cc_->cwnd_bytes();
  s.ssthresh_bytes = cc_->ssthresh_bytes();
  // Outstanding-data estimate: RFC 6675 pipe when the SACK scoreboard is
  // maintained, plain flight otherwise.
  s.pipe_bytes = cfg_.use_sack ? scoreboard_.pipe_bytes(flight_bytes())
                               : flight_bytes();
  s.srtt = rto_.srtt();
  s.retransmits = stats_.retransmits;
  cfg_.telemetry->record(s);
}

void TcpSource::try_send() {
  if (state_ != State::kEstablished) return;
  // RFC 2861-style restart (opt-in): a window grown before an idle gap no
  // longer reflects path state; let the CC module decay it before the
  // connection bursts again.
  if (cfg_.cwnd_restart_after_idle && last_emit_at_ >= 0 &&
      flight_bytes() == 0) {
    const sim::Duration idle = sim_.now() - last_emit_at_;
    if (idle >= rto_.rto()) {
      cc_->after_idle(idle, sim_.now());
      last_emit_at_ = sim_.now();  // one restart per idle episode
    }
  }
  double pace_bps = cfg_.enable_pacing ? cc_->pacing_rate_bps() : 0.0;
  if (cfg_.fixed_pacing_bps > 0 &&
      (pace_bps == 0.0 || cfg_.fixed_pacing_bps < pace_bps)) {
    pace_bps = cfg_.fixed_pacing_bps;
  }

  while (true) {
    const std::uint64_t wnd = effective_window();
    if (flight_bytes() >= wnd) {
      note_limit(wnd >= peer_rwnd_ ? SendLimit::kReceiver
                                   : SendLimit::kCongestion);
      return;
    }
    std::uint64_t remaining = app_bytes_remaining();
    // Nagle-style coalescing for rate-limited sources: wait until a full
    // segment has accumulated rather than dribbling tiny packets.
    if (cfg_.app_rate_bps > 0 && remaining < cfg_.mss && flight_bytes() > 0) {
      remaining = 0;
    }
    if (remaining == 0) {
      note_limit(SendLimit::kApplication);
      // A rate-limited app will have more data shortly; wake up for it.
      if (cfg_.app_rate_bps > 0 && app_open_ && !app_wakeup_timer_.armed()) {
        app_wakeup_timer_.arm_in(static_cast<sim::Duration>(
            static_cast<double>(cfg_.mss) * 8.0 / cfg_.app_rate_bps *
            static_cast<double>(sim::kSecond)));
      }
      return;
    }
    if (pace_bps > 0.0) {
      if (sim_.now() < next_pace_time_) {
        if (!pace_timer_.armed()) pace_timer_.arm_at(next_pace_time_);
        note_limit(SendLimit::kApplication);  // pacing idle
        return;
      }
    }
    const std::uint32_t len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        {remaining, cfg_.mss, wnd - flight_bytes()}));
    if (len == 0) {
      note_limit(SendLimit::kCongestion);
      return;
    }
    emit_segment(snd_nxt_, len, /*retransmission=*/false);
    snd_nxt_ += len;
    stats_.bytes_sent += len;
    if (pace_bps > 0.0) {
      const auto delta = static_cast<sim::Duration>(
          static_cast<double>(len + sim::kTcpIpHeaderBytes) * 8.0 / pace_bps *
          static_cast<double>(sim::kSecond));
      next_pace_time_ = std::max(next_pace_time_, sim_.now()) + delta;
    }
  }
}

void TcpSource::emit_segment(std::uint64_t seq, std::uint32_t len,
                             bool retransmission) {
  sim::Packet p;
  p.key = cfg_.key;
  p.seq = seq;
  p.ack = 1;  // we never receive data; peer's SYN consumed one sequence
  p.flags.ack = true;
  p.payload_bytes = len;
  p.id = next_packet_id_++;
  local_->send(p);
  ++stats_.segments_sent;
  last_emit_at_ = sim_.now();
  if (retransmission) {
    ++stats_.retransmits;
    scoreboard_.mark_retransmitted(seq, sim_.now());
  } else {
    scoreboard_.insert(seq, len, sim_.now());
  }
  if (!rto_armed_) arm_rto();
}

void TcpSource::retransmit_head() {
  std::uint64_t seq = 0;
  std::uint32_t len = 0;
  if (!scoreboard_.head_for_retransmit(snd_una_, &seq, &len)) return;
  emit_segment(seq, len, /*retransmission=*/true);
}

void TcpSource::arm_rto() {
  rto_armed_ = true;
  rto_timer_.arm_in(rto_.rto());
}

void TcpSource::disarm_rto() {
  rto_armed_ = false;
  rto_timer_.cancel();
}

void TcpSource::on_rto_fired() {
  if (state_ == State::kSynSent) {  // SYN retransmission
    rto_.on_timeout();
    send_syn();
    return;
  }
  if (state_ != State::kEstablished) return;
  if (snd_una_ >= snd_nxt_) {
    rto_armed_ = false;
    return;
  }
  ++stats_.timeouts;
  rto_.on_timeout();
  cc_->on_loss(LossKind::kTimeout, flight_bytes(), sim_.now());
  telemetry_record(obs::FlowEvent::kTimeout);
  in_recovery_ = false;
  recovery_inflation_ = 0;
  dup_acks_ = 0;
  scoreboard_.on_rto();
  retransmit_head();
  arm_rto();
}

void TcpSource::on_packet(const sim::Packet& p) {
  // We only ever receive control traffic (SYN-ACK and pure ACKs).
  if (p.flags.rst) {
    state_ = State::kStopped;
    disarm_rto();
    return;
  }
  if (state_ == State::kSynSent && p.flags.syn && p.flags.ack) {
    if (p.window > 0) peer_rwnd_ = p.window;
    state_ = State::kEstablished;
    stats_.established_at = sim_.now();
    snd_una_ = 1;
    snd_nxt_ = 1;
    disarm_rto();
    rto_.on_measurement(sim_.now() - syn_sent_at_);
    cc_->init(sim_.now());
    limit_since_ = sim_.now();
    // Complete the handshake; the ACK carries no payload.
    sim::Packet ack;
    ack.key = cfg_.key;
    ack.seq = 1;
    ack.ack = 1;
    ack.flags.ack = true;
    ack.id = next_packet_id_++;
    local_->send(ack);
    try_send();
    return;
  }
  if (state_ == State::kEstablished && p.flags.ack) on_ack_packet(p);
}

void TcpSource::on_ack_packet(const sim::Packet& p) {
  if (p.window > 0) peer_rwnd_ = p.window;
  if (p.ack > snd_nxt_) return;  // nonsense ACK
  if (cfg_.use_sack) scoreboard_.apply_sack(p);
  if (p.ack > snd_una_) {
    handle_new_ack(p.ack);
  } else if (p.ack == snd_una_ && flight_bytes() > 0 &&
             p.payload_bytes == 0) {
    handle_dup_ack();
  }
}

void TcpSource::enter_recovery() {
  ++stats_.fast_retransmits;
  cc_->on_loss(LossKind::kFastRetransmit, flight_bytes(), sim_.now());
  cc_->enter_recovery(sim_.now());
  telemetry_record(obs::FlowEvent::kFastRetransmit);
  in_recovery_ = true;
  recover_seq_ = snd_nxt_;
  arm_rto();  // restarts the timer
  if (cfg_.use_sack) {
    recovery_send();
  } else {
    recovery_inflation_ = 3ull * cfg_.mss;
    retransmit_head();
  }
}

void TcpSource::recovery_send() {
  // Fill the window with (1) retransmissions of presumed-lost segments,
  // then (2) new data, keeping pipe below cwnd (RFC 6675 NextSeg()).
  const std::uint64_t wnd = effective_window();
  std::uint64_t pipe = scoreboard_.pipe_bytes(flight_bytes());
  while (pipe + cfg_.mss / 2 < wnd) {
    std::uint64_t seq = 0;
    std::uint32_t len = 0;
    if (scoreboard_.next_lost_retransmit(&seq, &len)) {
      emit_segment(seq, len, /*retransmission=*/true);
      pipe += len;
      continue;
    }
    // No holes left to repair: extend with new data if allowed.
    const std::uint64_t remaining = app_bytes_remaining();
    if (remaining == 0 || snd_nxt_ - snd_una_ >= peer_rwnd_) break;
    const std::uint32_t new_len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>({remaining, cfg_.mss}));
    emit_segment(snd_nxt_, new_len, /*retransmission=*/false);
    snd_nxt_ += new_len;
    stats_.bytes_sent += new_len;
    pipe += new_len;
  }
}

void TcpSource::handle_new_ack(std::uint64_t ack) {
  const std::uint64_t newly = ack - snd_una_;
  stats_.bytes_acked += newly;

  const sim::Duration rtt_sample = scoreboard_.ack_advance(ack, sim_.now());
  snd_una_ = ack;

  if (rtt_sample >= 0) {
    rto_.on_measurement(rtt_sample);
    if (stats_.min_rtt == 0 || rtt_sample < stats_.min_rtt) {
      stats_.min_rtt = rtt_sample;
    }
  }

  if (in_recovery_) {
    if (ack >= recover_seq_) {
      in_recovery_ = false;
      recovery_inflation_ = 0;
      dup_acks_ = 0;
      cc_->exit_recovery(sim_.now());
      telemetry_record(obs::FlowEvent::kRecoveryExit);
    } else if (cfg_.use_sack) {
      // Partial ACK during SACK recovery: keep repairing the scoreboard.
      recovery_send();
    } else {
      // NewReno partial ACK: the next hole is lost too; retransmit it and
      // deflate the window by the amount acked.
      retransmit_head();
      recovery_inflation_ -=
          std::min<std::uint64_t>(recovery_inflation_, newly);
    }
  } else {
    dup_acks_ = 0;
    cc_->on_ack(newly, rtt_sample, sim_.now());
    telemetry_record(obs::FlowEvent::kSample);
  }

  if (flight_bytes() == 0) {
    disarm_rto();
  } else {
    arm_rto();  // restarts the timer
  }

  if (cfg_.bytes_to_send > 0 && stats_.bytes_acked >= cfg_.bytes_to_send &&
      stats_.completed_at < 0) {
    stats_.completed_at = sim_.now();
    if (on_complete_) on_complete_();
  }
  try_send();
}

void TcpSource::handle_dup_ack() {
  ++dup_acks_;
  if (in_recovery_) {
    if (cfg_.use_sack) {
      recovery_send();
    } else {
      recovery_inflation_ += cfg_.mss;  // window inflation per extra dupack
      try_send();
    }
    return;
  }
  // Limited transmit (RFC 3042): the first two duplicate ACKs release one
  // new segment each, keeping the ACK clock alive for small windows.
  if (dup_acks_ <= 2) {
    const std::uint64_t remaining = app_bytes_remaining();
    if (remaining > 0 && flight_bytes() + cfg_.mss <= peer_rwnd_) {
      const auto len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(remaining, cfg_.mss));
      emit_segment(snd_nxt_, len, /*retransmission=*/false);
      snd_nxt_ += len;
      stats_.bytes_sent += len;
    }
  }
  // Trigger: the classic 3 duplicate ACKs, lowered when few segments are
  // outstanding (early retransmit, RFC 5827), or — with SACK — more than
  // two segments' worth of SACKed data above the cumulative ACK (RFC 6675).
  const int threshold = std::min(
      3, std::max(1, static_cast<int>(scoreboard_.size()) - 1));
  const bool sack_trigger =
      cfg_.use_sack && scoreboard_.highest_sacked() > snd_una_ + 2ull * cfg_.mss;
  if (dup_acks_ >= threshold || sack_trigger) {
    enter_recovery();
  }
}

TcpSource::Stats TcpSource::stats() const {
  Stats s = stats_;
  s.min_rtt = stats_.min_rtt;
  s.smoothed_rtt = rto_.srtt();
  s.cwnd_bytes = cc_->cwnd_bytes();
  s.ssthresh_bytes = cc_->ssthresh_bytes();
  s.time_congestion_limited =
      limit_accum_[static_cast<int>(SendLimit::kCongestion)];
  s.time_receiver_limited =
      limit_accum_[static_cast<int>(SendLimit::kReceiver)];
  s.time_application_limited =
      limit_accum_[static_cast<int>(SendLimit::kApplication)];
  // Include the still-open interval.
  if (state_ == State::kEstablished) {
    switch (current_limit_) {
      case SendLimit::kCongestion:
        s.time_congestion_limited += sim_.now() - limit_since_;
        break;
      case SendLimit::kReceiver:
        s.time_receiver_limited += sim_.now() - limit_since_;
        break;
      case SendLimit::kApplication:
        s.time_application_limited += sim_.now() - limit_since_;
        break;
    }
  }
  return s;
}

}  // namespace ccsig::tcp
