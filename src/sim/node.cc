#include "sim/node.h"

#include <utility>

namespace ccsig::sim {

Node::Node(Simulator& sim, Address address, std::string name)
    : sim_(sim), address_(address), name_(std::move(name)) {}

void Node::add_route(Address dst, Link* out) {
  if (dst >= routes_.size()) routes_.resize(std::size_t{dst} + 1, nullptr);
  routes_[dst] = out;
}

void Node::register_endpoint(Port port, PacketHandler handler) {
  endpoints_[port] = std::move(handler);
}

void Node::unregister_endpoint(Port port) { endpoints_.erase(port); }

void Node::tap_packet(const Packet& p) {
  for (TraceSink* tap : taps_) tap->on_packet(sim_.now(), p);
}

void Node::receive(const Packet& p) {
  tap_packet(p);
  if (p.key.dst_addr == address_) {
    auto it = endpoints_.find(p.key.dst_port);
    if (it == endpoints_.end()) {
      ++undeliverable_;
      return;
    }
    ++delivered_;
    it->second(p);
    return;
  }
  ++forwarded_;
  forward(p);
}

void Node::send(Packet p) {
  p.sent_at = sim_.now();
  tap_packet(p);
  if (p.key.dst_addr == address_) {
    // Loopback delivery (used by some tests).
    auto it = endpoints_.find(p.key.dst_port);
    if (it != endpoints_.end()) {
      ++delivered_;
      it->second(p);
    } else {
      ++undeliverable_;
    }
    return;
  }
  forward(p);
}

void Node::forward(const Packet& p) {
  const Address dst = p.key.dst_addr;
  Link* out = dst < routes_.size() && routes_[dst] != nullptr ? routes_[dst]
                                                              : default_route_;
  if (out == nullptr) {
    ++undeliverable_;
    return;
  }
  out->send(p);
}

}  // namespace ccsig::sim
