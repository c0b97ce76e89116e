// A host or router: demultiplexes local traffic to endpoints, forwards the
// rest along routes, and exposes tcpdump-style taps.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/link.h"
#include "sim/packet.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace ccsig::sim {

class Node {
 public:
  Node(Simulator& sim, Address address, std::string name);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  Address address() const { return address_; }
  const std::string& name() const { return name_; }

  /// Routes packets destined to `dst` out of `out`. `out` must outlive the
  /// node. Addresses are small and dense (Network hands them out from 1),
  /// so the route table is a vector indexed by address.
  void add_route(Address dst, Link* out);

  /// Fallback route for destinations without an explicit entry.
  void set_default_route(Link* out) { default_route_ = out; }

  /// Registers a local consumer for packets addressed to (address(), port).
  void register_endpoint(Port port, PacketHandler handler);
  void unregister_endpoint(Port port);

  /// Attaches a tcpdump-style observer; sees every packet this node sends or
  /// receives. `tap` must outlive the node.
  void add_tap(TraceSink* tap) { taps_.push_back(tap); }

  /// Detaches a tap previously added with add_tap (no-op if absent).
  void remove_tap(TraceSink* tap) {
    std::erase(taps_, tap);
  }

  /// Entry point for packets delivered by incoming links.
  void receive(const Packet& p);

  /// Entry point for locally generated packets.
  void send(Packet p);

  std::uint64_t forwarded_packets() const { return forwarded_; }
  std::uint64_t delivered_packets() const { return delivered_; }
  std::uint64_t undeliverable_packets() const { return undeliverable_; }

 private:
  void tap_packet(const Packet& p);
  void forward(const Packet& p);

  Simulator& sim_;
  Address address_;
  std::string name_;
  std::vector<Link*> routes_;  // by destination address; null = no route
  Link* default_route_ = nullptr;
  std::unordered_map<Port, PacketHandler> endpoints_;
  std::vector<TraceSink*> taps_;

  std::uint64_t forwarded_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t undeliverable_ = 0;
};

}  // namespace ccsig::sim
