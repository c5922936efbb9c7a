// Flow/packet representation shared by the network middleware apps.

#ifndef HYPERION_SRC_APPS_PACKET_H_
#define HYPERION_SRC_APPS_PACKET_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/common/bytes.h"

namespace hyperion::apps {

struct FlowKey {
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t protocol = 6;  // TCP

  friend bool operator==(const FlowKey&, const FlowKey&) = default;

  // The 13-byte little-endian wire form (src_ip, dst_ip, src_port,
  // dst_port, protocol): the spill-table key.
  static constexpr size_t kWireBytes = 13;
  using Wire = std::array<uint8_t, kWireBytes>;
  Wire Pack() const;

  uint64_t Hash() const;         // FNV-1a of Pack(): consistent-hash placement
  std::string ToString() const;  // "a.b.c.d:p -> a.b.c.d:p/proto"
};

// TCP flag bits used by the middleware.
constexpr uint8_t kTcpSyn = 0x02;
constexpr uint8_t kTcpAck = 0x10;
constexpr uint8_t kTcpFin = 0x01;
constexpr uint8_t kTcpRst = 0x04;

struct Packet {
  FlowKey flow;
  uint8_t tcp_flags = 0;
  uint32_t payload_bytes = 0;
};

}  // namespace hyperion::apps

#endif  // HYPERION_SRC_APPS_PACKET_H_
