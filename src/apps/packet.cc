#include "src/apps/packet.h"

#include <sstream>

namespace hyperion::apps {

FlowKey::Wire FlowKey::Pack() const {
  Wire out;
  for (size_t i = 0; i < 4; ++i) {
    out[i] = static_cast<uint8_t>(src_ip >> (8 * i));
    out[4 + i] = static_cast<uint8_t>(dst_ip >> (8 * i));
  }
  for (size_t i = 0; i < 2; ++i) {
    out[8 + i] = static_cast<uint8_t>(src_port >> (8 * i));
    out[10 + i] = static_cast<uint8_t>(dst_port >> (8 * i));
  }
  out[12] = protocol;
  return out;
}

uint64_t FlowKey::Hash() const {
  const Wire wire = Pack();
  return Fnv1a64(ByteSpan(wire.data(), wire.size()));
}

namespace {
std::string IpToString(uint32_t ip) {
  std::ostringstream os;
  os << ((ip >> 24) & 0xff) << '.' << ((ip >> 16) & 0xff) << '.' << ((ip >> 8) & 0xff) << '.'
     << (ip & 0xff);
  return os.str();
}
}  // namespace

std::string FlowKey::ToString() const {
  std::ostringstream os;
  os << IpToString(src_ip) << ':' << src_port << " -> " << IpToString(dst_ip) << ':' << dst_port
     << '/' << static_cast<int>(protocol);
  return os.str();
}

}  // namespace hyperion::apps
