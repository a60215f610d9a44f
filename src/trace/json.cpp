#include "trace/json.hpp"

namespace srumma::trace {

std::string json_string(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "\"";
  for (const char ch : s) {
    const auto u = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      out += {'\\', ch};
    } else if (ch == '\n') {
      out += "\\n";
    } else if (ch == '\t') {
      out += "\\t";
    } else if (u < 0x20) {
      out += {'\\', 'u', '0', '0', kHex[u >> 4], kHex[u & 0xf]};
    } else {
      out += ch;
    }
  }
  return out + '"';
}

}  // namespace srumma::trace
