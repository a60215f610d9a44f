#pragma once
// The one JSON string escaper, shared by every JSON writer in trace/ and
// analysis/ (metrics, Chrome trace, RMA journal, analyzer reports).

#include <string>
#include <string_view>

namespace srumma::trace {

/// `s` as a quoted JSON string: `"` and `\` are escaped, and control
/// characters are written as \n, \t or \u00XX.
[[nodiscard]] std::string json_string(std::string_view s);

}  // namespace srumma::trace
