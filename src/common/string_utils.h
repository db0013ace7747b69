// String formatting helper used by trace export and bench tables.
#pragma once

#include <string>

namespace tilelink {

// printf-style formatting into std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace tilelink
