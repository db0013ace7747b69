#include "common/string_utils.h"

#include <cstdarg>
#include <cstdio>

namespace tilelink {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int size = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (size > 0) {
    out.resize(static_cast<size_t>(size));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace tilelink
