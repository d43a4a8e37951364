#include "src/util/logging.h"

#include <cstdarg>
#include <cstdio>

namespace mariusgnn {

void LogError(const char* fmt, ...) {
  char body[2048];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(body, sizeof(body), fmt, args);
  va_end(args);
  std::fprintf(stderr, "[ERROR] %s\n", body);
}

}  // namespace mariusgnn
