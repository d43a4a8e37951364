// The error log line RV's default violation sink writes. Thread-safe (each
// message is a single fprintf call): "[ERROR] <message>\n" on stderr.
#ifndef SRC_UTIL_LOGGING_H_
#define SRC_UTIL_LOGGING_H_

namespace mariusgnn {

void LogError(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace mariusgnn

#endif  // SRC_UTIL_LOGGING_H_
