// Minimal leveled logging to stderr.
//
// Benches and examples log progress at kInfo; library internals log only at
// kDebug so that production use is silent by default. The level is process
// global and set by the GRGAD_LOG_LEVEL environment variable
// (debug|info|warning|error|off).
#ifndef GRGAD_UTIL_LOGGING_H_
#define GRGAD_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace grgad {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3,
                      kOff = 4 };

/// Current global level (initialized from GRGAD_LOG_LEVEL on first use).
LogLevel GetLogLevel();

namespace internal {

/// Stream-style log line; emits on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal

#define GRGAD_LOG(level)                                                   \
  if (::grgad::LogLevel::level >= ::grgad::GetLogLevel())                  \
  ::grgad::internal::LogMessage(::grgad::LogLevel::level, __FILE__, __LINE__)

}  // namespace grgad

#endif  // GRGAD_UTIL_LOGGING_H_
