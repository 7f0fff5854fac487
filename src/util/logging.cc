#include "src/util/logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace grgad {

namespace {

LogLevel g_level = LogLevel::kInfo;
std::once_flag g_env_once;
std::mutex g_emit_mutex;

void InitFromEnv() {
  const char* env = std::getenv("GRGAD_LOG_LEVEL");
  if (env == nullptr) return;
  if (std::strcmp(env, "debug") == 0) g_level = LogLevel::kDebug;
  else if (std::strcmp(env, "info") == 0) g_level = LogLevel::kInfo;
  else if (std::strcmp(env, "warning") == 0) g_level = LogLevel::kWarning;
  else if (std::strcmp(env, "error") == 0) g_level = LogLevel::kError;
  else if (std::strcmp(env, "off") == 0) g_level = LogLevel::kOff;
}

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "D";
    case LogLevel::kInfo: return "I";
    case LogLevel::kWarning: return "W";
    case LogLevel::kError: return "E";
    case LogLevel::kOff: return "-";
  }
  return "?";
}

}  // namespace

LogLevel GetLogLevel() {
  std::call_once(g_env_once, InitFromEnv);
  return g_level;
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = std::strrchr(file, '/');
  stream_ << "[" << LevelTag(level) << " " << (base ? base + 1 : file) << ":"
          << line << "] ";
}

LogMessage::~LogMessage() {
  std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
}

}  // namespace internal

}  // namespace grgad
