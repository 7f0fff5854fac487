#include "src/util/fault.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "src/util/rng.h"

namespace grgad {
namespace {

// Fixed table of fault points: lookups are a short strcmp scan and the
// per-point state needs no allocation or rehashing under concurrent checks.
constexpr const char* kPointNames[] = {
    "stage/anchors",  "stage/sampling", "stage/embedding", "stage/scoring",
    "stage/refresh",
    "artifact/write", "artifact/read",  "artifact/fsync",  "artifact/rename",
    "dataset/load",   "arena/alloc",    "parallel/dispatch",
    "od/ensemble-member", "serve/admit", "serve/execute",
    "wal/pre-append", "wal/mid-append", "wal/post-append-pre-ack",
    "snapshot/mid",   "snapshot/post-pre-truncate",
};
constexpr int kNumPoints =
    static_cast<int>(sizeof(kPointNames) / sizeof(kPointNames[0]));

struct PointState {
  // Written by Configure() before enabled_ is released; read-only while
  // enabled, so plain doubles are race-free under the release/acquire pair.
  double rate = 0.0;
  std::atomic<uint64_t> calls{0};
};

struct InjectorState {
  std::atomic<bool> enabled{false};
  bool crash_mode = false;
  uint64_t seed = 0;
  PointState points[kNumPoints];
  std::atomic<uint64_t> checked{0};
  std::atomic<uint64_t> fired{0};
  std::mutex config_mu;
};

InjectorState& State() {
  static InjectorState* state = new InjectorState();
  return *state;
}

uint64_t Fnv1aStr(const char* s) {
  uint64_t h = 1469598103934665603ULL;
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 1099511628211ULL;
  }
  return h;
}

int PointIndex(const char* point) {
  for (int i = 0; i < kNumPoints; ++i) {
    if (std::strcmp(kPointNames[i], point) == 0) return i;
  }
  return -1;
}

bool ParseRate(const std::string& text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || v < 0.0 || v > 1.0) return false;
  *out = v;
  return true;
}

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  static std::once_flag env_once;
  std::call_once(env_once, [] {
    const char* spec = std::getenv("GRGAD_FAULTS");
    if (spec == nullptr || spec[0] == '\0') return;
    const Status s = injector->Configure(spec);
    if (!s.ok()) {
      std::fprintf(stderr, "warning: ignoring GRGAD_FAULTS: %s\n",
                   s.ToString().c_str());
    }
  });
  return *injector;
}

Status FaultInjector::Configure(const std::string& spec) {
  InjectorState& st = State();
  std::lock_guard<std::mutex> lock(st.config_mu);
  // Quiesce readers before mutating rates; checks in flight during a
  // Configure are a caller contract violation (see header).
  st.enabled.store(false, std::memory_order_release);
  st.crash_mode = false;
  st.seed = 0;
  for (PointState& p : st.points) {
    p.rate = 0.0;
    p.calls.store(0, std::memory_order_relaxed);
  }
  st.checked.store(0, std::memory_order_relaxed);
  st.fired.store(0, std::memory_order_relaxed);
  if (spec.empty() || spec == "off") return Status::Ok();

  double global_rate = 0.0;
  bool any_point_rate = false;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t sep = spec.find_first_of(",;", pos);
    if (sep == std::string::npos) sep = spec.size();
    const std::string token = spec.substr(pos, sep - pos);
    pos = sep + 1;
    if (token.empty()) continue;
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault spec token '" + token +
                                     "' is not key=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "seed") {
      char* end = nullptr;
      st.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("fault spec: bad seed '" + value + "'");
      }
      continue;
    }
    if (key == "crash") {
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("fault spec: crash must be 0 or 1, "
                                       "got '" + value + "'");
      }
      st.crash_mode = (value == "1");
      continue;
    }
    double rate = 0.0;
    if (!ParseRate(value, &rate)) {
      return Status::InvalidArgument("fault spec: rate for '" + key +
                                     "' must be in [0, 1], got '" + value +
                                     "'");
    }
    if (key == "rate") {
      global_rate = rate;
      continue;
    }
    const int idx = PointIndex(key.c_str());
    if (idx < 0) {
      std::string known;
      for (const char* name : kPointNames) {
        if (!known.empty()) known += ", ";
        known += name;
      }
      return Status::InvalidArgument("fault spec: unknown point '" + key +
                                     "' (known: " + known + ")");
    }
    st.points[idx].rate = rate;
    any_point_rate = true;
  }
  if (global_rate > 0.0) {
    for (PointState& p : st.points) {
      if (p.rate == 0.0) p.rate = global_rate;
    }
  } else if (!any_point_rate) {
    return Status::Ok();  // seed-only spec: nothing armed, stay disabled.
  }
  st.enabled.store(true, std::memory_order_release);
  return Status::Ok();
}

void FaultInjector::Disable() {
  State().enabled.store(false, std::memory_order_release);
}

bool FaultInjector::enabled() const {
  return State().enabled.load(std::memory_order_acquire);
}

bool FaultInjector::Fires(const char* point) {
  InjectorState& st = State();
  if (!st.enabled.load(std::memory_order_acquire)) return false;
  const int idx = PointIndex(point);
  if (idx < 0) return false;
  PointState& p = st.points[idx];
  const uint64_t n = p.calls.fetch_add(1, std::memory_order_relaxed);
  st.checked.fetch_add(1, std::memory_order_relaxed);
  if (p.rate <= 0.0) return false;
  // Deterministic per (seed, point, call#): the nth decision at a point is
  // a pure function of the spec, independent of which thread asks.
  uint64_t h = st.seed ^ Fnv1aStr(point) ^ (0x9E3779B97F4A7C15ULL * (n + 1));
  const uint64_t mixed = SplitMix64Next(&h);
  const double u = static_cast<double>(mixed >> 11) * 0x1.0p-53;
  const bool fire = u < p.rate;
  if (fire) {
    st.fired.fetch_add(1, std::memory_order_relaxed);
    // Crash mode turns the fired point into a deterministic kill site: the
    // process dies mid-operation exactly as kill -9 would, except the kill
    // instant is chosen by the spec. _exit (not exit) so no atexit handler
    // or stream flush runs — the on-disk state is whatever the operation
    // had durably written when the point fired. 137 = 128 + SIGKILL, the
    // same status a real kill -9 yields, so harnesses treat both alike.
    if (st.crash_mode) ::_exit(137);
  }
  return fire;
}

Status FaultInjector::Check(const char* point, StatusCode code) {
  if (!Fires(point)) return Status::Ok();
  return Status(code, std::string("injected fault at ") + point);
}

uint64_t FaultInjector::checked_count() const {
  return State().checked.load(std::memory_order_relaxed);
}

uint64_t FaultInjector::fired_count() const {
  return State().fired.load(std::memory_order_relaxed);
}

void FaultInjector::ResetCounters() {
  InjectorState& st = State();
  std::lock_guard<std::mutex> lock(st.config_mu);
  for (PointState& p : st.points) p.calls.store(0, std::memory_order_relaxed);
  st.checked.store(0, std::memory_order_relaxed);
  st.fired.store(0, std::memory_order_relaxed);
}

std::vector<std::string> FaultInjector::KnownPoints() {
  return std::vector<std::string>(kPointNames, kPointNames + kNumPoints);
}

}  // namespace grgad
