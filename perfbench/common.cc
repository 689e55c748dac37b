#include "common.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace swan::perfbench {

namespace {

int64_t ClockNanos(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The CPU brand string from cpuid leaves 0x80000002..4 (no file reads).
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf < 0x80000004u) return "unknown";
  char brand[49] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    unsigned int regs[4] = {};
    __get_cpuid(0x80000002u + i, &regs[0], &regs[1], &regs[2], &regs[3]);
    std::memcpy(brand + 16 * i, regs, sizeof(regs));
  }
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kMeasured:
      return "measured";
    case Kind::kModeled:
      return "modeled";
    case Kind::kCount:
      return "count";
  }
  return "?";
}

}  // namespace

int64_t WallNanos() { return ClockNanos(CLOCK_MONOTONIC); }
int64_t ThreadCpuNanos() { return ClockNanos(CLOCK_THREAD_CPUTIME_ID); }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-12));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

HostSpeed::HostSpeed()
    : walk_(size_t{1} << 22),
      stream_(size_t{1} << 19),
      table_(size_t{1} << 16),
      keys_(size_t{1} << 13) {
  // Sattolo's shuffle: one cycle through every slot, so the walk never
  // settles into a short loop that stays in cache.
  std::iota(walk_.begin(), walk_.end(), 0u);
  uint64_t x = 0x5eed;
  for (size_t i = walk_.size() - 1; i > 0; --i) {
    x = Mix(x);
    std::swap(walk_[i], walk_[x % i]);
  }
  for (size_t i = 0; i < stream_.size(); ++i) stream_[i] = Mix(i);
}

size_t HostSpeed::buffer_bytes() const {
  return walk_.size() * sizeof(walk_[0]) +
         stream_.size() * sizeof(stream_[0]) +
         table_.size() * sizeof(table_[0]) + keys_.size() * sizeof(keys_[0]);
}

double HostSpeed::RunKernelMs() {
  const int64_t t0 = WallNanos();
  uint32_t at = at_;
  for (int i = 0; i < 16384; ++i) at = walk_[at];
  at_ = at;
  uint64_t sum = at;
  for (uint64_t v : stream_) sum += v;
  std::fill(table_.begin(), table_.end(), 0);
  const size_t mask = table_.size() - 1;
  for (size_t i = 0; i < keys_.size(); ++i) {
    const uint64_t key = Mix(sum + i) | 1;
    keys_[i] = key;
    size_t slot = key & mask;
    while (table_[slot] != 0) slot = (slot + 1) & mask;
    table_[slot] = key;
  }
  for (size_t i = 0; i < keys_.size(); ++i) {
    const uint64_t key = keys_[(i * 7919) % keys_.size()];
    size_t slot = key & mask;
    while (table_[slot] != key) slot = (slot + 1) & mask;
    sum += slot;
  }
  std::sort(keys_.begin(), keys_.end());
  sink_ += sum + keys_[keys_.size() / 2];
  return static_cast<double>(WallNanos() - t0) * 1e-6;
}

void HostSpeed::Probe(int times) {
  for (int i = 0; i < times; ++i) {
    const int64_t t = WallNanos();
    probes_.emplace_back(t, RunKernelMs());
  }
}

void HostSpeed::MaybeProbe() {
  const int64_t interval_ns =
      static_cast<int64_t>(kProbeIntervalSeconds * 1e9);
  if (probes_.empty() || WallNanos() - probes_.back().first >= interval_ns) {
    Probe();
  }
}

double HostSpeed::FactorOver(int64_t from_ns, int64_t to_ns) const {
  if (probes_.empty()) return 1.0;
  const int64_t window_ns = static_cast<int64_t>(kWindowSeconds * 1e9);
  auto lo = std::lower_bound(
      probes_.begin(), probes_.end(), from_ns - window_ns,
      [](const std::pair<int64_t, double>& p, int64_t t) { return p.first < t; });
  auto hi = std::upper_bound(
      lo, probes_.end(), to_ns + window_ns,
      [](int64_t t, const std::pair<int64_t, double>& p) { return t < p.first; });
  // No probe in the window (a long operation): the nearest ones.
  if (lo == hi) {
    lo = hi == probes_.begin() ? hi : hi - 1;
    hi = hi == probes_.end() ? hi : hi + 1;
  }
  std::vector<double> ms;
  for (auto it = lo; it != hi; ++it) ms.push_back(it->second);
  return kReferenceProbeMs / Median(ms);
}

double HostSpeed::RunFactor() const {
  if (probes_.empty()) return 1.0;
  std::vector<double> ms;
  for (const auto& p : probes_) ms.push_back(p.second);
  return kReferenceProbeMs / Median(ms);
}

std::vector<double> AtReferenceSpeed(const std::vector<Sample>& samples,
                                     const HostSpeed& speed) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.value * speed.Factor(s.t_ns));
  return out;
}

std::vector<double> RawValues(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.value);
  return out;
}

double Tail(std::vector<double> values, double* percentile) {
  *percentile = 50.0;
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (double p : {95.0, 90.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      *percentile = p;
      break;
    }
  }
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it.
  const size_t rank = static_cast<size_t>(std::ceil(*percentile / 100.0 * n));
  return values[std::max<size_t>(rank, 1) - 1];
}

uint64_t RowHash(const std::vector<uint64_t>& row) {
  uint64_t h = Mix(row.size());
  for (uint64_t id : row) h = Mix(h ^ Mix(id));
  return h;
}

uint64_t BagDigest(const std::vector<std::vector<uint64_t>>& rows) {
  uint64_t sum = 0;
  for (const auto& row : rows) sum += RowHash(row);
  return sum;
}

void PhaseRss::Begin() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  reset_ = f != nullptr && std::fputs("5", f) >= 0;
  if (f != nullptr && std::fclose(f) != 0) reset_ = false;
}

void PhaseRss::End() {
  // /proc/self/status lines read "VmHWM:\t  123456 kB".
  const char* field = reset_ ? "VmHWM:" : "VmRSS:";
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, std::strlen(field)) != 0) continue;
    const double kib = std::strtod(line + std::strlen(field), nullptr);
    peak_mb_ = std::max(peak_mb_, kib / 1024.0);
    break;
  }
  std::fclose(f);
}

void MetricSet::Print(const std::string& title) const {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics_) {
    std::printf("  %-40s %16.6g %-8s (%s)\n", m.name.c_str(), m.value,
                m.unit.c_str(), KindName(m.kind));
  }
}

std::string MetricSet::ResultJson(bool correct, uint64_t attempted,
                                  uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    out += "\"";
    out += JsonEscape(m.name);
    out += "\": {\"value\": ";
    out += FormatNumber(value);
    out += ", \"unit\": \"";
    out += JsonEscape(m.unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Fingerprint HostFingerprint() {
  Fingerprint fp;
  fp.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  fp.cpu_model = CpuModel();
#if defined(__clang__)
  fp.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  fp.compiler = std::string("gcc ") + __VERSION__;
#else
  fp.compiler = "unknown";
#endif
  fp.build_type = PERFBENCH_BUILD_TYPE;
  fp.release = fp.build_type == "Release";
  return fp;
}

std::string Fingerprint::Json() const {
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(nproc);
  out += ", \"cpu_model\": \"" + JsonEscape(cpu_model) + "\"";
  out += ", \"compiler\": \"" + JsonEscape(compiler) + "\"";
  out += ", \"build_type\": \"" + JsonEscape(build_type) + "\"";
  out += ", \"release_build\": ";
  out += release ? "true" : "false";
  out += ", \"git_commit\": \"" + JsonEscape(git_commit) + "\"";
  out += ", \"source_digest\": \"" + JsonEscape(source_digest) + "\"";
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"triples\": " + std::to_string(triples);
  out += ", \"workload\": \"" + JsonEscape(workload) + "\"";
  out += ", \"trace\": ";
  out += trace ? "true" : "false";
  out += ", \"pinned_cpu\": " + std::to_string(pinned_cpu);
  out += ", \"execution_width\": 1}";
  return out;
}

}  // namespace swan::perfbench
