#ifndef SWANDB_PERFBENCH_COMMON_H_
#define SWANDB_PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace swan::perfbench {

// Host clocks. Wall time is CLOCK_MONOTONIC (steady_clock); CPU time is
// the calling thread's CLOCK_THREAD_CPUTIME_ID.
int64_t WallNanos();
int64_t ThreadCpuNanos();

// A stopwatch that only advances while running: the timed phase of a
// workload pauses it around output checks, so checks never count as
// measured work.
class PhaseClock {
 public:
  void Start() { started_ns_ = WallNanos(); }
  void Stop() { total_ns_ += WallNanos() - started_ns_; }
  double seconds() const { return static_cast<double>(total_ns_) * 1e-9; }

 private:
  int64_t started_ns_ = 0;
  int64_t total_ns_ = 0;
};

double Median(std::vector<double> values);
double GeoMean(const std::vector<double>& values);

// Host speed. The benchmark runs on shared hosts whose neighbours change
// how fast the same code runs by 20-40% from one minute to the next, in
// wall and CPU time alike (memory and cache contention: a pure register
// loop barely moves). That moves every timing of a run together, which no
// amount of work inside one run averages away. HostSpeed times a fixed
// reference kernel -- the benchmark's own code, never the program's: a
// random walk over 16 MiB, a sequential pass over 4 MiB, hash-table probes
// and a sort, the memory-bound mix the engine's queries have -- at most
// every kProbeIntervalSeconds between measured operations. Factor(t) is
// kReferenceProbeMs over the median kernel time of the probes within
// kWindowSeconds of t, so a sample times its factor reads what it would
// have read on a host that ran the kernel in kReferenceProbeMs: the
// end-to-end timings are reported at that reference speed, and the run
// prints the raw figures and the factor beside them.
class HostSpeed {
 public:
  static constexpr double kReferenceProbeMs = 4.0;
  static constexpr double kProbeIntervalSeconds = 0.1;
  static constexpr double kWindowSeconds = 1.0;

  HostSpeed();

  // Runs the kernel if the last probe is at least kProbeIntervalSeconds
  // old. Call it between measured operations, outside their clocks.
  void MaybeProbe();
  // Runs the kernel `times` times now.
  void Probe(int times = 1);

  // The factor for a sample taken at WallNanos() == t_ns (1 before any
  // probe ran). With no probe in the window, the nearest probes decide.
  double Factor(int64_t t_ns) const { return FactorOver(t_ns, t_ns); }
  // The factor for a span of time: the probes within kWindowSeconds of
  // [from_ns, to_ns].
  double FactorOver(int64_t from_ns, int64_t to_ns) const;
  // Median factor over every probe of the run.
  double RunFactor() const;
  size_t probes() const { return probes_.size(); }
  // Resident bytes of the kernel's buffers (all touched at construction),
  // which peak_rss_mb leaves out.
  size_t buffer_bytes() const;

 private:
  double RunKernelMs();

  std::vector<uint32_t> walk_;    // one random cycle over 16 MiB
  std::vector<uint64_t> stream_;  // 4 MiB, read sequentially
  std::vector<uint64_t> table_;   // open-addressing hash table, 512 KiB
  std::vector<uint64_t> keys_;    // refilled and sorted by each probe
  uint32_t at_ = 0;               // where the walk goes on
  uint64_t sink_ = 0;
  std::vector<std::pair<int64_t, double>> probes_;  // (start ns, kernel ms)
};

// A timing sample: its host-time value and when it was taken, so it can
// be rescaled by HostSpeed::Factor afterwards.
struct Sample {
  double value = 0.0;
  int64_t t_ns = 0;
};

// The values of `samples` at reference host speed.
std::vector<double> AtReferenceSpeed(const std::vector<Sample>& samples,
                                     const HostSpeed& speed);
std::vector<double> RawValues(const std::vector<Sample>& samples);

// The tail: p95 (nearest rank), or p90 or p50 when fewer than ten samples
// lie beyond p95. Every workload yields at least 200 samples per run at
// the default --seconds, so it reports p95. The percentile is not raised
// to p99 when a faster program yields more samples, so the metric does
// not jump with throughput. `percentile` receives the percentile used.
double Tail(std::vector<double> values, double* percentile);

// Order-independent digest of a bag of id rows: the sum of a strong hash
// of each row. Equal bags give equal digests whatever the row order.
uint64_t RowHash(const std::vector<uint64_t>& row);
uint64_t BagDigest(const std::vector<std::vector<uint64_t>>& rows);

// Peak resident memory of the workload's own phases, in MB. Begin()
// returns freed heap to the kernel and resets the kernel's resident
// high-water mark (VmHWM, by writing 5 to /proc/self/clear_refs), so what
// ran before it -- set-up transients, the output checks' oracles -- does
// not count; End() reads the mark. peak_mb() is the largest over all
// phases. Where the mark cannot be reset, End() reads the resident size
// at that moment instead.
class PhaseRss {
 public:
  void Begin();
  void End();
  double peak_mb() const { return peak_mb_; }

 private:
  bool reset_ = false;
  double peak_mb_ = 0.0;
};

// How a number was obtained. Measured numbers depend on the host; modeled
// ones are the paper-currency cost model (partly host CPU time); counts
// repeat exactly for one seed.
enum class Kind { kMeasured, kModeled, kCount };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::kMeasured;
};

// The metrics of one run, in the order they were added.
class MetricSet {
 public:
  void Add(std::string name, double value, std::string unit, Kind kind) {
    metrics_.push_back({std::move(name), value, std::move(unit), kind});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  // Prints every metric by name with its unit and kind, one per line.
  void Print(const std::string& title) const;

  // The final result line: {"correct":..,"attempted":..,"failed":..,
  // "metrics":{name:{"value":v,"unit":u}}}.
  std::string ResultJson(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

// Host and build fingerprint, printed with every result.
struct Fingerprint {
  int nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  bool release = false;
  std::string git_commit;
  std::string source_digest;
  uint64_t seed = 0;
  uint64_t triples = 0;
  std::string workload;
  bool trace = false;
  int pinned_cpu = -1;  // the one CPU the process runs on, or -1

  std::string Json() const;
};
Fingerprint HostFingerprint();

std::string JsonEscape(const std::string& text);

}  // namespace swan::perfbench

#endif  // SWANDB_PERFBENCH_COMMON_H_
