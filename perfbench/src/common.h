// Shared pieces of the benchmark driver: options, sample statistics,
// the result report printed as the last stdout line, and the span
// tracer used by traced runs (--trace 1).
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Steady-clock nanoseconds.
int64_t NowNs();
inline double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

class Tracer;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;  // per-run scratch directory (segments, traces)
  std::string aplusd;   // the aplusd binary (serve)
  // Input-size multiplier; 1 is the benchmark, smaller values serve the
  // self-check only.
  double size = 1.0;
  // The check whose expected answer is corrupted (1-based, 0 for none),
  // so that it must report the run as incorrect (self-check).
  int perturb = 0;
  int cores = 1;
  int64_t start_ns = 0;  // taken first thing in main()
  Tracer* tracer = nullptr;
};

// Sample statistics. Quantile uses the nearest-rank rule on a sorted
// copy; the empty sample yields 0.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// A percentile of latencies timed from a fixed schedule, robust to short
// bursts of host noise. `samples` are (due time, latency) pairs; sorted
// by due time they are cut into consecutive windows of `per_window`
// samples, so every window covers the same stretch of the schedule
// however slow its requests were, and the result is the median over the
// windows of each window's q-quantile. A last, partial window is left
// out. Sets `*windows` to the number of windows used.
double ScheduledQuantile(std::vector<std::pair<int64_t, double>> samples, size_t per_window,
                         double q, size_t* windows);

// Events per second, robust to bursts of host noise: event times are
// cut into windows of `window_ns` between `start_ns` and `end_ns`; the
// result is the median over whole windows of each window's rate.
double WindowedRate(const std::vector<int64_t>& event_ns, int64_t start_ns, int64_t end_ns,
                    int64_t window_ns);

// One run's outcome: operation counts, the correctness verdict and the
// named metrics, printed as one JSON object.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n = 1) { failed_ += n; }
  // Records a failed check; the run is reported as incorrect.
  void Incorrect(const std::string& what);
  bool correct() const { return correct_; }
  // Reports a latency percentile only when at least ten samples lie
  // beyond it; otherwise the check fails (the run is too short).
  void SetPercentile(const std::string& name, const std::vector<double>& samples, double q,
                     const std::string& unit);
  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  int incorrect_reported_ = 0;
};

// --- Tracing -----------------------------------------------------------
//
// A span is one call into a layer: its name ("<layer>.<call>"), start,
// end, the span that caused it (index in the same buffer, -1 for a
// root) and the request it belongs to. `arg` carries one number the
// call returned (engine seconds, rows, ...). Spans stay in memory and
// are written once, at exit.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  uint64_t request;
  double arg;
};

// One thread's spans. Only its owning thread appends.
class TraceBuffer {
 public:
  int32_t Begin(const char* name, uint64_t request, int32_t parent);
  void End(int32_t id, double arg);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  // A buffer for the calling thread; null when tracing is off.
  TraceBuffer* NewBuffer();
  // Durations (µs) and args of every span called `name`.
  std::vector<double> DurationsUs(const char* name) const;
  std::vector<double> Args(const char* name) const;
  double TotalSeconds(const char* name) const;
  // Writes every span, with its self time (duration minus the union of
  // its children's intervals), one line each. Returns the span count.
  uint64_t Write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

// RAII span; a no-op when `buffer` is null.
class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buffer, const char* name, uint64_t request = 0, int32_t parent = -1)
      : buffer_(buffer), id_(buffer ? buffer->Begin(name, request, parent) : -1) {}
  ~ScopedSpan() { Finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_arg(double arg) { arg_ = arg; }
  int32_t id() const { return id_; }
  // Ends the span before scope exit.
  void Finish() {
    if (buffer_ != nullptr) buffer_->End(id_, arg_);
    buffer_ = nullptr;
  }

 private:
  TraceBuffer* buffer_;
  int32_t id_;
  double arg_ = 0.0;
};

// Order-independent 64-bit digest of result rows: the sum of a mixed
// hash per row, so the engine's row order does not matter.
uint64_t MixRow(uint64_t a, uint64_t b, uint64_t c = 0);

// Workload entry points (serve.cc, analytics.cc, ingest.cc).
void RunServe(const Options& options, Report* report);
void RunAnalytics(const Options& options, Report* report);
void RunIngest(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
