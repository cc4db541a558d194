#include "common.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::min(std::max<size_t>(rank, 1), values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double ScheduledQuantile(std::vector<std::pair<int64_t, double>> samples, size_t per_window,
                         double q, size_t* windows) {
  std::sort(samples.begin(), samples.end());
  std::vector<double> per_window_q;
  for (size_t begin = 0; per_window > 0 && begin + per_window <= samples.size();
       begin += per_window) {
    std::vector<double> values;
    values.reserve(per_window);
    for (size_t i = begin; i < begin + per_window; ++i) values.push_back(samples[i].second);
    per_window_q.push_back(Quantile(std::move(values), q));
  }
  *windows = per_window_q.size();
  return Median(std::move(per_window_q));
}

double WindowedRate(const std::vector<int64_t>& event_ns, int64_t start_ns, int64_t end_ns,
                    int64_t window_ns) {
  const int64_t windows = (end_ns - start_ns) / window_ns;
  if (windows <= 0) return static_cast<double>(event_ns.size()) / SecondsBetween(start_ns, end_ns);
  std::vector<double> counts(static_cast<size_t>(windows), 0.0);
  for (int64_t t : event_ns) {
    int64_t w = (t - start_ns) / window_ns;
    if (w >= 0 && w < windows) counts[static_cast<size_t>(w)] += 1.0;
  }
  return Median(std::move(counts)) * 1e9 / static_cast<double>(window_ns);
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Incorrect(const std::string& what) {
  correct_ = false;
  // The first few mismatches are enough to debug; the rest only count.
  if (incorrect_reported_++ < 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::SetPercentile(const std::string& name, const std::vector<double>& samples, double q,
                           const std::string& unit) {
  double beyond = (1.0 - q) * static_cast<double>(samples.size());
  if (beyond < 10.0) {
    Incorrect(name + ": only " + std::to_string(samples.size()) +
              " samples, too few for this percentile");
  }
  Set(name, Quantile(samples, q), unit);
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  char buf[128];
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64,
                attempted_, failed_);
  out += buf;
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    double value = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

int32_t TraceBuffer::Begin(const char* name, uint64_t request, int32_t parent) {
  spans_.push_back(Span{name, NowNs(), 0, parent, request, 0.0});
  return static_cast<int32_t>(spans_.size() - 1);
}

void TraceBuffer::End(int32_t id, double arg) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = NowNs();
  span.arg = arg;
}

TraceBuffer* Tracer::NewBuffer() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<TraceBuffer>());
  return buffers_.back().get();
}

std::vector<double> Tracer::DurationsUs(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans()) {
      if (std::strcmp(s.name, name) == 0) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

std::vector<double> Tracer::Args(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans()) {
      if (std::strcmp(s.name, name) == 0) out.push_back(s.arg);
    }
  }
  return out;
}

double Tracer::TotalSeconds(const char* name) const {
  double total = 0.0;
  for (double us : DurationsUs(name)) total += us * 1e-6;
  return total;
}

uint64_t Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::fprintf(f, "# span,buffer,parent,request,name,start_ns,end_ns,self_ns,arg\n");
  uint64_t written = 0;
  for (size_t b = 0; b < buffers_.size(); ++b) {
    const std::vector<Span>& spans = buffers_[b]->spans();
    // Children's intervals per parent, merged to their union.
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
    for (const Span& s : spans) {
      if (s.parent >= 0) children[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
      std::sort(kids.begin(), kids.end());
      int64_t covered = 0;
      int64_t cursor = s.start_ns;
      for (const auto& [begin, end] : kids) {
        int64_t lo = std::max(begin, cursor);
        int64_t hi = std::min(end, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
      std::fprintf(f, "%zu,%zu,%d,%" PRIu64 ",%s,%" PRId64 ",%" PRId64 ",%" PRId64 ",%.9g\n", i, b,
                   s.parent, s.request, s.name, s.start_ns, s.end_ns,
                   s.end_ns - s.start_ns - covered, s.arg);
      ++written;
    }
  }
  std::fclose(f);
  return written;
}

uint64_t MixRow(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t h = a * 0x9e3779b97f4a7c15ULL;
  h ^= (b + 0x632be59bd9b4e019ULL) * 0xbf58476d1ce4e5b9ULL;
  h ^= (c + 0x85ebca6b27d4eb4fULL) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  h *= 0xd6e8feb86659fd93ULL;
  return h ^ (h >> 32);
}

}  // namespace perfbench
