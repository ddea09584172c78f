#include "bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int host_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string sample_note(const std::vector<double>& v) {
  char buf[96];
  if (v.empty()) return "n=0";
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  std::snprintf(buf, sizeof buf, "n=%zu range=%.4g..%.4g", v.size(), *lo, *hi);
  return buf;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

double Tracer::since_epoch(Clock::time_point t) const {
  return seconds_between(epoch_, t);
}

Tracer::Scope::Scope(Tracer* t, const char* name) : t_(t) {
  if (t_ == nullptr) return;
  Span s;
  s.name = name;
  s.parent = t_->open_.empty() ? -1 : t_->open_.back();
  s.iteration = t_->iteration_;
  index_ = static_cast<int>(t_->spans_.size());
  t_->spans_.push_back(std::move(s));
  t_->open_.push_back(index_);
  // Read the clock last so the bookkeeping above is outside the span.
  t_->spans_[static_cast<size_t>(index_)].start = t_->since_epoch(Clock::now());
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  t_->spans_[static_cast<size_t>(index_)].end = t_->since_epoch(Clock::now());
  t_->open_.pop_back();
}

void Tracer::add(const char* name, Clock::time_point start,
                 Clock::time_point end) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.start = since_epoch(start);
  s.end = since_epoch(end);
  s.parent = open_.empty() ? -1 : open_.back();
  s.iteration = iteration_;
  spans_.push_back(std::move(s));
}

std::vector<double> Tracer::self_seconds(const std::string& name) const {
  // Children may overlap (spans filed from worker threads), so subtract the
  // union of the child intervals, clipped to the parent.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double cur_lo = 0, cur_hi = -1;
    for (const auto& [lo0, hi0] : iv) {
      const double lo = std::max(lo0, s.start);
      const double hi = std::min(hi0, s.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out.push_back(s.end - s.start - covered);
  }
  return out;
}

std::vector<double> Tracer::self_seconds_per_iteration(
    const std::string& name) const {
  const std::vector<double> self = self_seconds(name);
  std::vector<std::pair<uint64_t, double>> per_iter;
  size_t k = 0;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    if (per_iter.empty() || per_iter.back().first != s.iteration) {
      per_iter.emplace_back(s.iteration, 0.0);
    }
    per_iter.back().second += self[k++];
  }
  std::vector<double> out;
  for (const auto& p : per_iter) out.push_back(p.second);
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d, \"iteration\": %llu}%s\n",
                 i, s.name.c_str(), s.start, s.end, s.parent,
                 static_cast<unsigned long long>(s.iteration),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

void Checks::fail(uint64_t ops, uint64_t failed, const std::string& why) {
  attempted_ += ops;
  failed_ += failed;
  if (reasons_.size() < 8) reasons_.push_back(why);
}

void Checks::merge(const Checks& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& why : other.reasons_) {
    if (reasons_.size() < 8) reasons_.push_back(why);
  }
}

bool Fingerprint::record(const std::vector<uint64_t>& values) {
  if (!have_) {
    first_ = values;
    have_ = true;
    return true;
  }
  return values == first_;
}

}  // namespace perfbench
