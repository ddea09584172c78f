// Shared harness of the repo benchmark (perfbench/README.md): wall-clock and
// process-CPU timing, the in-memory span recorder of the traced run, sample
// statistics, and the interface every workload implements.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);
/// CPU seconds of the whole process (every thread), for utilization ratios.
double process_cpu_seconds();
/// Host memory high-water mark of this process, in MiB.
double peak_rss_mib();
/// Logical CPUs of the host; the benchmark never runs more threads.
int host_threads();

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
/// "n=<count> range=<min>..<max>": the sample behind a reported figure.
std::string sample_note(const std::vector<double>& v);

/// One recorded call into a layer: name, start and end (seconds since the
/// recorder's epoch), the enclosing span, and the workload iteration.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;  // index into the span list; -1 for a root span
  uint64_t iteration = 0;
};

/// Span recorder for the traced run. Spans are kept in memory and written
/// once at the end. Disabled, a scope reads no clock and stores nothing.
/// Not thread-safe: worker threads time their calls themselves and the
/// owning thread files them with add() after joining.
class Tracer {
 public:
  Tracer();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_iteration(uint64_t it) { iteration_ = it; }

  class Scope {
   public:
    Scope(Tracer* t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int index_ = -1;
  };
  /// Opens a span that closes when the returned scope dies.
  Scope scope(const char* name) { return Scope(enabled_ ? this : nullptr, name); }
  /// Files a span timed elsewhere as a child of the innermost open span.
  void add(const char* name, Clock::time_point start, Clock::time_point end);

  /// Self time (duration minus the union of its children) of every span
  /// called `name`, in seconds, in recording order.
  std::vector<double> self_seconds(const std::string& name) const;
  /// Σ self time of spans called `name`, per iteration that has any.
  std::vector<double> self_seconds_per_iteration(const std::string& name) const;
  bool write_json(const std::string& path) const;

 private:
  double since_epoch(Clock::time_point t) const;

  Clock::time_point epoch_;
  bool enabled_ = false;
  uint64_t iteration_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // how the value was formed (printed, not in the JSON)
};

/// Operations attempted and failed, with the first few failure reasons.
class Checks {
 public:
  void pass(uint64_t ops) { attempted_ += ops; }
  void fail(uint64_t ops, uint64_t failed, const std::string& why);
  /// Adds another workload's operations and failures to these.
  void merge(const Checks& other);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// A deterministic fingerprint that must repeat exactly within a run: the
/// first record() fixes it, later ones are compared against it.
class Fingerprint {
 public:
  /// True when `values` equals the first recorded value (or is the first).
  bool record(const std::vector<uint64_t>& values);

 private:
  std::vector<uint64_t> first_;
  bool have_ = false;
};

/// One benchmark workload. main() calls setup() several times (the last
/// build is the one measured), one untimed warm-up iterate(), then iterate()
/// until the run's time is up; the traced run alternates untraced and traced
/// iterations and ends with redrive().
class Workload {
 public:
  virtual ~Workload() = default;
  /// How many times main() repeats setup() to take its median.
  virtual int setup_repeats() const = 0;
  /// Builds everything the first timed call needs.
  virtual void setup(Tracer& tr) = 0;
  /// One measured iteration; records its own samples, checks and counts.
  virtual void iterate(Tracer& tr, bool measured) = 0;
  /// Traced run only: re-drives a fixed sample of this workload's inputs
  /// through the per-call layer functions.
  virtual void redrive(Tracer& tr) { (void)tr; }
  /// Workload-specific end-to-end metrics (setup_s and peak_rss_mb are
  /// added by main()).
  virtual void end_to_end(std::vector<Metric>& out) const = 0;
  /// The deterministic counts of the last measured iteration, which must
  /// repeat exactly from run to run at one seed. Every run prints them; the
  /// traced run also reports them as per-layer metrics.
  virtual void fingerprints(std::vector<Metric>& out) const = 0;
  /// Per-layer metrics from the traced iterations' spans and counts, for
  /// the layers this workload calls; main() takes the rest from brief runs
  /// of the other workloads.
  virtual void per_layer(const Tracer& tr, std::vector<Metric>& out) const = 0;
  /// Counts as failed any op whose output or fingerprint was wrong.
  const Checks& checks() const { return checks_; }

 protected:
  Checks checks_;
};

/// The workloads; `config_dir` holds the frozen machine descriptions.
std::unique_ptr<Workload> make_lock_mesh256(uint64_t seed,
                                            const std::string& config_dir);
std::unique_ptr<Workload> make_apps_mesh64(uint64_t seed,
                                           const std::string& config_dir);
std::unique_ptr<Workload> make_check_litmus(uint64_t seed);
std::unique_ptr<Workload> make_fuzz_farm(uint64_t seed);

}  // namespace perfbench
