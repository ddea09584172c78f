// check_litmus: the annotatable litmus suite on every registered back-end
// through CheckSession::check — snapshot engine, DPOR off, preemption bound
// 3, horizon 24, one worker per host CPU. Full schedule trees put the work
// in snapshot/restore, hb hashing, the Definition 12 validator and parallel
// exploration; the 2-3-core machines barely touch the mesh scheduler or NoC.
#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "bench.h"
#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "explore/replay_policy.h"
#include "model/trace.h"
#include "runtime/program.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace pmc;

constexpr uint64_t kHorizon = 24;
// Repetitions of each per-call measurement in the traced run's sample.
constexpr int kRedriveReps = 5;

explore::SessionOptions session_options() {
  explore::SessionOptions s;
  s.explore.preemption_bound = 3;
  s.explore.horizon = kHorizon;
  s.explore.dpor = explore::DporMode::kOff;
  s.jobs = host_threads();
  s.engine_state = explore::EngineState::kSnapshot;
  return s;
}

/// Snapshots one run at its first branchable decision step at or past
/// `at_step`, timing Program::snapshot, and keeps the replay recording so
/// the snapshot can be resumed under a fresh policy.
class SnapshotProbe final : public sim::CheckpointHook {
 public:
  SnapshotProbe(rt::Program& prog, explore::ReplayPolicy& policy,
                uint64_t at_step, Tracer& tr)
      : prog_(prog), policy_(policy), at_step_(at_step), tr_(tr) {}

  bool wants_checkpoint(uint64_t step, int runnable_cores) override {
    return !taken_ && step >= at_step_ && runnable_cores >= 2;
  }
  void on_checkpoint(uint64_t step) override {
    (void)step;
    for (int r = 0; r < kRedriveReps; ++r) {
      auto span = tr_.scope("program.snapshot");
      snap_ = prog_.snapshot();
    }
    rec_ = policy_.export_recording();
    taken_ = true;
  }

  bool taken() const { return taken_; }
  const rt::Program::Snapshot& snap() const { return snap_; }
  const explore::ReplayPolicy::Recording& recording() const { return rec_; }

 private:
  rt::Program& prog_;
  explore::ReplayPolicy& policy_;
  uint64_t at_step_;
  Tracer& tr_;
  bool taken_ = false;
  rt::Program::Snapshot snap_;
  explore::ReplayPolicy::Recording rec_;
};

struct PassTotals {
  uint64_t schedules = 0;
  uint64_t hb_classes = 0;
  uint64_t dpor_pruned = 0;
  uint64_t snapshots_taken = 0;
  uint64_t snapshot_hits = 0, snapshot_misses = 0;
  uint64_t steals = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

class CheckLitmus final : public Workload {
 public:
  explicit CheckLitmus(uint64_t seed) : seed_(seed), session_(session_options()) {}

  int setup_repeats() const override { return 3; }

  void setup(Tracer& tr) override {
    // One LitmusTarget per (test, back-end); each construction enumerates
    // the test's model outcomes (model::explore). Built by up to one thread
    // per host CPU, the tests with the most operations (the costliest
    // outcome enumerations) first.
    std::vector<model::LitmusTest> tests = explore::annotatable_tests();
    const auto ops = [](const model::LitmusTest& t) {
      size_t n = 0;
      for (const model::LitmusThread& th : t.threads) n += th.ops.size();
      return n;
    };
    std::stable_sort(tests.begin(), tests.end(),
                     [&](const auto& a, const auto& b) { return ops(a) > ops(b); });
    std::vector<std::pair<model::LitmusTest, rt::Target>> work;
    for (const model::LitmusTest& t : tests) {
      for (const rt::Target b : rt::sim_targets()) work.emplace_back(t, b);
    }
    std::vector<std::unique_ptr<explore::LitmusTarget>> built(work.size());
    std::vector<std::pair<Clock::time_point, Clock::time_point>> when(work.size());
    std::mutex mu;
    size_t next = 0;
    const auto worker = [&] {
      for (;;) {
        size_t i;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (next == work.size()) return;
          i = next++;
        }
        when[i].first = Clock::now();
        built[i] = std::make_unique<explore::LitmusTarget>(work[i].first,
                                                           work[i].second);
        when[i].second = Clock::now();
      }
    };
    std::vector<std::thread> pool;
    const int threads = std::min<int>(host_threads(), static_cast<int>(work.size()));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
    for (const auto& [a, b] : when) tr.add("model.litmus_target", a, b);
    targets_ = std::move(built);
    fingerprints_.assign(targets_.size(), Fingerprint{});
    target_s_.assign(targets_.size(), {});
    target_cpu_.assign(targets_.size(), {});
    explored_.assign(targets_.size(), 0);
    // The seed fixes the order the targets are checked in.
    order_.resize(targets_.size());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    util::Rng rng(seed_);
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.next_below(i)]);
    }
  }

  void iterate(Tracer& tr, bool measured) override {
    PassTotals pass;
    for (const size_t i : order_) {
      const explore::LitmusTarget& target = *targets_[i];
      const double cpu0 = process_cpu_seconds();
      const auto t0 = Clock::now();
      explore::CheckReport rep;
      {
        auto span = tr.scope("explore.check");
        rep = session_.check(target);
      }
      const double wall = seconds_between(t0, Clock::now());
      const double cpu = process_cpu_seconds() - cpu0;
      std::string why;
      if (!rep.ok || rep.failing != 0) {
        why = "report not ok (" + std::to_string(rep.failing) +
              " failing schedules): " + rep.first_failing_message;
      } else if (rep.truncated) {
        why = "exploration truncated";
      } else if (!fingerprints_[i].record({rep.explored, rep.distinct_traces})) {
        why = "fingerprint (schedules, hb-classes) differs from the run's "
              "first pass";
      }
      if (!why.empty()) {
        // A failing target fails its failing schedules, or all of them when
        // the report itself is wrong (truncated, or a different tree).
        const uint64_t failed = rep.failing != 0 ? rep.failing
                                                 : std::max<uint64_t>(1, rep.explored);
        checks_.fail(std::max(rep.explored, failed), failed,
                     target.name() + ": " + why);
      } else {
        checks_.pass(rep.explored);
      }
      pass.schedules += rep.explored;
      pass.hb_classes += rep.distinct_traces;
      pass.dpor_pruned += rep.dpor_pruned;
      pass.snapshots_taken += rep.telemetry.snapshots_taken;
      pass.snapshot_hits += rep.telemetry.snapshot_hits;
      pass.snapshot_misses += rep.telemetry.snapshot_misses;
      for (const uint64_t s : rep.telemetry.worker_steals) pass.steals += s;
      pass.wall_s += wall;
      pass.cpu_s += cpu;
      if (measured && !tr.enabled()) {
        check_ms_.push_back(1e3 * wall);
        target_s_[i].push_back(wall);
        target_cpu_[i].push_back(cpu);
        explored_[i] = rep.explored;
      }
    }
    if (!measured) return;
    last_ = pass;
    if (tr.enabled()) traced_.push_back(pass);
  }

  void redrive(Tracer& tr) override {
    // A fixed sample — every target, default schedule — re-driven through
    // the per-call functions the exploration engine is built from.
    for (const size_t i : order_) {
      const explore::StatefulSpec spec = targets_[i]->make_spec();
      for (int r = 0; r < kRedriveReps; ++r) {
        explore::ReplayPolicy policy({}, kHorizon, false);
        auto span = tr.scope("explore.run_spec_once");
        if (!explore::run_spec_once(spec, policy).ok) {
          checks_.fail(1, 1, targets_[i]->name() +
                                 ": default schedule failed its oracle");
        }
      }
      // One checkpointed run: snapshot mid-run, then restore and resume.
      explore::ReplayPolicy policy({}, kHorizon, false);
      rt::ProgramOptions opts = spec.opts;
      opts.schedule_policy = &policy;
      rt::Program prog(opts);
      SnapshotProbe probe(prog, policy, kHorizon / 3, tr);
      prog.enable_snapshots();
      prog.set_checkpoint_hook(&probe);
      spec.setup(prog);
      prog.run(spec.body);
      const std::vector<model::TraceEvent> trace = prog.trace();
      if (probe.taken()) {
        for (int r = 0; r < kRedriveReps; ++r) {
          explore::ReplayPolicy resumed({}, kHorizon, false);
          resumed.seed(probe.recording());
          {
            auto span = tr.scope("program.restore");
            prog.restore(probe.snap());
          }
          prog.set_schedule_policy(&resumed);
          prog.resume();
        }
      }
      int locs = 0;
      for (const model::TraceEvent& e : trace) locs = std::max(locs, e.loc + 1);
      for (int r = 0; r < kRedriveReps; ++r) {
        auto span = tr.scope("model.validate");
        model::TraceValidator v(opts.cores, locs,
                                std::vector<uint64_t>(static_cast<size_t>(locs), 0));
        v.on_events(trace);
        if (!v.ok()) {
          checks_.fail(1, 1, targets_[i]->name() +
                                 ": validator rejected the default schedule");
        }
      }
      for (int r = 0; r < kRedriveReps; ++r) {
        auto span = tr.scope("explore.hb_trace_hash");
        explore::hb_trace_hash(trace);
      }
    }
  }

  void end_to_end(std::vector<Metric>& out) const override {
    double schedules = 0, cpu = 0, wall = 0;
    for (size_t i = 0; i < targets_.size(); ++i) {
      schedules += static_cast<double>(explored_[i]);
      cpu += median(target_cpu_[i]);
      wall += median(target_s_[i]);
    }
    out.push_back({"schedules_per_cpu_s", schedules / cpu, "schedules/cpu_s",
                   "Σ schedules / Σ median check() CPU time (all workers) of " +
                       std::to_string(targets_.size()) + " targets, " +
                       std::to_string(target_s_[0].size()) + " passes; wall: " +
                       std::to_string(schedules / wall) + " schedules/s"});
  }

  void fingerprints(std::vector<Metric>& out) const override {
    out.push_back({"explore.schedules", static_cast<double>(last_.schedules),
                   "count", "per pass"});
    out.push_back({"explore.hb_classes", static_cast<double>(last_.hb_classes),
                   "count", "per pass"});
    out.push_back({"explore.dpor_pruned", static_cast<double>(last_.dpor_pruned),
                   "count", "per pass (DPOR off)"});
  }

  void per_layer(const Tracer& tr, std::vector<Metric>& out) const override {
    fingerprints(out);
    PassTotals sum;
    for (const PassTotals& p : traced_) {
      sum.snapshots_taken += p.snapshots_taken;
      sum.snapshot_hits += p.snapshot_hits;
      sum.snapshot_misses += p.snapshot_misses;
      sum.steals += p.steals;
      sum.wall_s += p.wall_s;
      sum.cpu_s += p.cpu_s;
    }
    const double passes = static_cast<double>(traced_.size());
    const auto us = [&](const char* span) {
      return 1e6 * median(tr.self_seconds(span));
    };
    // A mean, not a median: a few tests (wrc_locked) hold nearly all of the
    // outcome-enumeration cost, which a median would hide.
    const std::vector<double> builds = tr.self_seconds("model.litmus_target");
    double build_total = 0;
    for (const double s : builds) build_total += s;
    out.push_back({"model.explore_s",
                   builds.empty() ? 0 : build_total / static_cast<double>(builds.size()),
                   "s", "mean per LitmusTarget construction, " +
                            std::to_string(builds.size()) + " constructions"});
    out.push_back({"explore.check_s", median(tr.self_seconds("explore.check")),
                   "s", "per check() span"});
    out.push_back({"explore.check_ms_p50", quantile(check_ms_, 0.5), "ms",
                   "median of " + std::to_string(check_ms_.size()) +
                       " untraced check() calls"});
    out.push_back({"explore.check_ms_p90", quantile(check_ms_, 0.9), "ms",
                   "p90 of " + std::to_string(check_ms_.size()) +
                       " untraced check() calls"});
    out.push_back({"explore.snapshot_hit_ratio",
                   static_cast<double>(sum.snapshot_hits) /
                       static_cast<double>(std::max<uint64_t>(
                           1, sum.snapshot_hits + sum.snapshot_misses)),
                   "ratio", "hits / (hits+misses)"});
    out.push_back({"explore.snapshots_taken",
                   static_cast<double>(sum.snapshots_taken) / passes, "count",
                   "per pass"});
    out.push_back({"explore.steals_total", static_cast<double>(sum.steals) / passes,
                   "count", "per pass (timing-dependent)"});
    out.push_back({"explore.cpu_util",
                   sum.wall_s > 0 ? sum.cpu_s / (sum.wall_s * session_.options().jobs)
                                  : 0,
                   "ratio", "process CPU s / (wall s x jobs)"});
    out.push_back({"explore.run_once_us", us("explore.run_spec_once"), "us",
                   "per run_spec_once, default schedule"});
    out.push_back({"explore.hash_us", us("explore.hb_trace_hash"), "us",
                   "per hb_trace_hash"});
    out.push_back({"model.validate_us", us("model.validate"), "us",
                   "per TraceValidator pass over one trace"});
    out.push_back({"sim.snapshot_us", us("program.snapshot"), "us",
                   "per Program::snapshot, mid-run"});
    out.push_back({"sim.restore_us", us("program.restore"), "us",
                   "per Program::restore"});
  }

 private:
  uint64_t seed_;
  explore::CheckSession session_;
  std::vector<std::unique_ptr<explore::LitmusTarget>> targets_;
  std::vector<size_t> order_;
  std::vector<Fingerprint> fingerprints_;  // per target
  std::vector<double> check_ms_;               // untraced check() calls
  std::vector<std::vector<double>> target_s_;  // untraced seconds per target
  std::vector<std::vector<double>> target_cpu_;  // their process CPU seconds
  std::vector<uint64_t> explored_;             // schedules per target
  PassTotals last_;  // the last measured pass
  std::vector<PassTotals> traced_;
};

}  // namespace

std::unique_ptr<Workload> make_check_litmus(uint64_t seed) {
  return std::make_unique<CheckLitmus>(seed);
}

}  // namespace perfbench
