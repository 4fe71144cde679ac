#include "qfr/runtime/master_runtime.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "qfr/common/cancel.hpp"
#include "qfr/common/error.hpp"
#include "qfr/common/log.hpp"
#include "qfr/common/thread_pool.hpp"
#include "qfr/common/timer.hpp"
#include "qfr/fault/fault_injector.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/runtime/supervisor.hpp"

namespace qfr::runtime {

std::size_t RunReport::n_failed() const {
  std::size_t n = 0;
  for (const auto& o : outcomes)
    if (!o.completed) ++n;
  return n;
}

std::size_t RunReport::n_degraded() const {
  std::size_t n = 0;
  for (const auto& o : outcomes)
    if (o.degraded()) ++n;
  return n;
}

std::size_t RunReport::n_reuse_exact() const {
  std::size_t n = 0;
  for (const auto& o : outcomes)
    if (o.completed && o.reuse_tier == engine::ReuseTier::kExact) ++n;
  return n;
}

std::size_t RunReport::n_reuse_refresh() const {
  std::size_t n = 0;
  for (const auto& o : outcomes)
    if (o.completed && o.reuse_tier == engine::ReuseTier::kRefresh) ++n;
  return n;
}

MasterRuntime::MasterRuntime(RuntimeOptions options)
    : options_(std::move(options)) {
  QFR_REQUIRE(options_.n_leaders >= 1, "need at least one leader");
  QFR_REQUIRE(options_.workers_per_leader >= 1,
              "need at least one worker per leader");
}

RunReport MasterRuntime::run(std::span<const frag::Fragment> fragments,
                             const engine::FragmentEngine& eng) const {
  return run_impl(
      fragments,
      [&eng](const frag::Fragment& f) { return compute_with_engine(eng, f); },
      eng.name());
}

RunReport MasterRuntime::run(std::span<const frag::Fragment> fragments,
                             const FragmentCompute& compute) const {
  return run_impl(fragments, compute, "primary");
}

RunReport MasterRuntime::run_impl(std::span<const frag::Fragment> fragments,
                                  const FragmentCompute& compute,
                                  const std::string& primary_name) const {
  RunReport report;
  report.results.resize(fragments.size());
  report.leaders.resize(options_.n_leaders);
  report.fragment_seconds.assign(fragments.size(), 0.0);

  obs::Session* const obs = options_.obs;

  // Master side: one scheduler instance shared by all leaders, with a
  // fresh per-run policy so the runtime stays reusable.
  std::unique_ptr<balance::PackingPolicy> policy =
      options_.policy_factory ? options_.policy_factory()
                              : balance::make_size_sensitive_policy();
  QFR_REQUIRE(policy != nullptr, "policy factory returned null");
  std::vector<balance::WorkItem> items;
  items.reserve(fragments.size());
  for (const auto& f : fragments)
    items.push_back(
        {f.id, f.n_atoms(), options_.cost_model.evaluate(f.n_atoms())});

  // Level 0 is the caller's compute, levels 1..n the fallback chain
  // (graceful degradation).
  std::vector<EngineLevel> levels =
      make_engine_levels({compute, primary_name}, options_.fallback_chain);

  SweepOptions sopts;
  sopts.straggler_timeout = options_.straggler_timeout;
  sopts.max_retries = options_.max_retries;
  sopts.completed_ids = options_.completed_ids;
  sopts.n_engine_levels = levels.size();
  sopts.validator = options_.validator;
  sopts.retry_backoff_base = options_.retry_backoff_base;
  sopts.retry_backoff_max = options_.retry_backoff_max;
  sopts.retry_backoff_jitter = options_.retry_backoff_jitter;
  SweepScheduler scheduler(std::move(items), std::move(policy),
                           std::move(sopts));

  const bool supervised = options_.supervision.enabled;
  std::optional<Supervisor> supervisor;

  std::atomic<std::size_t> n_cancelled{0};
  std::atomic<std::size_t> n_transport_crashes{0};
  std::mutex sink_mutex;
  WallTimer wall;

  if (supervised) {
    SupervisorOptions so;
    so.heartbeat_timeout = options_.supervision.heartbeat_timeout;
    so.poll_interval = options_.supervision.poll_interval;
    so.obs = obs;
    supervisor.emplace(scheduler, so);
  }

  // Hand the sweep to the configured leader transport (threads in this
  // process, or forked leader processes over the wire protocol). The
  // transport starts/stops the supervisor, runs the leaders, and blocks
  // until every fragment is terminal and every leader slot is joined.
  SweepDrive drive{.options = options_,
                   .fragments = fragments,
                   .scheduler = scheduler};
  drive.supervisor = supervisor ? &*supervisor : nullptr;
  drive.obs = obs;
  drive.wall = &wall;
  drive.levels = std::move(levels);
  drive.report = &report;
  drive.sink_mutex = &sink_mutex;
  drive.n_cancelled = &n_cancelled;
  drive.n_transport_crashes = &n_transport_crashes;

  std::unique_ptr<LeaderTransport> transport =
      make_leader_transport(options_.transport);
  transport->run(drive);

  report.makespan_seconds = wall.seconds();
  report.n_tasks = scheduler.n_tasks();
  report.n_requeued = scheduler.n_requeued();
  report.n_retries = scheduler.n_retries();
  report.n_fault_retries = scheduler.n_fault_retries();
  report.n_reject_retries = scheduler.n_reject_retries();
  report.n_rejected = scheduler.n_rejected();
  report.n_resumed = scheduler.n_resumed();
  report.cancelled = scheduler.cancelled();
  report.n_leases_revoked = scheduler.n_revoked();
  report.n_cancelled = n_cancelled.load();
  if (supervisor) {
    report.n_leader_crashes = supervisor->n_leader_crashes();
    report.n_leader_hangs = supervisor->n_leader_hangs();
  }
  // Leader deaths the transport recovered on its own (unsupervised
  // process mode detects pipe EOF locally); supervised crashes are
  // already counted above, never both for the same death.
  report.n_leader_crashes += n_transport_crashes.load();
  report.outcomes = scheduler.outcomes();
  report.task_log = scheduler.task_log();

  if (obs != nullptr) {
    // The sweep-wide dispatch counters, mirrored into the registry so the
    // run report carries them even when the RunReport object is dropped.
    obs::MetricsRegistry& m = obs->metrics();
    m.counter("sched.tasks").add(report.n_tasks);
    m.counter("sched.requeued").add(report.n_requeued);
    m.counter("sched.retries").add(report.n_retries);
    m.counter("sched.fault_retries").add(report.n_fault_retries);
    m.counter("sched.reject_retries").add(report.n_reject_retries);
    m.counter("sched.rejected").add(report.n_rejected);
    m.counter("sched.resumed").add(report.n_resumed);
    m.counter("sched.leases_revoked").add(report.n_leases_revoked);
    m.counter("sched.cancelled").add(report.n_cancelled);
    m.counter("sched.leader_crashes").add(report.n_leader_crashes);
    m.counter("sched.leader_hangs").add(report.n_leader_hangs);
    m.counter("sched.failed").add(report.n_failed());
    m.counter("sched.degraded").add(report.n_degraded());
    m.counter("sched.reuse_exact").add(report.n_reuse_exact());
    m.counter("sched.reuse_refresh").add(report.n_reuse_refresh());
    m.gauge("sched.makespan_seconds").set(report.makespan_seconds);
  }

  if (report.n_leader_crashes + report.n_leader_hangs > 0) {
    QFR_LOG_WARN("sweep survived ", report.n_leader_crashes,
                 " leader crash(es) and ", report.n_leader_hangs,
                 " hang(s): ", report.n_leases_revoked,
                 " lease(s) revoked, ", report.n_cancelled,
                 " compute(s) cancelled");
  }
  if (report.n_degraded() > 0) {
    for (const auto& o : report.outcomes)
      if (o.degraded())
        QFR_LOG_WARN("fragment ", o.fragment_id, " degraded to engine '",
                     o.engine, "' (level ", o.engine_level,
                     ") after: ", o.error);
  }
  if (scheduler.n_failed() > 0) {
    std::string first_error;
    std::size_t n_bad = 0;
    for (const auto& o : report.outcomes) {
      if (o.completed) continue;
      ++n_bad;
      if (first_error.empty()) {
        std::ostringstream os;
        os << "fragment " << o.fragment_id << " ["
           << to_string(o.reason) << "]: " << o.error;
        first_error = os.str();
      }
    }
    QFR_LOG_WARN("sweep finished with ", n_bad, " failed fragment(s): ",
                 first_error);
    // A cancelled sweep is an intentional early exit, not a failure:
    // return the completed prefix and let the caller decide.
    if (options_.abort_on_failure && !report.cancelled) {
      QFR_NUMERIC_FAIL("fragment computation failed for "
                       << n_bad << " fragment(s) after retries: "
                       << first_error);
    }
  }
  return report;
}

}  // namespace qfr::runtime
