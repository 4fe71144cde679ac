#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "qfr/common/cancel.hpp"
#include "qfr/common/thread_pool.hpp"
#include "qfr/common/timer.hpp"
#include "qfr/fault/fault_injector.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/runtime/leader_transport.hpp"
#include "qfr/runtime/master_runtime.hpp"
#include "qfr/runtime/supervisor.hpp"

namespace qfr::runtime {
namespace {

/// A dispatched task plus the cancel token guarding each fragment; the
/// tokens stay null when unsupervised.
struct ActiveTask {
  LeasedTask task;
  std::vector<common::CancelToken> tokens;
};

/// One leader incarnation: the original in-process leader loop, pulling
/// tasks straight from the shared scheduler and fanning fragments out to a
/// private worker pool.
void leader_main(SweepDrive& drive, std::size_t l) {
  const RuntimeOptions& options = drive.options;
  SweepScheduler& scheduler = drive.scheduler;
  Supervisor* const supervisor = drive.supervisor;
  const bool supervised = supervisor != nullptr;
  obs::Session* const obs = drive.obs;
  RunReport& report = *drive.report;

  // Leader threads are created fresh per incarnation and never inherit
  // thread-locals: install the ambient session here so everything the
  // leader calls directly records into it.
  obs::ScopedSession obs_scope(obs);
  WallTimer busy;
  double busy_acc = 0.0;
  // Each leader owns a private worker pool (paper: statically assigned
  // worker processes per leader).
  ThreadPool workers(options.workers_per_leader);

  // Acquire a task and register its leases with the supervisor, so a
  // leader death between acquisition and delivery is recoverable.
  auto fetch = [&]() -> ActiveTask {
    ActiveTask at;
    at.task = scheduler.acquire(0, drive.wall->seconds());
    at.tokens.resize(at.task.size());
    if (supervised)
      for (std::size_t k = 0; k < at.task.size(); ++k)
        at.tokens[k] = supervisor->register_attempt(l, at.task.leases[k]);
    return at;
  };

  // Execute one task; failures are routed back through the scheduler
  // (bounded retry) instead of aborting the sweep, and deliveries under a
  // revoked lease are fenced out.
  auto process = [&](ActiveTask& at) {
    const balance::Task& task = at.task.items;
    std::vector<Attempt> attempts(task.size());
    workers.parallel_for(task.size(), [&](std::size_t k) {
      const std::size_t fid = task[k].fragment_id;
      // Degraded fragments run on their fallback engine from here on.
      const std::size_t level = scheduler.engine_level(fid);
      // Pool threads do not inherit the leader's thread-locals.
      obs::ScopedSession worker_scope(obs);
      // The attempt token (supervisor revocation) is linked with the
      // run-level token so a cancelled sweep stops in-flight computes.
      attempts[k] = run_fragment(
          drive.fragments[fid], level, drive.levels[level], options.cache,
          common::CancelToken::linked(at.tokens[k], options.cancel_token));
    });
    for (std::size_t k = 0; k < task.size(); ++k) {
      const Lease& lease = at.task.leases[k];
      Attempt& a = attempts[k];
      switch (a.status) {
        case Attempt::Status::kComputed:
          detail::deliver_result(drive, lease, a.level, std::move(a.result),
                                 a.seconds);
          break;
        case Attempt::Status::kFailed:
          scheduler.fail(lease, a.error, a.reason);
          break;
        case Attempt::Status::kCancelled:
          // Stopped by its token (lease revoked, sweep cancelled): the
          // fragment is owned elsewhere. Nothing to deliver, no retry used.
          drive.n_cancelled->fetch_add(1, std::memory_order_relaxed);
          break;
      }
      if (supervised) supervisor->release_attempt(l, lease);
    }
  };

  ActiveTask next;  // prefetched
  bool have_next = false;
  for (;;) {
    // Run-level cancellation (request deadline, client cancel, shutdown):
    // flip every pending fragment terminal so the sweep drains. In-flight
    // computes see the linked token and stop on their own.
    if (options.cancel_token.cancelled())
      scheduler.cancel_pending("sweep cancelled by caller");
    ActiveTask current;
    if (have_next) {
      current = std::move(next);
      have_next = false;
    } else {
      current = fetch();
    }
    if (current.task.empty()) {
      if (scheduler.finished()) break;
      // In-flight fragments on other leaders may still fail or straggle;
      // idle briefly instead of retiring.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    if (supervised) {
      supervisor->beat(l);
      if (options.fault_injector != nullptr) {
        const fault::Fault fl =
            options.fault_injector->draw(l, fault::FaultSite::kLeader);
        if (fl.kind == fault::FaultKind::kLeaderKill) {
          // Die holding the leases: the supervisor revokes them, re-queues
          // the fragments, and respawns this slot.
          report.leaders[l].busy_seconds += busy_acc;
          supervisor->leader_exited(l);
          return;
        }
        if (fl.kind == fault::FaultKind::kLeaderHang) {
          // Go silent past the heartbeat timeout; the supervisor revokes
          // the held leases and this incarnation rejoins with every late
          // delivery fenced out.
          std::this_thread::sleep_for(
              std::chrono::duration<double>(fl.delay_seconds));
        }
      }
    }
    // Prefetch: request the next task before working the current one, so
    // the master round-trip overlaps with computation. `process` never
    // throws, so the prefetched task cannot be dropped.
    if (options.prefetch) {
      next = fetch();
      have_next = true;
    }
    busy.reset();
    {
      obs::SpanGuard task_span(obs, "leader.task", "runtime");
      task_span.arg("leader", static_cast<double>(l))
          .arg("n_fragments", static_cast<double>(current.task.size()));
      process(current);
    }
    busy_acc += busy.seconds();
    report.leaders[l].tasks++;
    report.leaders[l].fragments += current.task.size();
    if (supervised) supervisor->beat(l);
  }
  report.leaders[l].busy_seconds += busy_acc;
  if (supervised) supervisor->leader_retired(l);
}

class ThreadTransport final : public LeaderTransport {
 public:
  const char* name() const override { return "thread"; }

  void run(SweepDrive& drive) override {
    const std::size_t n_leaders = drive.options.n_leaders;
    std::vector<std::thread> threads(n_leaders);
    // Guards the thread objects: a leader killed on its very first task
    // can have the supervisor respawning its slot while the main thread
    // is still move-assigning the original std::thread into it.
    std::mutex threads_mutex;
    if (drive.supervisor != nullptr) {
      drive.supervisor->start(
          n_leaders, [&drive] { return drive.wall->seconds(); },
          [&](std::size_t l) {
            // Runs on the supervisor thread with no supervisor lock held;
            // the dead incarnation has already returned (join is brief).
            std::lock_guard<std::mutex> lock(threads_mutex);
            if (threads[l].joinable()) threads[l].join();
            threads[l] = std::thread([&drive, l] { leader_main(drive, l); });
          });
      {
        std::lock_guard<std::mutex> lock(threads_mutex);
        for (std::size_t l = 0; l < n_leaders; ++l)
          threads[l] = std::thread([&drive, l] { leader_main(drive, l); });
      }
      // The master waits on sweep completion, not on the original leader
      // threads: slots may be respawned while we wait. Stopping the
      // supervisor first guarantees no further respawns race the joins.
      while (!drive.scheduler.finished())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      drive.supervisor->stop();
      for (auto& t : threads)
        if (t.joinable()) t.join();
    } else {
      for (std::size_t l = 0; l < n_leaders; ++l)
        threads[l] = std::thread([&drive, l] { leader_main(drive, l); });
      for (auto& t : threads)
        if (t.joinable()) t.join();
    }
  }
};

}  // namespace

std::unique_ptr<LeaderTransport> make_thread_transport() {
  return std::make_unique<ThreadTransport>();
}

}  // namespace qfr::runtime
