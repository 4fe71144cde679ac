#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "qfr/cache/store.hpp"
#include "qfr/common/cancel.hpp"
#include "qfr/common/error.hpp"
#include "qfr/common/io.hpp"
#include "qfr/common/log.hpp"
#include "qfr/common/thread_pool.hpp"
#include "qfr/common/timer.hpp"
#include "qfr/fault/fault_injector.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/runtime/leader_transport.hpp"
#include "qfr/runtime/master_runtime.hpp"
#include "qfr/runtime/supervisor.hpp"
#include "qfr/runtime/wire.hpp"

namespace qfr::runtime {
namespace {

using FragKey = std::pair<std::uint64_t, std::uint64_t>;  // (fragment, epoch)

// --- child (leader process) side ------------------------------------------

/// Leader-process main loop. Forked from the master, so the fragment span
/// and the compute closures ride the fork; the socket carries identity
/// only (wire::TaskItem). The child must never touch the scheduler,
/// supervisor, report, or master obs session — their mutexes may have
/// been held by other master threads at the instant of the fork. It talks
/// exclusively through its socket and exits with _exit (no atexit/gtest
/// teardown in a forked child).
[[noreturn]] void child_main(SweepDrive& drive, std::size_t l, int fd) {
  const RuntimeOptions& options = drive.options;
  // The flock identity and append fd of the persistent cache store are
  // shared with the master across the fork; re-open so this process
  // locks and appends as itself.
  if (options.cache != nullptr) options.cache->reopen_after_fork();

  obs::Session child_obs;  // private; counters roll up via kStats

  std::mutex write_mutex;
  auto send = [&](wire::MsgType type, const std::string& payload) -> bool {
    const std::string frame = wire::encode_frame(type, payload);
    std::lock_guard<std::mutex> lock(write_mutex);
    return common::write_full(fd, frame.data(), frame.size());
  };

  {
    wire::HelloMsg hello;
    hello.pid = static_cast<std::uint64_t>(::getpid());
    hello.leader = l;
    if (!send(wire::MsgType::kHello, wire::encode_hello(hello))) ::_exit(1);
  }

  std::mutex mu;
  std::condition_variable cv;
  std::deque<wire::TaskMsg> queue;
  bool retire = false;
  bool dead = false;  // socket EOF/error or malformed master frame
  std::map<FragKey, common::CancelSource> inflight;

  auto mark_dead = [&] {
    std::lock_guard<std::mutex> lock(mu);
    dead = true;
    cv.notify_all();
  };

  std::thread reader([&] {
    wire::FrameReader frames;
    std::string chunk;
    for (;;) {
      chunk.clear();
      if (common::poll_readable(fd, 3600.0) != common::PollStatus::kReadable ||
          common::read_some(fd, chunk) == 0) {
        // Master gone. PDEATHSIG covers a dead master; this covers a
        // closed socket from a live one.
        mark_dead();
        return;
      }
      frames.append(chunk);
      wire::Frame f;
      for (;;) {
        const wire::DecodeStatus st = frames.next(&f);
        if (st == wire::DecodeStatus::kNeedMore) break;
        if (st != wire::DecodeStatus::kFrame) {
          QFR_LOG_WARN("leader ", l, ": malformed frame from master (",
                       wire::to_string(st), "), exiting");
          mark_dead();
          return;
        }
        if (f.type == wire::MsgType::kTask) {
          wire::TaskMsg task;
          if (!wire::decode_task(f.payload, &task)) {
            mark_dead();
            return;
          }
          std::lock_guard<std::mutex> lock(mu);
          // The cancel sources exist from the moment the task is queued,
          // so a kCancel racing the dequeue still lands.
          for (const wire::TaskItem& it : task.items)
            inflight.emplace(FragKey{it.fragment_id, it.epoch},
                             common::CancelSource{});
          queue.push_back(std::move(task));
          cv.notify_all();
        } else if (f.type == wire::MsgType::kCancel) {
          wire::CancelMsg cm;
          if (wire::decode_cancel(f.payload, &cm)) {
            std::lock_guard<std::mutex> lock(mu);
            auto it = inflight.find({cm.fragment_id, cm.epoch});
            if (it != inflight.end()) it->second.cancel();
          }
        } else if (f.type == wire::MsgType::kRetire) {
          std::lock_guard<std::mutex> lock(mu);
          retire = true;
          cv.notify_all();
        }
        // Anything else from the master is ignorable liveness noise.
      }
    }
  });

  // Liveness: beat every quarter of the supervision timeout even while a
  // long fragment compute is in flight (the proxy forwards the beats).
  std::atomic<bool> stop_heartbeat{false};
  const double interval =
      std::max(options.supervision.heartbeat_timeout / 4.0, 0.0005);
  std::thread heartbeat([&] {
    while (!stop_heartbeat.load(std::memory_order_relaxed)) {
      if (!send(wire::MsgType::kHeartbeat, "")) return;
      std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    }
  });

  ThreadPool workers(options.workers_per_leader);
  WallTimer busy;
  wire::StatsMsg stats;

  for (;;) {
    wire::TaskMsg task;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !queue.empty() || retire || dead; });
      if (dead) break;
      if (queue.empty()) break;  // retire: queue drained
      task = std::move(queue.front());
      queue.pop_front();
    }
    busy.reset();
    workers.parallel_for(task.items.size(), [&](std::size_t k) {
      const wire::TaskItem& item = task.items[k];
      const std::size_t fid = static_cast<std::size_t>(item.fragment_id);
      common::CancelToken token;
      {
        std::lock_guard<std::mutex> lock(mu);
        auto it = inflight.find({item.fragment_id, item.epoch});
        if (it != inflight.end()) token = it->second.token();
      }
      obs::ScopedSession worker_scope(&child_obs);
      Attempt a;
      // The wire carries identity only: cross-check it against the
      // fragment span that rode the fork before computing anything.
      if (fid < drive.fragments.size() &&
          drive.fragments[fid].n_atoms() == item.n_atoms &&
          item.level < drive.levels.size()) {
        const std::size_t level = static_cast<std::size_t>(item.level);
        a = run_fragment(drive.fragments[fid], level, drive.levels[level],
                         options.cache, token);
      } else {
        a.reason = FailureReason::kEngineError;
        a.error = "task/fragment identity mismatch on the wire";
      }
      switch (a.status) {
        case Attempt::Status::kComputed: {
          wire::ResultMsg rm;
          rm.fragment_id = item.fragment_id;
          rm.epoch = item.epoch;
          rm.level = item.level;
          rm.seconds = a.seconds;
          // reuse_tier is deliberately not part of the serialized result
          // record; carry it beside it so the outcome row is right.
          rm.reuse_tier = a.result.reuse_tier;
          rm.result = std::move(a.result);
          send(wire::MsgType::kResult, wire::encode_result(rm));
          break;
        }
        case Attempt::Status::kFailed: {
          wire::FailureMsg fail;
          fail.fragment_id = item.fragment_id;
          fail.epoch = item.epoch;
          fail.level = item.level;
          fail.reason = a.reason;
          fail.error = std::move(a.error);
          send(wire::MsgType::kFailure, wire::encode_failure(fail));
          break;
        }
        case Attempt::Status::kCancelled: {
          wire::CancelledMsg cm;
          cm.fragment_id = item.fragment_id;
          cm.epoch = item.epoch;
          send(wire::MsgType::kCancelled, wire::encode_cancelled(cm));
          break;
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        inflight.erase({item.fragment_id, item.epoch});
      }
    });
    stats.busy_seconds += busy.seconds();
    stats.tasks += 1;
    stats.fragments += task.items.size();
  }

  stop_heartbeat.store(true, std::memory_order_relaxed);
  const obs::MetricsSnapshot snap = child_obs.metrics().snapshot();
  stats.counters = snap.counters;
  send(wire::MsgType::kStats, wire::encode_stats(stats));
  // _exit skips joins and destructors on purpose: the reader may be
  // parked in poll(), and a forked child must not run the master's
  // teardown (static destructors, gtest listeners).
  ::_exit(0);
}

// --- master (proxy) side --------------------------------------------------

/// One in-flight fragment dispatched to a leader process.
struct Outstanding {
  Lease lease;
  common::CancelToken token;
  std::size_t level = 0;
  std::uint64_t task_serial = 0;
  bool cancel_sent = false;
};

/// Forked leader processes behind the scheduler: one proxy thread per
/// leader slot mirrors the thread-mode leader loop, but ships tasks to a
/// child process over the wire and feeds results/heartbeats back into the
/// scheduler and supervisor. Child death is observed as socket EOF (or a
/// failed send) and recovered exactly like a thread-mode crash: leases
/// revoked, fragments re-queued, slot respawned with a fresh fork.
class ProcessTransport final : public LeaderTransport {
 public:
  const char* name() const override { return "process"; }

  void run(SweepDrive& drive) override {
    const std::size_t n_leaders = drive.options.n_leaders;
    {
      std::lock_guard<std::mutex> lock(slots_mutex_);
      slots_.resize(n_leaders);
      // Fork every initial child before any proxy thread exists, keeping
      // the first forks as close to single-threaded as the master allows.
      for (std::size_t l = 0; l < n_leaders; ++l) spawn_child_locked(drive, l);
    }
    if (drive.supervisor != nullptr) {
      drive.supervisor->start(
          n_leaders, [&drive] { return drive.wall->seconds(); },
          [this, &drive](std::size_t l) {
            // Supervisor thread, no supervisor lock held. The dead slot's
            // proxy has already returned (it reaped the child first), so
            // the join is brief.
            std::lock_guard<std::mutex> lock(slots_mutex_);
            if (slots_[l].proxy.joinable()) slots_[l].proxy.join();
            spawn_child_locked(drive, l);
            slots_[l].proxy =
                std::thread([this, &drive, l] { proxy_main(drive, l); });
          });
      {
        std::lock_guard<std::mutex> lock(slots_mutex_);
        for (std::size_t l = 0; l < n_leaders; ++l)
          slots_[l].proxy =
              std::thread([this, &drive, l] { proxy_main(drive, l); });
      }
      while (!drive.scheduler.finished())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      drive.supervisor->stop();
      for (auto& s : slots_)
        if (s.proxy.joinable()) s.proxy.join();
    } else {
      {
        std::lock_guard<std::mutex> lock(slots_mutex_);
        for (std::size_t l = 0; l < n_leaders; ++l)
          slots_[l].proxy =
              std::thread([this, &drive, l] { proxy_main(drive, l); });
      }
      for (auto& s : slots_)
        if (s.proxy.joinable()) s.proxy.join();
    }
    // Zombie hygiene: every child should already be reaped by its proxy
    // (retire or crash). Kill and reap any straggler so no leader process
    // outlives the sweep even on an abnormal exit path.
    std::lock_guard<std::mutex> lock(slots_mutex_);
    for (Slot& s : slots_) {
      if (s.pid > 0) {
        ::kill(s.pid, SIGKILL);
        int status = 0;
        while (::waitpid(s.pid, &status, 0) < 0 && errno == EINTR) {}
        s.pid = -1;
      }
      s.fd.reset();
    }
  }

 private:
  struct Slot {
    pid_t pid = -1;
    common::FdGuard fd;  // parent end of the socketpair
    std::thread proxy;
  };

  /// Fork one leader child on slot `l`. Caller holds slots_mutex_.
  void spawn_child_locked(SweepDrive& drive, std::size_t l) {
    auto [parent_fd, child_fd] = common::make_socket_pair();
    // Parent-end descriptors of every live slot: the child must close
    // them all, or its inherited copy keeps a sibling's socket open after
    // the master closes it and defeats EOF-based death detection.
    std::vector<int> parent_fds;
    for (const Slot& s : slots_)
      if (s.fd.valid()) parent_fds.push_back(s.fd.get());
    parent_fds.push_back(parent_fd.get());

    const pid_t pid = ::fork();
    QFR_ASSERT(pid >= 0, "fork failed: " << std::strerror(errno));
    if (pid == 0) {
      // Child: die with the master even if the master is SIGKILLed, drop
      // every parent-side descriptor, run the leader loop. Never returns.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      for (int f : parent_fds) ::close(f);
      child_main(drive, l, child_fd.get());
    }
    child_fd.reset();  // parent keeps only its own end
    slots_[l].pid = pid;
    slots_[l].fd = std::move(parent_fd);
  }

  /// Reap slot `l`'s child (blocking; the child is already dead or dying)
  /// and drop the socket.
  void reap(std::size_t l, pid_t pid) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {}
    std::lock_guard<std::mutex> lock(slots_mutex_);
    slots_[l].pid = -1;
    slots_[l].fd.reset();
  }

  void proxy_main(SweepDrive& drive, std::size_t l) {
    const RuntimeOptions& options = drive.options;
    SweepScheduler& scheduler = drive.scheduler;
    Supervisor* const supervisor = drive.supervisor;
    const bool supervised = supervisor != nullptr;
    RunReport& report = *drive.report;

    int fd = -1;
    pid_t pid = -1;
    {
      std::lock_guard<std::mutex> lock(slots_mutex_);
      fd = slots_[l].fd.get();
      pid = slots_[l].pid;
    }

    wire::FrameReader frames;
    std::map<FragKey, Outstanding> outstanding;
    std::map<std::uint64_t, std::size_t> task_remaining;  // serial -> left
    std::uint64_t next_serial = 1;
    double suppress_until = 0.0;  // injected hang: proxy goes silent
    bool retiring = false;
    const std::size_t window = options.prefetch ? 2 : 1;

    // The child is gone mid-sweep. Reap it, then recover: supervised, the
    // supervisor owns the crash (revokes the leases, re-queues the
    // fragments, respawns this slot through the respawn callback, counts
    // it); unsupervised, the proxy is the whole failure story and revokes
    // + respawns inline. Returns false when this proxy must exit.
    auto crash = [&]() -> bool {
      reap(l, pid);
      if (supervised) {
        supervisor->leader_exited(l);
        return false;
      }
      for (auto& [key, o] : outstanding) scheduler.revoke_lease(o.lease);
      outstanding.clear();
      task_remaining.clear();
      drive.n_transport_crashes->fetch_add(1, std::memory_order_relaxed);
      QFR_LOG_WARN("leader ", l, " process (pid ", pid,
                   ") died mid-sweep; respawning");
      {
        std::lock_guard<std::mutex> lock(slots_mutex_);
        spawn_child_locked(drive, l);
        fd = slots_[l].fd.get();
        pid = slots_[l].pid;
      }
      frames = wire::FrameReader{};
      return true;
    };

    auto resolve = [&](std::map<FragKey, Outstanding>::iterator it) {
      const std::uint64_t serial = it->second.task_serial;
      if (supervised) supervisor->release_attempt(l, it->second.lease);
      outstanding.erase(it);
      auto tr = task_remaining.find(serial);
      if (tr != task_remaining.end() && --tr->second == 0)
        task_remaining.erase(tr);
    };

    // Keep the dispatch window full. Returns false on a crash that ends
    // this proxy (supervised death).
    auto top_up = [&]() -> bool {
      while (task_remaining.size() < window) {
        LeasedTask t = scheduler.acquire(0, drive.wall->seconds());
        if (t.empty()) return true;
        // Register the leases before any wire traffic: if the child dies
        // right after the send, the supervisor already holds them.
        const std::uint64_t serial = next_serial++;
        wire::TaskMsg msg;
        for (std::size_t k = 0; k < t.size(); ++k) {
          const std::size_t fid = t.items[k].fragment_id;
          Outstanding o;
          o.lease = t.leases[k];
          o.level = scheduler.engine_level(fid);
          o.task_serial = serial;
          if (supervised) o.token = supervisor->register_attempt(l, o.lease);
          wire::TaskItem item;
          item.fragment_id = fid;
          item.epoch = o.lease.epoch;
          item.level = o.level;
          item.n_atoms = drive.fragments[fid].n_atoms();
          msg.items.push_back(item);
          outstanding.emplace(FragKey{item.fragment_id, item.epoch},
                              std::move(o));
        }
        task_remaining.emplace(serial, t.size());
        if (supervised) {
          supervisor->beat(l);
          if (options.fault_injector != nullptr) {
            const fault::Fault fl =
                options.fault_injector->draw(l, fault::FaultSite::kLeader);
            if (fl.kind == fault::FaultKind::kLeaderKill) {
              // The real thing: SIGKILL the leader process while it holds
              // the leases just registered. Recovery is the same path a
              // genuine machine kill would take.
              ::kill(pid, SIGKILL);
              return crash();
            }
            if (fl.kind == fault::FaultKind::kLeaderHang) {
              // Go silent: no beats forwarded, no reads (the child's
              // writes back up against the socket buffer), exactly like a
              // stalled master-side link.
              suppress_until = drive.wall->seconds() + fl.delay_seconds;
            }
          }
        }
        const std::string frame =
            wire::encode_frame(wire::MsgType::kTask, wire::encode_task(msg));
        if (!common::write_full(fd, frame.data(), frame.size()))
          return crash();
        report.leaders[l].tasks++;
        report.leaders[l].fragments += t.size();
      }
      return true;
    };

    // Forward supervisor-side cancellations (revoked/stale leases) and
    // run-level cancellation to the child so orphaned computes stop
    // mid-solve instead of running to the end as zombies. A CancelSource
    // does not propagate across fork(), so the kCancel wire message is
    // the ONLY way a child compute learns the run was cancelled.
    auto forward_cancels = [&] {
      const bool run_cancelled = options.cancel_token.cancelled();
      for (auto& [key, o] : outstanding) {
        if (o.cancel_sent ||
            (!run_cancelled && (!o.token.valid() || !o.token.cancelled())))
          continue;
        wire::CancelMsg cm;
        cm.fragment_id = key.first;
        cm.epoch = key.second;
        const std::string frame = wire::encode_frame(
            wire::MsgType::kCancel, wire::encode_cancel(cm));
        if (!common::write_full(fd, frame.data(), frame.size())) return false;
        o.cancel_sent = true;
      }
      return true;
    };

    bool stats_merged = false;
    auto handle_frame = [&](wire::Frame& f) -> bool {
      switch (f.type) {
        case wire::MsgType::kHello:
        case wire::MsgType::kHeartbeat: {
          if (supervised && drive.wall->seconds() >= suppress_until)
            supervisor->beat(l);
          return true;
        }
        case wire::MsgType::kResult: {
          wire::ResultMsg rm;
          if (!wire::decode_result(f.payload, &rm)) return false;
          auto it = outstanding.find({rm.fragment_id, rm.epoch});
          if (it == outstanding.end()) return true;  // already resolved
          rm.result.reuse_tier = rm.reuse_tier;
          detail::deliver_result(drive, it->second.lease, it->second.level,
                                 std::move(rm.result), rm.seconds);
          resolve(it);
          return true;
        }
        case wire::MsgType::kFailure: {
          wire::FailureMsg fm;
          if (!wire::decode_failure(f.payload, &fm)) return false;
          auto it = outstanding.find({fm.fragment_id, fm.epoch});
          if (it == outstanding.end()) return true;
          scheduler.fail(it->second.lease, fm.error, fm.reason);
          resolve(it);
          return true;
        }
        case wire::MsgType::kCancelled: {
          wire::CancelledMsg cm;
          if (!wire::decode_cancelled(f.payload, &cm)) return false;
          auto it = outstanding.find({cm.fragment_id, cm.epoch});
          if (it == outstanding.end()) return true;
          // Lease already owned elsewhere; nothing delivered, no retry
          // consumed — same contract as a thread-mode cancelled compute.
          drive.n_cancelled->fetch_add(1, std::memory_order_relaxed);
          resolve(it);
          return true;
        }
        case wire::MsgType::kStats: {
          wire::StatsMsg sm;
          if (!wire::decode_stats(f.payload, &sm)) return false;
          report.leaders[l].busy_seconds += sm.busy_seconds;
          if (drive.obs != nullptr)
            for (const auto& [name, value] : sm.counters)
              drive.obs->metrics().counter(name).add(value);
          stats_merged = true;
          return true;
        }
        default:
          return true;  // master-bound types never arrive here
      }
    };

    for (;;) {
      // Run-level cancellation: make every pending fragment terminal (so
      // top_up dispatches nothing more and the sweep drains), then rely
      // on forward_cancels below to stop the child's in-flight computes.
      if (options.cancel_token.cancelled())
        scheduler.cancel_pending("sweep cancelled by caller");
      const double now = drive.wall->seconds();
      if (now < suppress_until) {
        // Injected hang: fully silent — no beats, no reads, no dispatch.
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(suppress_until - now, 0.002)));
        continue;
      }
      if (!retiring) {
        if (!top_up()) return;
        if (outstanding.empty()) {
          if (scheduler.finished()) {
            const std::string frame =
                wire::encode_frame(wire::MsgType::kRetire, "");
            if (!common::write_full(fd, frame.data(), frame.size())) {
              if (!crash()) return;
              continue;
            }
            retiring = true;
          }
        }
      }
      if (!forward_cancels()) {
        if (!crash()) return;
        continue;
      }
      const common::PollStatus ps = common::poll_readable(fd, 0.0005);
      if (ps == common::PollStatus::kTimeout) continue;
      std::string chunk;
      if (ps == common::PollStatus::kError ||
          common::read_some(fd, chunk) == 0) {
        if (retiring) {
          // Clean EOF after kRetire: the child sent its stats and exited.
          reap(l, pid);
          if (supervised) supervisor->leader_retired(l);
          (void)stats_merged;
          return;
        }
        if (!crash()) return;
        continue;
      }
      frames.append(chunk);
      wire::Frame f;
      bool malformed = false;
      for (;;) {
        const wire::DecodeStatus st = frames.next(&f);
        if (st == wire::DecodeStatus::kNeedMore) break;
        if (st != wire::DecodeStatus::kFrame || !handle_frame(f)) {
          // A child speaking a corrupt or skewed protocol is as dead as a
          // crashed one — kill it and take the crash path.
          QFR_LOG_WARN("leader ", l, ": malformed frame from child (",
                       wire::to_string(st), "); killing pid ", pid);
          ::kill(pid, SIGKILL);
          malformed = true;
          break;
        }
      }
      if (malformed) {
        if (!crash()) return;
        continue;
      }
    }
  }

  std::vector<Slot> slots_;
  std::mutex slots_mutex_;
};

}  // namespace

std::unique_ptr<LeaderTransport> make_process_transport() {
  return std::make_unique<ProcessTransport>();
}

}  // namespace qfr::runtime
