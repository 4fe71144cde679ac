#include "qfr/runtime/sweep_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "qfr/common/error.hpp"
#include "qfr/common/rng.hpp"
#include "qfr/fault/validator.hpp"
#include "qfr/obs/session.hpp"

namespace qfr::runtime {

const char* to_string(FailureReason reason) {
  switch (reason) {
    case FailureReason::kNone:           return "none";
    case FailureReason::kEngineError:    return "engine_error";
    case FailureReason::kInvalidResult:  return "invalid_result";
    case FailureReason::kNonConvergence: return "nonconvergence";
    case FailureReason::kTimeout:        return "timeout";
    case FailureReason::kCancelled:      return "cancelled";
  }
  return "unknown";
}

SweepScheduler::SweepScheduler(std::vector<balance::WorkItem> items,
                               balance::PackingPolicy& policy,
                               SweepOptions options)
    : policy_(&policy), options_(std::move(options)) {
  init(std::move(items));
}

SweepScheduler::SweepScheduler(std::vector<balance::WorkItem> items,
                               std::unique_ptr<balance::PackingPolicy> policy,
                               SweepOptions options)
    : owned_policy_(std::move(policy)),
      policy_(owned_policy_.get()),
      options_(std::move(options)) {
  QFR_REQUIRE(policy_ != nullptr, "null packing policy");
  init(std::move(items));
}

void SweepScheduler::init(std::vector<balance::WorkItem> items) {
  const std::size_t n = items.size();
  items_by_id_.assign(n, {});
  std::vector<char> seen(n, 0);
  for (const auto& it : items) {
    QFR_REQUIRE(it.fragment_id < n,
                "fragment ids must be dense in [0, n_items)");
    QFR_REQUIRE(!seen[it.fragment_id],
                "duplicate fragment id " << it.fragment_id);
    seen[it.fragment_id] = 1;
    items_by_id_[it.fragment_id] = it;
  }
  tracker_ =
      std::make_unique<FragmentTracker>(n, options_.straggler_timeout);
  QFR_REQUIRE(options_.n_engine_levels >= 1,
              "sweep needs at least one engine level");
  QFR_REQUIRE(options_.initial_engine_level < options_.n_engine_levels,
              "initial engine level outside the ladder");
  outcomes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    outcomes_[i].fragment_id = i;
    // Shed admissions start the whole sweep on a cheaper fallback level.
    outcomes_[i].engine_level = options_.initial_engine_level;
  }
  dead_.assign(n, 0);
  retry_base_.assign(n, 0);

  for (const std::size_t id : options_.completed_ids) {
    QFR_REQUIRE(id < n, "resume fragment id " << id << " out of range");
    if (tracker_->force_complete(id)) {
      outcomes_[id].completed = true;
      outcomes_[id].from_checkpoint = true;
      outcomes_[id].engine = "checkpoint";
      ++n_resumed_;
    }
  }
  if (n_resumed_ > 0) {
    std::vector<balance::WorkItem> pending;
    pending.reserve(n - n_resumed_);
    for (const auto& it : items)
      if (tracker_->state(it.fragment_id) != FragmentState::kCompleted)
        pending.push_back(it);
    items = std::move(pending);
  }
  policy_->initialize(std::move(items));
}

std::size_t SweepScheduler::tick_locked(double now) {
  last_now_ = std::max(last_now_, now);
  const std::vector<std::size_t> stragglers =
      tracker_->requeue_stragglers(now);
  if (!stragglers.empty()) {
    balance::Task task;
    task.reserve(stragglers.size());
    for (const std::size_t id : stragglers) task.push_back(items_by_id_[id]);
    policy_->requeue(std::move(task));
    ++n_requeue_tasks_;
  }
  // Release backed-off retries whose eligibility time has arrived.
  if (!backoff_.empty()) {
    balance::Task due;
    for (std::size_t i = 0; i < backoff_.size();) {
      if (backoff_[i].first <= now) {
        const std::size_t id = backoff_[i].second;
        if (!dead_[id]) due.push_back(items_by_id_[id]);
        backoff_[i] = backoff_.back();
        backoff_.pop_back();
      } else {
        ++i;
      }
    }
    if (!due.empty()) {
      policy_->requeue(std::move(due));
      ++n_requeue_tasks_;
    }
  }
  return stragglers.size();
}

std::size_t SweepScheduler::tick(double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  return tick_locked(now);
}

LeasedTask SweepScheduler::acquire(std::size_t queue_depth, double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (cancelled_) return {};

  // Straggler scan first: timed-out fragments re-enter the queue ahead of
  // fresh pops (the paper's status-table recovery path).
  tick_locked(now);

  for (;;) {
    balance::Task task = policy_->next_task(queue_depth);
    if (task.empty()) return {};
    // Drop fragments that are not dispatchable: completed or permanently
    // failed while waiting in a re-queue task, or already processing under
    // a live lease elsewhere (the queue can hold a duplicate after a
    // straggler re-queue raced with a fresh dispatch). Dispatching any of
    // these again would duplicate work or stomp a live lease.
    balance::Task live;
    live.reserve(task.size());
    for (const auto& it : task) {
      const std::size_t id = it.fragment_id;
      if (dead_[id] ||
          tracker_->state(id) != FragmentState::kUnprocessed)
        continue;
      live.push_back(it);
    }
    if (live.empty()) continue;  // fully stale; pop the next task

    LeasedTask out;
    out.items = std::move(live);
    out.leases.reserve(out.items.size());
    std::vector<std::size_t> ids;
    ids.reserve(out.items.size());
    for (const auto& it : out.items) {
      const std::uint64_t epoch = tracker_->mark_processing(it.fragment_id, now);
      ++outcomes_[it.fragment_id].attempts;
      out.leases.push_back({it.fragment_id, epoch});
      ids.push_back(it.fragment_id);
    }
    ++n_tasks_;
    task_log_.push_back(std::move(ids));
    // Dispatch accounting on the ambient session of the acquiring leader
    // (the supervisor's ticks carry no session and record nothing).
    if (obs::Session* s = obs::current()) {
      s->metrics().counter("sched.dispatched_fragments")
          .add(out.items.size());
    }
    return out;
  }
}

Completion SweepScheduler::on_completion(const Lease& lease,
                                         const engine::FragmentResult& result,
                                         std::string_view engine_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t fragment_id = lease.fragment_id;
  QFR_REQUIRE(fragment_id < items_by_id_.size(), "fragment id out of range");

  // Fence first: a revoked/re-queued lease may not deliver at all, even a
  // bit-identical result — exactly-once acceptance is decided by lease
  // ownership alone, never by completion order.
  if (!tracker_->lease_valid(fragment_id, lease.epoch))
    return Completion::kStale;

  if (options_.validator != nullptr) {
    const fault::Validation v = options_.validator->validate(result);
    if (!v.ok) {
      ++n_rejected_;
      std::ostringstream os;
      os << "result rejected by validator: " << v.reason;
      if (!engine_name.empty()) os << " (engine " << engine_name << ")";
      fail_locked(lease, os.str(), FailureReason::kInvalidResult);
      return Completion::kRejected;
    }
  }

  tracker_->mark_completed(fragment_id, lease.epoch);
  FragmentOutcome& o = outcomes_[fragment_id];
  o.completed = true;
  if (o.engine_level == 0) {
    // Clean completion; a degraded fragment keeps its last failure as the
    // record of *why* it ended on a fallback engine.
    o.error.clear();
    o.reason = FailureReason::kNone;
  }
  o.engine.assign(engine_name);
  o.reuse_tier = result.reuse_tier;
  return Completion::kAccepted;
}

void SweepScheduler::fail(const Lease& lease, const std::string& error,
                          FailureReason reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  QFR_REQUIRE(lease.fragment_id < items_by_id_.size(),
              "fragment id out of range");
  if (!tracker_->lease_valid(lease.fragment_id, lease.epoch))
    return;  // stale failure: the fragment is owned (or done) elsewhere
  fail_locked(lease, error, reason);
}

void SweepScheduler::requeue_for_retry_locked(std::size_t fragment_id) {
  const FragmentOutcome& o = outcomes_[fragment_id];
  if (options_.retry_backoff_base <= 0.0) {
    // Historical behaviour: straight back into the queue.
    policy_->requeue({items_by_id_[fragment_id]});
    ++n_requeue_tasks_;
    return;
  }
  // Jittered exponential backoff, anchored to the last clock reading the
  // caller gave us (fail() carries no "now"): the k-th failure at the
  // current level waits base * 2^(k-1), capped, shortened by up to
  // `jitter` of itself so a batch of simultaneous failures fans out
  // instead of re-stampeding the engines as one wave. The jitter is a
  // pure function of (seed, fragment, attempts) so every run of a seed
  // replays the same schedule regardless of thread timing.
  const std::size_t k =
      std::max<std::size_t>(o.attempts - retry_base_[fragment_id], 1);
  double delay = options_.retry_backoff_base;
  for (std::size_t i = 1; i < k && delay < options_.retry_backoff_max; ++i)
    delay *= 2.0;
  delay = std::min(delay, options_.retry_backoff_max);
  Rng rng(options_.retry_backoff_seed ^
                  (fragment_id * 0x9e3779b97f4a7c15ull) ^
                  (o.attempts * 0xbf58476d1ce4e5b9ull));
  delay *= 1.0 - options_.retry_backoff_jitter * rng.uniform();
  backoff_.emplace_back(last_now_ + delay, fragment_id);
  if (obs::Session* s = obs::current())
    s->metrics().counter("sched.backoff_queued").add(1);
}

void SweepScheduler::fail_locked(const Lease& lease, const std::string& error,
                                 FailureReason reason) {
  const std::size_t fragment_id = lease.fragment_id;
  // The lease is live (caller checked), so the fragment is kProcessing
  // under this epoch and cannot be dead: every path that kills a fragment
  // first invalidates its lease.
  FragmentOutcome& o = outcomes_[fragment_id];
  o.error = error;
  o.reason = reason;
  const bool rejected = reason == FailureReason::kInvalidResult;
  if (rejected) ++o.rejections; else ++o.fault_failures;
  if (obs::Session* s = obs::current())
    s->metrics().counter("sched.failures").add(1);

  // The per-level retry budget runs from the attempt that entered the
  // current engine level.
  const std::size_t level_attempts = o.attempts - retry_base_[fragment_id];
  if (level_attempts <= options_.max_retries) {
    // Retry budget left: back to unprocessed, re-queued now or after the
    // backoff delay. Bad physics and bad hardware are counted apart so
    // the report can tell a flaky engine from a flaky machine.
    tracker_->reset(fragment_id, lease.epoch);
    requeue_for_retry_locked(fragment_id);
    ++n_retries_;
    if (rejected) ++n_reject_retries_; else ++n_fault_retries_;
    return;
  }

  if (o.engine_level + 1 < options_.n_engine_levels) {
    // Retries at this level are spent but a fallback engine remains:
    // degrade the fragment instead of killing it (graceful degradation).
    ++o.engine_level;
    retry_base_[fragment_id] = o.attempts;
    ++n_degraded_;
    if (obs::Session* s = obs::current()) {
      s->metrics().counter("sched.degrade_events").add(1);
      s->instant("fragment.degrade", "scheduler",
                 {{"fragment", static_cast<double>(fragment_id), {}, true},
                  {"level", static_cast<double>(o.engine_level), {}, true}});
    }
    tracker_->reset(fragment_id, lease.epoch);
    requeue_for_retry_locked(fragment_id);
    ++n_retries_;
    if (rejected) ++n_reject_retries_; else ++n_fault_retries_;
    return;
  }

  tracker_->reset(fragment_id, lease.epoch);
  dead_[fragment_id] = 1;
  ++n_failed_;
  if (obs::Session* s = obs::current()) {
    s->metrics().counter("sched.permanent_failures").add(1);
    s->instant("fragment.failed", "scheduler",
               {{"fragment", static_cast<double>(fragment_id), {}, true}});
  }
}

bool SweepScheduler::revoke_lease(const Lease& lease) {
  std::lock_guard<std::mutex> lock(mutex_);
  QFR_REQUIRE(lease.fragment_id < items_by_id_.size(),
              "fragment id out of range");
  if (!tracker_->revoke(lease.fragment_id, lease.epoch)) return false;
  policy_->requeue({items_by_id_[lease.fragment_id]});
  ++n_requeue_tasks_;
  ++n_revoked_;
  return true;
}

bool SweepScheduler::lease_valid(const Lease& lease) const {
  std::lock_guard<std::mutex> lock(mutex_);
  QFR_REQUIRE(lease.fragment_id < items_by_id_.size(),
              "fragment id out of range");
  return tracker_->lease_valid(lease.fragment_id, lease.epoch);
}

std::size_t SweepScheduler::engine_level(std::size_t fragment_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  QFR_REQUIRE(fragment_id < items_by_id_.size(), "fragment id out of range");
  return outcomes_[fragment_id].engine_level;
}

bool SweepScheduler::finished() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tracker_->n_completed() + n_failed_ == items_by_id_.size();
}

std::size_t SweepScheduler::cancel_pending(const std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (cancelled_) return 0;
  cancelled_ = true;
  std::size_t n = 0;
  for (std::size_t id = 0; id < items_by_id_.size(); ++id) {
    if (dead_[id]) continue;
    const FragmentState st = tracker_->state(id);
    if (st == FragmentState::kCompleted) continue;
    if (st == FragmentState::kProcessing) {
      // Revoke the live lease so the in-flight delivery is fenced out;
      // the transport separately cancels the compute itself.
      tracker_->reset(id, tracker_->epoch(id));
      ++n_revoked_;
    }
    dead_[id] = 1;
    ++n_failed_;
    outcomes_[id].error = error;
    outcomes_[id].reason = FailureReason::kCancelled;
    ++n;
  }
  backoff_.clear();
  if (obs::Session* s = obs::current())
    s->metrics().counter("sched.cancelled_fragments").add(n);
  return n;
}

bool SweepScheduler::cancelled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cancelled_;
}

double SweepScheduler::next_deadline() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double earliest = tracker_->earliest_deadline();
  for (const auto& [at, id] : backoff_)
    if (!dead_[id]) earliest = std::min(earliest, at);
  return earliest;
}

std::size_t SweepScheduler::n_completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tracker_->n_completed();
}

std::size_t SweepScheduler::n_failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return n_failed_;
}

std::size_t SweepScheduler::n_tasks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return n_tasks_;
}

std::size_t SweepScheduler::n_requeued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tracker_->n_requeued();
}

std::size_t SweepScheduler::n_requeue_tasks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return n_requeue_tasks_;
}

std::size_t SweepScheduler::n_retries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return n_retries_;
}

std::size_t SweepScheduler::n_fault_retries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return n_fault_retries_;
}

std::size_t SweepScheduler::n_reject_retries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return n_reject_retries_;
}

std::size_t SweepScheduler::n_resumed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return n_resumed_;
}

std::size_t SweepScheduler::n_degraded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return n_degraded_;
}

std::size_t SweepScheduler::n_rejected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return n_rejected_;
}

std::size_t SweepScheduler::n_revoked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return n_revoked_;
}

std::vector<FragmentOutcome> SweepScheduler::outcomes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return outcomes_;
}

std::vector<std::vector<std::size_t>> SweepScheduler::task_log() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return task_log_;
}

}  // namespace qfr::runtime
