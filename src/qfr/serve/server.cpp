#include "qfr/serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <sstream>
#include <utility>

#include "qfr/balance/packing.hpp"
#include "qfr/common/cancel.hpp"
#include "qfr/common/error.hpp"
#include "qfr/frag/assembly.hpp"
#include "qfr/obs/export.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/obs/trace.hpp"
#include "qfr/part/policy.hpp"
#include "qfr/runtime/master_runtime.hpp"
#include "qfr/runtime/sweep_scheduler.hpp"

namespace qfr::serve {

const char* to_string(ServeStatus status) {
  switch (status) {
    case ServeStatus::kAccepted: return "accepted";
    case ServeStatus::kOverloaded: return "overloaded";
    case ServeStatus::kQuotaExceeded: return "quota_exceeded";
    case ServeStatus::kShuttingDown: return "shutting_down";
  }
  return "?";
}

const char* to_string(RequestState state) {
  switch (state) {
    case RequestState::kQueued: return "queued";
    case RequestState::kRunning: return "running";
    case RequestState::kCompleted: return "completed";
    case RequestState::kFailed: return "failed";
    case RequestState::kCancelled: return "cancelled";
    case RequestState::kDeadlineExpired: return "deadline_expired";
    case RequestState::kRejected: return "rejected";
  }
  return "?";
}

bool is_terminal(RequestState state) {
  return state != RequestState::kQueued && state != RequestState::kRunning;
}

namespace detail {

/// Engines shared by every request of one EngineKind: level 0 is the
/// primary, levels 1.. the qframan fallback chain (degradation AND
/// overload shedding run down the same ladder). Engines are stateless
/// per-compute, so concurrent requests share them safely.
struct EngineBundle {
  std::unique_ptr<engine::FragmentEngine> primary;
  engine::EngineFallbackChain chain;
  /// primary, then the chain, as the fragment-attempt kernel runs them.
  std::vector<runtime::EngineLevel> levels;
};

/// Server-side state of one request. Lifetime is shared between the
/// server's active list and every RequestHandle; fields fall into three
/// synchronization domains: immutable after submit (id, req, bundle,
/// deadline_at), start-once (fragmentation/scheduler/results, published
/// by the `started` release store), and the terminal record (state,
/// outcome, done) guarded by `m`.
struct RequestCtx {
  Server* server = nullptr;
  std::size_t id = 0;
  SpectrumRequest req;
  ServeStatus admit_status = ServeStatus::kAccepted;
  bool shed = false;
  std::size_t shed_level = 0;
  EngineBundle* bundle = nullptr;
  double submitted_at = 0.0;
  double deadline_at = std::numeric_limits<double>::infinity();

  std::once_flag start_once;
  std::atomic<bool> started{false};
  double started_at = -1.0;  ///< written before the `started` release
  frag::Fragmentation fragmentation;
  std::unique_ptr<runtime::SweepScheduler> scheduler;
  /// Accepted results / wall seconds by fragment id; each slot has a
  /// single writer (the leader whose delivery the lease fence accepted).
  std::vector<engine::FragmentResult> results;
  std::vector<double> frag_seconds;
  std::unique_ptr<obs::Session> session;

  /// Leaders with a dispatched task of this request between acquire and
  /// the last result/frag_seconds store. finished() can turn true while an
  /// accepting leader is still writing its slot (on_completion marks the
  /// fragment completed first), so finalization waits for zero.
  std::atomic<std::size_t> inflight{0};
  common::CancelSource cancel;
  /// Terminal transition requested by cancel/deadline/shutdown, as a
  /// RequestState value; -1 = none. First writer wins (under `m`).
  std::atomic<int> terminal_intent{-1};
  std::atomic<bool> finalized{false};
  std::atomic<std::size_t> n_compute_cancelled{0};

  mutable std::mutex m;
  mutable std::condition_variable cv;
  RequestState state = RequestState::kQueued;
  std::string cancel_error;  ///< why the terminal intent fired
  std::string start_error;   ///< fragmentation/setup threw before start
  bool done = false;
  RequestOutcome out;
};

}  // namespace detail

using detail::RequestCtx;

// ---------------------------------------------------------------------------
// RequestHandle

RequestHandle::RequestHandle() = default;
RequestHandle::~RequestHandle() = default;
RequestHandle::RequestHandle(const RequestHandle&) = default;
RequestHandle& RequestHandle::operator=(const RequestHandle&) = default;
RequestHandle::RequestHandle(RequestHandle&&) noexcept = default;
RequestHandle& RequestHandle::operator=(RequestHandle&&) noexcept = default;

RequestHandle::RequestHandle(std::shared_ptr<detail::RequestCtx> ctx)
    : ctx_(std::move(ctx)) {}

std::size_t RequestHandle::id() const {
  QFR_REQUIRE(ctx_ != nullptr, "empty RequestHandle");
  return ctx_->id;
}

ServeStatus RequestHandle::admit_status() const {
  QFR_REQUIRE(ctx_ != nullptr, "empty RequestHandle");
  return ctx_->admit_status;
}

bool RequestHandle::admitted() const {
  return admit_status() == ServeStatus::kAccepted;
}

RequestState RequestHandle::state() const {
  QFR_REQUIRE(ctx_ != nullptr, "empty RequestHandle");
  std::lock_guard<std::mutex> lock(ctx_->m);
  return ctx_->state;
}

bool RequestHandle::done() const {
  QFR_REQUIRE(ctx_ != nullptr, "empty RequestHandle");
  std::lock_guard<std::mutex> lock(ctx_->m);
  return ctx_->done;
}

const RequestOutcome& RequestHandle::wait() const {
  QFR_REQUIRE(ctx_ != nullptr, "empty RequestHandle");
  std::unique_lock<std::mutex> lock(ctx_->m);
  ctx_->cv.wait(lock, [&] { return ctx_->done; });
  return ctx_->out;
}

bool RequestHandle::wait_for(double seconds) const {
  QFR_REQUIRE(ctx_ != nullptr, "empty RequestHandle");
  std::unique_lock<std::mutex> lock(ctx_->m);
  return ctx_->cv.wait_for(lock, std::chrono::duration<double>(seconds),
                           [&] { return ctx_->done; });
}

const RequestOutcome& RequestHandle::outcome() const {
  QFR_REQUIRE(ctx_ != nullptr, "empty RequestHandle");
  std::lock_guard<std::mutex> lock(ctx_->m);
  QFR_REQUIRE(ctx_->done, "request " << ctx_->id << " is not terminal yet");
  return ctx_->out;
}

bool RequestHandle::cancel() {
  QFR_REQUIRE(ctx_ != nullptr, "empty RequestHandle");
  return ctx_->server != nullptr &&
         ctx_->server->request_cancel(ctx_, RequestState::kCancelled,
                                      "cancelled by client");
}

// ---------------------------------------------------------------------------
// Server

Server::Server(ServerOptions options) : Server(std::move(options), nullptr) {}

Server::Server(ServerOptions options, EngineFactory make_primary)
    : options_(std::move(options)),
      make_primary_(std::move(make_primary)),
      admission_(options_.admission) {
  QFR_REQUIRE(options_.n_leaders >= 1, "server needs at least one leader");
  if (options_.cache.enabled)
    cache_ = std::make_unique<cache::ResultCache>(options_.cache);
  if (options_.validate_results) {
    validator_ =
        std::make_unique<fault::FragmentResultValidator>(options_.validator);
    // The sweep validator also gates cache inserts, so one tenant's
    // invalid result is never served to another.
    if (cache_ != nullptr)
      cache_->set_insert_filter(
          [v = validator_.get()](const engine::FragmentResult& r) {
            return v->validate(r).ok;
          });
  }
  leaders_.reserve(options_.n_leaders);
  for (std::size_t l = 0; l < options_.n_leaders; ++l)
    leaders_.emplace_back([this, l] { leader_main(l); });
  reaper_ = std::thread([this] { reaper_main(); });
}

Server::~Server() { shutdown(true); }

double Server::now() const { return clock_.seconds(); }

detail::EngineBundle& Server::bundle_locked(qframan::EngineKind kind) {
  std::unique_ptr<detail::EngineBundle>& slot = bundles_[kind];
  if (slot == nullptr) {
    auto b = std::make_unique<detail::EngineBundle>();
    b->primary = make_primary_
                     ? make_primary_(kind)
                     : qframan::make_engine(kind, options_.batched_gemm);
    QFR_REQUIRE(b->primary != nullptr, "engine factory returned null");
    if (options_.enable_fallback)
      b->chain = qframan::make_fallback_chain(kind, options_.batched_gemm);
    const engine::FragmentEngine& primary = *b->primary;
    b->levels = runtime::make_engine_levels(
        {[&primary](const frag::Fragment& f) {
           return runtime::compute_with_engine(primary, f);
         },
         primary.name()},
        &b->chain);
    slot = std::move(b);
  }
  return *slot;
}

RequestHandle Server::submit(SpectrumRequest request) {
  auto ctx = std::make_shared<RequestCtx>();
  ctx->server = this;
  ctx->req = std::move(request);

  const double now = clock_.seconds();
  std::lock_guard<std::mutex> lock(mu_);
  ctx->id = next_id_++;
  ctx->submitted_at = now;
  ++stats_.submitted;

  const auto reject = [&](ServeStatus status, const std::string& why) {
    ctx->admit_status = status;
    ctx->finalized.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lk(ctx->m);
    ctx->state = RequestState::kRejected;
    ctx->out.state = RequestState::kRejected;
    ctx->out.error = why;
    RequestReport& rep = ctx->out.report;
    rep.id = ctx->id;
    rep.tenant = ctx->req.tenant;
    rep.priority = ctx->req.priority;
    rep.admit_status = status;
    rep.submitted_at = ctx->submitted_at;
    rep.finished_at = ctx->submitted_at;
    ctx->done = true;
    return RequestHandle(ctx);
  };

  if (stopping_) {
    ++stats_.rejected_shutdown;
    return reject(ServeStatus::kShuttingDown,
                  "server is shutting down and no longer admits requests");
  }
  const AdmitDecision decision = admission_.decide(
      ctx->req.tenant, ctx->req.priority, active_.size(), now);
  if (decision == AdmitDecision::kOverloaded) {
    ++stats_.rejected_overload;
    std::ostringstream os;
    os << "overloaded: " << active_.size() << " requests pending (cap "
       << options_.admission.max_pending << ")";
    return reject(ServeStatus::kOverloaded, os.str());
  }
  if (decision == AdmitDecision::kQuotaExceeded) {
    ++stats_.rejected_quota;
    return reject(ServeStatus::kQuotaExceeded,
                  "tenant '" + ctx->req.tenant + "' exceeded its quota");
  }

  detail::EngineBundle& bundle = bundle_locked(ctx->req.engine);
  ctx->bundle = &bundle;
  const std::size_t n_levels = bundle.levels.size();
  if (decision == AdmitDecision::kAdmitShed && n_levels > 1) {
    ctx->shed = true;
    ctx->shed_level =
        std::min(options_.max_shed_levels, n_levels - 1);
    ++stats_.shed;
  }
  const double budget = ctx->req.deadline_seconds > 0.0
                            ? ctx->req.deadline_seconds
                            : options_.default_deadline_seconds;
  if (budget > 0.0) ctx->deadline_at = now + budget;
  ctx->session = std::make_unique<obs::Session>();
  ++stats_.admitted;
  active_.push_back(ctx);
  work_cv_.notify_all();
  return RequestHandle(ctx);
}

std::vector<Server::CtxPtr> Server::ordered_active() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CtxPtr> v = active_;
  std::stable_sort(v.begin(), v.end(), [this](const CtxPtr& a,
                                              const CtxPtr& b) {
    if (a->req.priority != b->req.priority)
      return a->req.priority > b->req.priority;
    const double sa = tenant_service_[a->req.tenant];
    const double sb = tenant_service_[b->req.tenant];
    if (sa != sb) return sa < sb;
    return a->id < b->id;
  });
  return v;
}

void Server::ensure_started(const CtxPtr& ctx) {
  std::call_once(ctx->start_once, [&] {
    if (ctx->terminal_intent.load(std::memory_order_acquire) >= 0)
      return;  // cancelled while queued: never start the sweep
    RequestCtx& c = *ctx;
    try {
      c.fragmentation =
          part::fragment_system(c.req.system, c.req.fragmentation);
      const std::size_t n = c.fragmentation.fragments.size();
      QFR_REQUIRE(n > 0, "request produced no fragments");
      std::vector<balance::WorkItem> items;
      items.reserve(n);
      const balance::CostModel cost;
      for (const frag::Fragment& f : c.fragmentation.fragments)
        items.push_back({f.id, f.n_atoms(), cost.evaluate(f.n_atoms())});
      runtime::SweepOptions sopts;
      sopts.straggler_timeout = options_.straggler_timeout;
      sopts.max_retries = options_.max_retries;
      sopts.n_engine_levels = c.bundle->levels.size();
      sopts.initial_engine_level = c.shed_level;
      sopts.validator = validator_.get();
      sopts.retry_backoff_base = options_.retry_backoff_base;
      sopts.retry_backoff_max = options_.retry_backoff_max;
      sopts.retry_backoff_jitter = options_.retry_backoff_jitter;
      c.scheduler = std::make_unique<runtime::SweepScheduler>(
          std::move(items), balance::make_size_sensitive_policy(),
          std::move(sopts));
      c.results.resize(n);
      c.frag_seconds.assign(n, 0.0);
      c.started_at = clock_.seconds();
      {
        std::lock_guard<std::mutex> lk(c.m);
        if (c.state == RequestState::kQueued)
          c.state = RequestState::kRunning;
      }
      c.started.store(true, std::memory_order_release);
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lk(c.m);
      c.start_error = e.what();
    }
  });
}

bool Server::process(std::size_t leader, const CtxPtr& ctx) {
  runtime::SweepScheduler& sched = *ctx->scheduler;
  runtime::LeasedTask task = sched.acquire(0, clock_.seconds());
  if (task.empty()) return false;

  {
    std::lock_guard<std::mutex> lock(mu_);
    double served = 0.0;
    for (const balance::WorkItem& item : task.items) served += item.cost;
    tenant_service_[ctx->req.tenant] += served;
  }

  if (options_.fault_injector != nullptr) {
    const fault::Fault f =
        options_.fault_injector->draw(leader, fault::FaultSite::kLeader);
    if (f.kind == fault::FaultKind::kLeaderKill) {
      // Crash drill: this pool slot "dies" holding the task. Its leases
      // are revoked exactly as the runtime supervisor would revoke a dead
      // leader's, the fragments re-enter the queue, and the slot carries
      // on as a fresh incarnation.
      for (const runtime::Lease& lease : task.leases)
        sched.revoke_lease(lease);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.leader_crash_drills;
      return true;
    }
  }

  // Route engine metrics/trace into the request's private session.
  obs::ScopedSession ambient(ctx->session.get());
  ctx->inflight.fetch_add(1, std::memory_order_acq_rel);
  for (std::size_t k = 0; k < task.size(); ++k) {
    const std::size_t fid = task.items[k].fragment_id;
    const runtime::Lease& lease = task.leases[k];
    const std::size_t level = sched.engine_level(fid);
    const runtime::EngineLevel& engine = ctx->bundle->levels[level];
    // Cache entries are namespaced by the level's engine name and shared
    // across tenants: a geometry one request already paid for is a hit
    // for every other.
    runtime::Attempt a =
        runtime::run_fragment(ctx->fragmentation.fragments[fid], level, engine,
                              cache_.get(), ctx->cancel.token());
    switch (a.status) {
      case runtime::Attempt::Status::kComputed:
        if (sched.on_completion(lease, a.result, engine.name) ==
            runtime::Completion::kAccepted) {
          ctx->frag_seconds[fid] = a.seconds;
          ctx->results[fid] = std::move(a.result);
        }
        break;
      case runtime::Attempt::Status::kFailed:
        sched.fail(lease, a.error, a.reason);
        break;
      case runtime::Attempt::Status::kCancelled:
        // Deadline/cancel fired mid-compute; cancel_pending already fenced
        // the lease, so there is nothing to report.
        ctx->n_compute_cancelled.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
  ctx->inflight.fetch_sub(1, std::memory_order_acq_rel);
  if (sched.finished()) maybe_finalize(ctx);
  return true;
}

bool Server::request_cancel(const CtxPtr& ctx, RequestState terminal,
                            const std::string& why) {
  {
    std::lock_guard<std::mutex> lock(ctx->m);
    // A claimed finalizer is as terminal as a published outcome: the
    // finalizer re-reads the intent only once, at claim time, under this
    // same lock — an intent stored after the claim would be ignored, so
    // it must not be stored (the client sees "too late to cancel").
    if (ctx->done || ctx->finalized.load(std::memory_order_acquire) ||
        ctx->terminal_intent.load(std::memory_order_acquire) >= 0)
      return false;
    ctx->cancel_error = why;
    ctx->terminal_intent.store(static_cast<int>(terminal),
                               std::memory_order_release);
  }
  // Order matters: fire the request token FIRST so in-flight SCF/CPSCF
  // iterations on the pool see it, then cancel the scheduler so pending
  // fragments never dispatch and finished() turns true.
  ctx->cancel.cancel();
  if (ctx->started.load(std::memory_order_acquire))
    ctx->scheduler->cancel_pending(why);
  maybe_finalize(ctx);
  work_cv_.notify_all();
  return true;
}

void Server::reap_terminal(const CtxPtr& ctx) {
  if (ctx->terminal_intent.load(std::memory_order_acquire) < 0) return;
  // Covers the cancel/start race: the intent landed while the sweep was
  // still being set up, so the scheduler missed cancel_pending.
  if (ctx->started.load(std::memory_order_acquire) &&
      !ctx->scheduler->cancelled()) {
    std::string why;
    {
      std::lock_guard<std::mutex> lock(ctx->m);
      why = ctx->cancel_error;
    }
    ctx->scheduler->cancel_pending(why);
  }
  maybe_finalize(ctx);
}

void Server::maybe_finalize(const CtxPtr& ctx) {
  const bool started = ctx->started.load(std::memory_order_acquire);
  if (started) {
    if (!ctx->scheduler->finished()) return;
    // Wait out in-flight deliveries: an accepting leader may still be
    // storing its result slot after on_completion flipped the fragment to
    // completed. The reaper/leader loops retry until this drains.
    if (ctx->inflight.load(std::memory_order_acquire) != 0) return;
  } else {
    bool start_failed;
    {
      std::lock_guard<std::mutex> lock(ctx->m);
      start_failed = !ctx->start_error.empty();
    }
    if (ctx->terminal_intent.load(std::memory_order_acquire) < 0 &&
        !start_failed)
      return;  // still waiting for a leader
  }
  int intent_final;
  {
    // Claim finality and take the intent snapshot atomically with the
    // cancel CAS in request_cancel: a cancel() that returned true before
    // this claim MUST surface as a cancelled outcome, even if the sweep
    // finished naturally in the same instant.
    std::lock_guard<std::mutex> lock(ctx->m);
    if (ctx->finalized.exchange(true)) return;  // single finalizer
    intent_final = ctx->terminal_intent.load(std::memory_order_acquire);
  }
  const int intent = intent_final;

  RequestCtx& c = *ctx;
  RequestOutcome out;
  RequestReport& rep = out.report;
  rep.id = c.id;
  rep.tenant = c.req.tenant;
  rep.priority = c.req.priority;
  rep.admit_status = c.admit_status;
  rep.shed = c.shed;
  rep.engine_level_start = c.shed_level;
  rep.engine = c.bundle != nullptr ? c.bundle->levels[0].name : "";
  rep.submitted_at = c.submitted_at;
  rep.started_at = started ? c.started_at : -1.0;
  rep.finished_at = clock_.seconds();
  rep.queue_seconds =
      (started ? c.started_at : rep.finished_at) - c.submitted_at;
  rep.run_seconds = started ? rep.finished_at - c.started_at : 0.0;
  rep.total_seconds = rep.finished_at - c.submitted_at;
  rep.n_compute_cancelled =
      c.n_compute_cancelled.load(std::memory_order_relaxed);

  RequestState st;
  std::string err;
  if (intent >= 0) {
    st = static_cast<RequestState>(intent);
    std::lock_guard<std::mutex> lock(c.m);
    err = c.cancel_error;
  } else if (!started) {
    st = RequestState::kFailed;
    std::lock_guard<std::mutex> lock(c.m);
    err = c.start_error;
  } else {
    st = RequestState::kCompleted;  // provisional; solve may still fail
  }

  double solver_seconds = 0.0;
  if (started) {
    const runtime::SweepScheduler& sched = *c.scheduler;
    rep.fragmentation_policy = c.fragmentation.stats.policy;
    rep.n_cut_bonds = c.fragmentation.stats.n_cut_bonds;
    rep.balance_factor = c.fragmentation.stats.balance_factor;
    rep.n_fragments = sched.n_fragments();
    rep.n_tasks = sched.n_tasks();
    rep.n_requeued = sched.n_requeued();
    rep.n_retries = sched.n_retries();
    rep.n_fault_retries = sched.n_fault_retries();
    rep.n_reject_retries = sched.n_reject_retries();
    rep.n_rejected = sched.n_rejected();
    rep.n_degraded = sched.n_degraded();
    rep.n_failed = sched.n_failed();
    rep.outcomes = sched.outcomes();
    for (const runtime::FragmentOutcome& o : rep.outcomes)
      if (o.completed && o.reuse_tier == engine::ReuseTier::kExact)
        ++rep.n_cache_hits;

    if (st == RequestState::kCompleted && rep.n_failed > 0) {
      st = RequestState::kFailed;
      std::ostringstream os;
      os << rep.n_failed << " of " << rep.n_fragments
         << " fragments failed permanently";
      for (const runtime::FragmentOutcome& o : rep.outcomes)
        if (!o.completed) {
          os << "; first: fragment " << o.fragment_id << " ["
             << runtime::to_string(o.reason) << "]: " << o.error;
          break;
        }
      err = os.str();
    }
    if (st == RequestState::kCompleted) {
      try {
        obs::ScopedSession ambient(c.session.get());
        frag::AssemblyOptions aopts;
        frag::GlobalProperties props;
        {
          obs::SpanGuard span(c.session.get(), "serve.assembly", "serve");
          props = frag::assemble_global_properties(
              c.req.system, c.fragmentation.fragments, c.results, aopts);
        }
        const la::Vector axis = spectra::wavenumber_axis(
            c.req.omega_min_cm, c.req.omega_max_cm, c.req.omega_points);
        WallTimer solve_timer;
        obs::SpanGuard span(c.session.get(), "serve.solve", "serve");
        // One thread: the leader pool is shared across tenants, so one
        // request's solve must not take more.
        qframan::SolvedSpectra solved = qframan::solve_spectra(
            props, c.req.solver, axis, c.req.sigma_cm, c.req.lanczos_steps,
            /*compute_ir=*/false, /*threads=*/1);
        out.spectrum = std::move(solved.raman);
        out.used_lanczos = solved.used_lanczos;
        solver_seconds = solve_timer.seconds();
      } catch (const std::exception& e) {
        st = RequestState::kFailed;
        err = std::string("assembly/solve failed: ") + e.what();
      }
    }

    // Per-request machine-readable record (schema qfr.run_report.v1) from
    // the request's private session plus a sweep report assembled from
    // its scheduler.
    runtime::RunReport rr;
    rr.n_tasks = rep.n_tasks;
    rr.n_requeued = rep.n_requeued;
    rr.n_retries = rep.n_retries;
    rr.n_fault_retries = rep.n_fault_retries;
    rr.n_reject_retries = rep.n_reject_retries;
    rr.n_rejected = rep.n_rejected;
    rr.cancelled = sched.cancelled();
    rr.n_cancelled = rep.n_compute_cancelled;
    rr.outcomes = rep.outcomes;
    rr.fragment_seconds = c.frag_seconds;
    rr.makespan_seconds = rep.run_seconds;
    obs::RunContext rctx;
    rctx.engine = rep.engine;
    rctx.n_fragments = rep.n_fragments;
    rctx.engine_seconds = rep.run_seconds;
    rctx.solver_seconds = solver_seconds;
    rctx.fragmentation_policy = rep.fragmentation_policy;
    rctx.n_cut_bonds = rep.n_cut_bonds;
    rctx.balance_factor = rep.balance_factor;
    rep.run_report_json =
        obs::build_run_report(*c.session, &rr, rctx).dump();
  }

  out.state = st;
  out.error = err;
  // Server-side ledger first, THEN publish the outcome: a client that
  // wakes from wait() must already see the terminal state reflected in
  // stats() and the freed admission slot.
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_.erase(std::remove(active_.begin(), active_.end(), ctx),
                  active_.end());
    switch (st) {
      case RequestState::kCompleted: ++stats_.completed; break;
      case RequestState::kFailed: ++stats_.failed; break;
      case RequestState::kCancelled: ++stats_.cancelled; break;
      case RequestState::kDeadlineExpired: ++stats_.deadline_expired; break;
      default: break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(c.m);
    c.state = st;
    c.out = std::move(out);
    c.done = true;
  }
  c.cv.notify_all();
  work_cv_.notify_all();
}

void Server::leader_main(std::size_t leader) {
  for (;;) {
    bool worked = false;
    for (const CtxPtr& ctx : ordered_active()) {
      if (ctx->terminal_intent.load(std::memory_order_acquire) >= 0) {
        reap_terminal(ctx);
        continue;
      }
      if (clock_.seconds() >= ctx->deadline_at) {
        request_cancel(ctx, RequestState::kDeadlineExpired,
                       "deadline expired");
        continue;
      }
      ensure_started(ctx);
      if (!ctx->started.load(std::memory_order_acquire)) {
        maybe_finalize(ctx);  // cancelled before start, or start failed
        continue;
      }
      if (process(leader, ctx)) {
        worked = true;
        break;  // re-rank: priorities/fair share may have shifted
      }
      if (ctx->scheduler->finished()) maybe_finalize(ctx);
    }
    if (worked) continue;
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_ && active_.empty()) return;
    work_cv_.wait_for(lock, std::chrono::microseconds(200));
  }
}

void Server::reaper_main() {
  for (;;) {
    std::vector<CtxPtr> snapshot;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stopping_ && active_.empty()) return;
      snapshot = active_;
    }
    const double now = clock_.seconds();
    for (const CtxPtr& ctx : snapshot) {
      if (ctx->terminal_intent.load(std::memory_order_acquire) >= 0)
        reap_terminal(ctx);
      else if (now >= ctx->deadline_at)
        request_cancel(ctx, RequestState::kDeadlineExpired,
                       "deadline expired");
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_ && active_.empty()) return;
    work_cv_.wait_for(lock,
                      std::chrono::duration<double>(options_.reaper_interval));
  }
}

void Server::shutdown(bool drain) {
  std::vector<CtxPtr> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    snapshot = active_;
  }
  work_cv_.notify_all();
  if (!drain)
    for (const CtxPtr& ctx : snapshot)
      request_cancel(ctx, RequestState::kCancelled, "server shutting down");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (joined_) return;
    joined_ = true;
  }
  for (std::thread& t : leaders_)
    if (t.joinable()) t.join();
  if (reaper_.joinable()) reaper_.join();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats s = stats_;
  s.active = active_.size();
  return s;
}

}  // namespace qfr::serve
