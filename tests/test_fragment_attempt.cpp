// The fragment-attempt kernel (runtime::run_fragment) and its hosts: one
// exception -> outcome mapping, whichever leader loop delivers it. This
// file covers the kernel itself, threaded leaders, and serve::Server, and
// runs under every sanitizer leg; the forked-process host lives in
// test_process_runtime.cpp (ASan/UBSan only).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "attempt_probe.hpp"
#include "qfr/cache/store.hpp"
#include "qfr/common/cancel.hpp"
#include "qfr/part/policy.hpp"
#include "qfr/runtime/fragment_attempt.hpp"
#include "qfr/runtime/master_runtime.hpp"
#include "qfr/serve/server.hpp"

namespace qfr::runtime {
namespace {

using namespace qfr::attempt_probe;

EngineLevel level_of(const engine::FragmentEngine& eng) {
  return {[&eng](const frag::Fragment& f) {
            return compute_with_engine(eng, f);
          },
          eng.name()};
}

TEST(FragmentAttempt, KernelMapsEveryExceptionClass) {
  const frag::Fragmentation fr = part::fragment_system(probe_system(), {});
  ASSERT_EQ(fr.fragments.size(), kFragments);
  std::atomic<int> cancel_throws{0};
  const ThrowingEngine eng(&cancel_throws);
  const EngineLevel level = level_of(eng);

  const Attempt::Status computed = Attempt::Status::kComputed;
  const Attempt::Status failed = Attempt::Status::kFailed;
  const struct {
    Attempt::Status status;
    FailureReason reason;
  } expected[kFragments] = {
      {failed, FailureReason::kTimeout},
      {failed, FailureReason::kNonConvergence},
      {failed, FailureReason::kEngineError},
      {failed, FailureReason::kEngineError},
      {Attempt::Status::kCancelled, FailureReason::kNone},
      {computed, FailureReason::kNone},
  };
  for (std::size_t id = 0; id < kFragments; ++id) {
    const Attempt a = run_fragment(fr.fragments[id], 0, level, nullptr, {});
    EXPECT_EQ(a.status, expected[id].status) << "fragment " << id;
    EXPECT_EQ(a.reason, expected[id].reason) << "fragment " << id;
    EXPECT_EQ(a.level, 0u);
    EXPECT_GE(a.seconds, 0.0);
  }
  // The cancel fires once: the next attempt computes.
  EXPECT_EQ(run_fragment(fr.fragments[kCancelId], 0, level, nullptr, {})
                .status,
            computed);

  // A token cancelled before the attempt starts never reaches the engine.
  common::CancelSource source;
  source.cancel();
  const int throws_before = cancel_throws.load();
  const Attempt stopped = run_fragment(fr.fragments[kCancelId], 0, level,
                                       nullptr, source.token());
  EXPECT_EQ(stopped.status, Attempt::Status::kCancelled);
  EXPECT_EQ(cancel_throws.load(), throws_before);
}

TEST(FragmentAttempt, KernelRoutesThroughTheCacheByEngineName) {
  const frag::Fragmentation fr = part::fragment_system(probe_system(), {});
  std::atomic<int> cancel_throws{1};  // kCancelId computes cleanly
  const ThrowingEngine eng(&cancel_throws);
  const EngineLevel primary = level_of(eng);
  const EngineLevel renamed{primary.compute, "probe-fallback"};
  cache::CacheOptions copts;
  copts.enabled = true;
  cache::ResultCache cache(copts);

  // The probe waters are rigid copies of one geometry: the first computes,
  // the second is an exact transport under the same engine name, and a
  // different name is a separate namespace.
  const Attempt first =
      run_fragment(fr.fragments[kCleanId], 0, primary, &cache, {});
  const Attempt second =
      run_fragment(fr.fragments[kCancelId], 0, primary, &cache, {});
  const Attempt other =
      run_fragment(fr.fragments[kCancelId], 1, renamed, &cache, {});
  ASSERT_EQ(first.status, Attempt::Status::kComputed);
  ASSERT_EQ(second.status, Attempt::Status::kComputed);
  ASSERT_EQ(other.status, Attempt::Status::kComputed);
  EXPECT_EQ(first.result.reuse_tier, engine::ReuseTier::kComputed);
  EXPECT_EQ(second.result.reuse_tier, engine::ReuseTier::kExact);
  EXPECT_EQ(other.result.reuse_tier, engine::ReuseTier::kComputed);
  EXPECT_EQ(other.level, 1u);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(FragmentAttempt, ThreadAndServeHostsMapExceptionsAlike) {
  const frag::BioSystem sys = probe_system();
  const frag::Fragmentation fr = part::fragment_system(sys, {});
  ASSERT_EQ(fr.fragments.size(), kFragments);

  std::atomic<int> thread_cancels{0};
  const ThrowingEngine eng(&thread_cancels);
  RuntimeOptions ropts;
  ropts.n_leaders = 2;
  ropts.max_retries = kMaxRetries;
  ropts.straggler_timeout = kStragglerTimeout;
  ropts.abort_on_failure = false;
  const RunReport thread_rep = MasterRuntime(ropts).run(fr.fragments, eng);
  expect_probe_outcomes(thread_rep.outcomes, "thread");
  EXPECT_EQ(thread_rep.n_retries, 4u);
  EXPECT_EQ(thread_rep.n_requeued, 1u);
  EXPECT_EQ(thread_rep.n_cancelled, 1u);

  std::atomic<int> serve_cancels{0};
  serve::ServerOptions sopts;
  sopts.n_leaders = 2;
  sopts.max_retries = kMaxRetries;
  sopts.straggler_timeout = kStragglerTimeout;
  sopts.enable_fallback = false;
  serve::Server server(sopts, [&serve_cancels](qframan::EngineKind) {
    return std::make_unique<ThrowingEngine>(&serve_cancels);
  });
  serve::SpectrumRequest req;
  req.system = sys;
  serve::RequestHandle h = server.submit(std::move(req));
  ASSERT_TRUE(h.admitted());
  const serve::RequestOutcome& out = h.wait();
  // Four fragments failed permanently, so the request fails with them.
  EXPECT_EQ(out.state, serve::RequestState::kFailed) << out.error;
  expect_probe_outcomes(out.report.outcomes, "serve");
  EXPECT_EQ(out.report.n_retries, 4u);
  EXPECT_EQ(out.report.n_requeued, 1u);
  EXPECT_EQ(out.report.n_compute_cancelled, 1u);

  expect_same_outcomes(thread_rep.outcomes, out.report.outcomes);
}

}  // namespace
}  // namespace qfr::runtime
